"""The linens benchmark: four CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs one ``linens`` CLI command in a fresh process
(``perfbench/child.py``), with ``workers = 1``, one process at a time:

  run-ensemble    ``linens run`` on configs/ensemble.ini: the shipped headline
                  experiment; every layer, trace emission included; about one
                  keyed generator per step.
  run-phe         ``linens run`` on configs/phe.ini: perturbed-history
                  exploration re-perturbs an O(t) history every step, so
                  draw volume, not generator count, loads policies/perturb.
  rates-c4        ``linens rates`` at acceptance criterion 4's shape
                  (perfbench/configs/rates-c4.ini): many short replications,
                  no output file; set-up and StepMonitor.observe dominate.
  equivalence-c1  ``linens equivalence`` at criterion 1's second shape
                  (perfbench/configs/equivalence-c1.ini): LinPHE's shared-axis
                  replay builds O(T^2) keyed generators for few distinct keys;
                  no monitor and no emission.

The seed becomes the config's ``base_seed``. A run first makes one small
warm-up invocation and two set-up-only invocations, then repeats a round of
two set-up-only invocations and one full invocation until ``--seconds`` are
used (at least one round).

The host's speed drifts by up to 2x within seconds on a shared VM, and the
guest cannot see it. Each untraced invocation is therefore interleaved with
a fixed reference computation (``reference.py``, run from ``child.py`` about
every 0.15 s), the reference's time is taken out of the invocation's times,
and the speed factor, the reference's measured over its nominal time, is
divided out. Times are thus seconds at the reference's nominal speed; the
measured ones are printed too. The end-to-end metrics are

  wall_s        mean wall time of a full invocation over the run's speed
                factor (the measured mean, median, quartiles and count are
                printed too)
  steps_per_s   interaction steps (replications x T, or seeds x T x 2
                policies) over compute time, which excludes set-up, times the
                run's speed factor
  setup_s       median over the set-up-only invocations of the time from
                process start to a loaded, validated config, each over its
                own speed factor
  peak_rss_mib  median peak resident memory of the invocation's process
  failed_frac   failed over attempted invocations, printed, and carried by the
                result's ``failed`` and ``attempted``

With ``--trace 1`` each round adds a traced invocation (see ``tracer.py``),
and the result is the per-layer metrics plus ``trace.overhead_ratio``, the
traced over the untraced wall time.

Every full invocation must pass a correctness gate: exit code 0, the
workload's own check (N/N equivalence matches; all-step concentration rate
at least 0.78 for rates-c4; the expected replication and row counts for
run-*), outputs (trace.csv and summary.json, or the printed report)
byte-identical to the run's first invocation, and, when traced, the same
exact counters as the first traced invocation. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record, with the environment, every sample, output
hashes and the bounded span list, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from reference import NOMINAL_CHUNK_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
#: Output directory of ``linens run``, relative to the root so that
#: summary.json, which records it, hashes the same in every checkout.
OUT = Path(".perfbench/out")

#: Every process this run starts must end within this many seconds of its
#: start, leaving margin under the 180 s limit on one benchmark run.
HARD_LIMIT_S = 165.0

#: Set-up-only invocations before the timed loop, and in each of its rounds.
SETUP_PROBES = 2

#: Criterion 4's floor on the all-step concentration rate at delta = 0.2.
CONCENTRATION_FLOOR = 0.78

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    command: str  # linens subcommand: run, rates or equivalence
    config: str  # INI path relative to the repository root
    seeds: int = 0  # equivalence seed count
    # INI [run] overrides (and seed count) for the warm-up and smoke sizes
    warmup: tuple = ()
    smoke: tuple = ()


WORKLOADS = {
    "run-ensemble": Workload(
        "run", "configs/ensemble.ini",
        warmup=(("replications", 2),),
        smoke=(("replications", 2), ("horizon", 50)),
    ),
    "run-phe": Workload(
        "run", "configs/phe.ini",
        warmup=(("replications", 2),),
        smoke=(("replications", 2), ("horizon", 50)),
    ),
    "rates-c4": Workload(
        "rates", "perfbench/configs/rates-c4.ini",
        warmup=(("replications", 10),),
        smoke=(("replications", 10), ("horizon", 20)),
    ),
    "equivalence-c1": Workload(
        "equivalence", "perfbench/configs/equivalence-c1.ini", seeds=50,
        warmup=(("seeds", 5),),
        smoke=(("seeds", 3), ("horizon", 10)),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Inputs:
    config: Path  # derived INI
    replications: int
    horizon: int
    seeds: int

    @property
    def steps(self) -> int:
        if self.seeds:
            return self.seeds * self.horizon * 2  # ensemble and PHE per seed
        return self.replications * self.horizon


def derive_inputs(wl: Workload, seed: int, overrides: tuple, path: Path) -> Inputs:
    """Write the workload's INI with ``base_seed = seed`` and overrides."""
    parser = configparser.ConfigParser()
    if not parser.read(ROOT / wl.config):
        raise FileNotFoundError(ROOT / wl.config)
    run = parser["run"]
    run["base_seed"] = str(seed)
    run["workers"] = "1"
    seeds = wl.seeds
    for key, value in overrides:
        if key == "seeds":
            seeds = value
        else:
            run[key] = str(value)
    with open(path, "w") as fh:
        parser.write(fh)
    return Inputs(path, run.getint("replications", 1), run.getint("horizon"), seeds)


def cli_args(wl: Workload, inputs: Inputs) -> list[str]:
    args = [wl.command, "--config", str(inputs.config)]
    if wl.command == "run":
        args += ["--out", str(OUT)]
    elif wl.command == "equivalence":
        args += ["--seeds", str(inputs.seeds)]
    return args


# ---------------------------------------------------------------------------
# One invocation
# ---------------------------------------------------------------------------


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def speed_factor(refs: list[dict]) -> float:
    """How much slower than nominal the host ran the reference chunks of
    these invocations: their total time over their total nominal time."""
    spent = sum(r["setup_s"] + r["compute_s"] for r in refs)
    return spent / (sum(r["chunks"] for r in refs) * NOMINAL_CHUNK_S)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Invoker:
    """Starts child processes one at a time and collects their reports."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def __call__(self, args: list[str], trace=False, setup_only=False) -> dict:
        self.count += 1
        n = self.count
        report_path = self.tmp / f"report-{n}.json"
        out_path = self.tmp / f"stdout-{n}.txt"
        err_path = self.tmp / f"stderr-{n}.txt"
        cmd = [sys.executable, str(BENCH / "child.py"), "--report", str(report_path)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--", *args]
        timeout = max(1.0, self.deadline - _now())
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = _now()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            # a blocking wait returns as soon as the child exits; wait(timeout)
            # polls, which would round wall times up to its 50 ms sleeps
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
                end = _now()
            finally:
                killer.cancel()
                killer.join()
                if proc.poll() is None:  # interrupted: stop the child too
                    proc.kill()
                    proc.wait()
        sample = {"rc": rc, "wall_s": end - start, "raw_wall_s": end - start,
                  "stdout": out_path.read_bytes()}
        if end - start >= timeout:
            sample["error"] = f"timed out after {timeout:.0f} s"
        elif rc != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            sample["error"] = f"exit code {rc}: " + " | ".join(tail)
        if report_path.exists():
            report = json.loads(report_path.read_text())
            sample["report"] = report
            ref = report["reference"] or {"warm_s": 0.0, "setup_s": 0.0, "compute_s": 0.0}
            if report["reference"]:
                # time the reference took is not the command's
                sample["wall_s"] -= ref["warm_s"] + ref["setup_s"] + ref["compute_s"]
                sample["speed"] = speed_factor([report["reference"]])
                if ref["wrong"]:
                    sample.setdefault("error", "reference checksum changed")
            if report["loaded"] is not None:
                sample["setup_s"] = report["loaded"] - start - ref["warm_s"] - ref["setup_s"]
                sample["compute_s"] = report["end"] - report["loaded"] - ref["compute_s"]
            sample["peak_rss_mib"] = report["peak_rss_kib"] / 1024.0
            if not Path(report["linens_file"]).resolve().is_relative_to(ROOT / "src"):
                sample.setdefault("error", f"linens imported from {report['linens_file']}")
        elif rc == 0:
            sample["rc"] = -1
            sample["error"] = "no report written"
        return sample


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def check_outputs(wl: Workload, inputs: Inputs, sample: dict) -> dict:
    """Workload check plus output hashes; sets ``sample['error']`` on failure."""
    stdout = sample["stdout"]
    out_dir = ROOT / OUT
    hashes = {}
    try:
        if wl.command == "run":
            trace = (out_dir / "trace.csv").read_bytes()
            summary = (out_dir / "summary.json").read_bytes()
            hashes = {"trace.csv": _sha256(trace), "summary.json": _sha256(summary)}
            rows = inputs.replications * inputs.horizon
            got = trace.count(b"\n") - 1
            if got != rows:
                raise ValueError(f"trace.csv has {got} rows, want {rows}")
            got = json.loads(summary)["replications"]
            if got != inputs.replications:
                raise ValueError(f"summary reports {got} replications")
        elif wl.command == "rates":
            hashes = {"report": _sha256(stdout)}
            report = json.loads(stdout)
            if report["replications"] != inputs.replications:
                raise ValueError(f"report has {report['replications']} replications")
            rate = report["all_concentrated_rate"]
            if rate < CONCENTRATION_FLOOR:
                raise ValueError(f"all_concentrated_rate {rate} < {CONCENTRATION_FLOOR}")
        else:
            hashes = {"report": _sha256(stdout)}
            n = inputs.seeds
            want = f"PASS: {n}/{n} seeds with identical arm sequences"
            first = stdout.decode().splitlines()[0] if stdout else ""
            if first != want:
                raise ValueError(f"equivalence printed {first!r}")
    except (OSError, ValueError, KeyError, IndexError) as exc:
        sample.setdefault("error", f"check failed: {exc}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    sample["sha256"] = hashes
    return hashes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _sum(table: dict, names) -> float:
    return sum(table.get(n, 0) for n in names)


def _methods(table: dict, layer: str, method: str) -> list[str]:
    """Names ``layer.<Class>.method`` across every class of the layer."""
    return [
        n for n in table
        if n.startswith(layer + ".") and n.endswith("." + method) and n.count(".") == 2
    ]


SETUP_FUNCS = ("harness.build_environment", "harness.confidence_params", "harness.build_policy")
LOOP_FUNCS = ("harness.run_replication", "harness._diagnosed_replication", "harness._arm_sequence")
LAYER_NAMES = ("config", "harness", "perturb", "policies", "linalg", "kernels", "diagnostics", "envs")


def per_layer_counts(trace: dict, steps: int) -> dict:
    """Exact counters of one traced invocation: name -> (value, unit)."""
    calls, ctr = trace["calls"], trace["counters"]
    kg_calls = calls["perturb.keyed_generator"]
    out = {
        "perturb.keyed_generator.calls": (kg_calls, "count"),
        "perturb.keyed_generator.calls_per_step": (kg_calls / steps, "1/step"),
        "perturb.keyed_generator.distinct_key_ratio": (
            ctr["keyed_generator_distinct_keys"] / kg_calls if kg_calls else 0.0, "ratio"),
        "perturb.reward_vector.calls": (calls["perturb.PerturbationStream.reward_vector"], "count"),
        "perturb.reward_vector.values_drawn": (ctr["reward_vector_values"], "count"),
        "perturb.PerturbationSpec.sample.calls": (calls["perturb.PerturbationSpec.sample"], "count"),
        "perturb.PerturbationSpec.sample.values_drawn": (ctr["sample_values"], "count"),
        "policies.select.calls": (_sum(calls, _methods(calls, "policies", "select")), "count"),
        "policies.update.calls": (_sum(calls, _methods(calls, "policies", "update")), "count"),
        "policies.LinPHE.history_rows": (ctr["history_rows"], "count"),
        "diagnostics.StepMonitor.observe.calls": (calls["diagnostics.StepMonitor.observe"], "count"),
        "linalg.GramState.reinvert.calls": (calls["linalg.GramState.reinvert"], "count"),
        "kernels.flops_computed": (ctr["kernel_flops"], "flop"),
        "harness.setup.calls": (_sum(calls, SETUP_FUNCS), "count"),
        "harness.emit_outputs.bytes": (ctr["emitted_bytes"], "B"),
        "trace.calls_total": (trace["spans_total"], "count"),
    }
    for method in ("update", "weighted_norm", "solve"):
        out[f"linalg.GramState.{method}.calls"] = (calls[f"linalg.GramState.{method}"], "count")
    for kernel in ("rank1_update", "quad_form", "accumulate_perturbed"):
        out[f"kernels.{kernel}.calls"] = (calls[f"kernels.{kernel}"], "count")
    return out


def per_layer_times(trace: dict) -> dict:
    """Self times and shares of one traced invocation: name -> seconds."""
    s = trace["self_s"]
    wall = sum(s.values())  # every wrapped call nests under the root span
    out = {
        "perturb.keyed_generator.self_s": s["perturb.keyed_generator"],
        "perturb.reward_vector.self_s": s["perturb.PerturbationStream.reward_vector"],
        "perturb.PerturbationSpec.sample.self_s": s["perturb.PerturbationSpec.sample"],
        "policies.select.self_s": _sum(s, _methods(s, "policies", "select")),
        "policies.update.self_s": _sum(s, _methods(s, "policies", "update")),
        "policies.LinPHE.estimator.self_s": s["policies.LinPHE.estimator"],
        "diagnostics.StepMonitor.observe.self_s": s["diagnostics.StepMonitor.observe"],
        "envs.sample_reward.self_s": s["envs.LinearBanditEnv.sample_reward"],
        "envs.RegretLedger.record.self_s": s["envs.RegretLedger.record"],
        "harness.setup.self_s": _sum(s, SETUP_FUNCS),
        "config.load_config.self_s": s["config.load_config"],
        "harness.loop.self_s": _sum(s, LOOP_FUNCS),
        "harness.aggregate.self_s": s["harness.aggregate"],
        "harness.emit_outputs.self_s": s["harness.emit_outputs"],
        "trace.wall_s": wall,
    }
    for method in ("update", "weighted_norm", "solve"):
        out[f"linalg.GramState.{method}.self_s"] = s[f"linalg.GramState.{method}"]
    for kernel in ("rank1_update", "quad_form", "accumulate_perturbed"):
        out[f"kernels.{kernel}.self_s"] = s[f"kernels.{kernel}"]
    for layer in LAYER_NAMES:
        layer_s = sum(v for n, v in s.items() if n.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = layer_s
        out[f"layer.{layer}.share"] = layer_s / wall
    return out


def _unit(name: str) -> str:
    return "fraction" if name.endswith(".share") else "s"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def environment(report: dict | None) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }
    if report:
        for key in ("python", "numpy", "have_compiled_kernels"):
            env[key] = report[key]
    return env


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def bench(name: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    wl = WORKLOADS[name]
    started = _now()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return _bench(wl, name, seed, seconds, trace, size, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _bench(wl, name, seed, seconds, trace, size, tmp, started) -> int:
    invoke = Invoker(tmp, started + HARD_LIMIT_S)
    full = derive_inputs(wl, seed, wl.smoke if size == "smoke" else (), tmp / "full.ini")
    warm = derive_inputs(wl, seed, wl.warmup, tmp / "warmup.ini")
    samples = []  # every invocation, for attempted/failed
    timed, traced = [], []
    first_hashes = None

    def full_run(tracing: bool) -> dict:
        nonlocal first_hashes
        sample = invoke(cli_args(wl, full), trace=tracing)
        sample["traced"] = tracing
        hashes = check_outputs(wl, full, sample)
        if "error" not in sample:
            if first_hashes is None:
                first_hashes = hashes
            elif hashes != first_hashes:
                sample["error"] = "outputs differ from the run's first invocation"
        samples.append(sample)
        return sample

    def probe() -> dict:
        sample = invoke(cli_args(wl, full), setup_only=True)
        samples.append(sample)
        return sample

    # warm-up: one small invocation; then set-up-only probes spread over the
    # run, so that set-up time is sampled as widely as the workload itself
    samples.append(invoke(cli_args(wl, warm)))
    shutil.rmtree(ROOT / OUT, ignore_errors=True)
    probes = [probe() for _ in range(SETUP_PROBES)]
    loop_start = _now()
    while True:
        t0 = _now()
        probes += [probe() for _ in range(SETUP_PROBES)]
        timed.append(full_run(False))
        if trace:
            traced.append(full_run(True))
        took = _now() - t0
        if _now() - loop_start + took > seconds or _now() + took > started + HARD_LIMIT_S:
            break

    failed = [s for s in samples if "error" in s]
    ok_timed = [s for s in timed if "error" not in s]
    ok_traced = [s for s in traced if "error" not in s]
    report = next((s["report"] for s in samples if "report" in s), None)
    env = environment(report)

    print(f"workload {name}  seed {seed}  size {size}  trace {int(trace)}  steps/invocation {full.steps}")
    print("environment " + json.dumps(env, sort_keys=True))
    for i, s in enumerate(timed + traced):
        kind = "traced" if s["traced"] else "timed"
        line = f"{kind} {i + 1}: wall {s['wall_s']:.3f} s"
        if "speed" in s:
            line += f", speed factor {s['speed']:.3f}"
        if "setup_s" in s:
            line += f", setup {s['setup_s']:.3f} s, compute {s['compute_s']:.3f} s"
        if "peak_rss_mib" in s:
            line += f", rss {s['peak_rss_mib']:.1f} MiB"
        line += "".join(f", {k} {v[:16]}" for k, v in s.get("sha256", {}).items())
        print(line + (f"  FAILED: {s['error']}" if "error" in s else ""))
    if first_hashes:
        print("sha256 " + ", ".join(f"{k} {v}" for k, v in first_hashes.items()))
    for s in failed:
        if s not in timed and s not in traced:
            print(f"FAILED ({'setup probe' if s in probes else 'warm-up'}): {s['error']}")

    metrics = {}
    record = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
              "environment": env, "steps_per_invocation": full.steps}
    if not trace:
        if ok_timed:
            # The host's speed drifts by up to 2x within a run, unseen by the
            # guest, so times are divided by the speed factor that the
            # interleaved reference measured over the same invocations:
            # they are seconds at the reference's nominal speed.
            speed = speed_factor([s["report"]["reference"] for s in ok_timed])
            walls = [s["wall_s"] for s in ok_timed]
            setups = [s["setup_s"] / s["speed"] for s in probes if "setup_s" in s]
            values = {
                "wall_s": statistics.fmean(walls) / speed,
                "steps_per_s": full.steps * len(ok_timed) * speed
                / sum(s["compute_s"] for s in ok_timed),
                "setup_s": statistics.median(setups),
                "peak_rss_mib": statistics.median(s["peak_rss_mib"] for s in ok_timed),
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
            q1, q3 = quartiles(walls)
            chunks = sum(s["report"]["reference"]["chunks"] for s in ok_timed)
            print(f"speed factor  {speed:.4f}  ({chunks} reference chunks, "
                  f"nominal {NOMINAL_CHUNK_S} s each)")
            print(f"wall_s        {values['wall_s']:.4f} s normalised mean  (measured: mean "
                  f"{statistics.fmean(walls):.4f}, median {statistics.median(walls):.4f}, "
                  f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(walls)})")
            print(f"steps_per_s   {values['steps_per_s']:.1f} 1/s normalised")
            print(f"setup_s       {values['setup_s']:.4f} s normalised median  (n={len(setups)})")
            print(f"peak_rss_mib  {values['peak_rss_mib']:.1f} MiB median")
    elif ok_traced and ok_timed:
        counts = [per_layer_counts(s["report"]["trace"], full.steps) for s in ok_traced]
        for s, c in zip(ok_traced[1:], counts[1:]):
            if c != counts[0]:
                s["error"] = "trace counters differ from the first traced invocation"
                failed.append(s)
                print(f"FAILED: {s['error']}")
        times = [per_layer_times(s["report"]["trace"]) for s in ok_traced]
        for k, (v, unit) in counts[0].items():
            metrics[k] = {"value": v, "unit": unit}
        for k in times[0]:
            metrics[k] = {"value": statistics.median(t[k] for t in times), "unit": _unit(k)}
        untraced = statistics.median(s["wall_s"] for s in ok_timed)
        ratio = statistics.median(s["wall_s"] for s in ok_traced) / untraced
        metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        for k, m in metrics.items():
            print(f"{k:<48} {m['value']:.6g} {m['unit']}")
        last = ok_traced[-1]["report"]["trace"]
        record["spans"] = {"kept": len(last["spans"]), "total": last["spans_total"],
                           "fields": ["id", "name", "start", "end", "parent"],
                           "rows": last["spans"]}

    attempted = len(samples)
    print(f"failed_frac   {len(failed)}/{attempted} = {len(failed) / attempted:.4g}")
    result = {"correct": not failed and bool(metrics), "attempted": attempted,
              "failed": len(failed), "metrics": metrics}
    for s in samples:
        s.pop("stdout", None)
        if "report" in s:
            s["report"].pop("trace", None)
    record.update(result=result, samples=samples)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    # turn SIGTERM into an exception, so that cleanup stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in ("src/linens/cli.py", WORKLOADS[args.workload].config)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a linens checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    return bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
