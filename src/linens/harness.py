"""Experiment orchestration.

Runs seeded Monte-Carlo replications of the policy a configuration builds
(:meth:`~linens.config.ExperimentConfig.build_policy`), or a round-robin
ensemble against :class:`~linens.policies.PerturbedHistoryReplay` at m = T,
aggregates regret curves and monitor rates, and persists traces and
summaries. Everything downstream of ``(config, base_seed)`` is deterministic;
replication seeds derive from the base seed through a fixed 64-bit mixing
function (see :func:`linens.perturb.mix_key`).

Replications run in lockstep batches: one interaction loop,
:func:`interact`, steps a batched policy for every replication of a
contiguous block of at most ``BATCH_SIZE`` replication indices. ``run``,
``sweep``, ``rates`` and ``equivalence`` all go through it; ``run.workers``
only maps the fixed batches over a process pool, so no output depends on it.
A batch's results stay arrays, one :class:`RunRecord` per batch: ``(R, T)``
trace columns and ``(R,)`` counters, pooled across batches by concatenation
and written to ``trace.csv`` one replication at a time. Bookkeeping that no
decision reads stays off the per-step path: the loop ends a block of steps
in one place, where it scores the regret and evaluates the monitor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from pathlib import Path

import numpy as np

from .config import BOUNDED_POLICIES, ExperimentConfig
from .diagnostics import StepMonitor, theoretical_regret_bound
from .envs import LinearBanditEnv, RegretLedger
from .perturb import TAG_REPLICATION, StepDraws, _fold_array, block_steps, gamma, p_n, seed_prefixes
from .policies import EnsembleSampling, PerturbedHistoryReplay, Sampler

#: Most replications stepped together in one lockstep batch.
BATCH_SIZE = 256

#: Per-step trace columns of a replication, in ``trace.csv`` order.
TRACE_COLUMNS = ("arm", "model", "reward", "instant_regret", "cum_regret")

#: Per-step monitor indicators, traced when diagnostics are on.
FLAG_COLUMNS = ("conc_ok", "anticonc_ok", "optimism_ok")

#: dtypes of the trace columns that are not floats; these are written
#: ``%d`` and the float ones ``%.17g``.
_COLUMN_DTYPES = {"arm": np.int64, "model": np.int64, **dict.fromkeys(FLAG_COLUMNS, bool)}

#: Run settings that say where and how to run an experiment, not what it
#: is; ``summary.json`` leaves them out of its config echo so that its bytes
#: depend on the experiment alone.
_UNECHOED_RUN_KEYS = ("out_dir", "workers")


@dataclass
class RunRecord:
    """One lockstep batch's results. Row i of every array is replication
    ``replications[i]``: ``columns`` maps each trace column to an ``(R, T)``
    array (step ``t = 1..T`` in column ``t - 1``), and ``counters`` maps
    ``final_regret`` and the monitor's counters
    (:meth:`~linens.diagnostics.StepMonitor.counters`) to ``(R,)`` arrays."""

    replications: range
    columns: dict
    counters: dict


def batches(replications: range) -> list[range]:
    """Contiguous blocks of at most ``BATCH_SIZE`` replication indices."""
    return [
        replications[i : i + BATCH_SIZE] for i in range(0, len(replications), BATCH_SIZE)
    ]


def _map_batches(fn, items: range, workers: int) -> list:
    """``fn`` over the fixed batches of ``items``, in order; across processes
    when ``workers > 1``. Workers are spawned, not forked: the parent may
    hold BLAS threads. The process pool is imported only here, where it is
    used."""
    blocks = batches(items)
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)), mp_context=get_context("spawn")
        ) as pool:
            return list(pool.map(fn, blocks))
    return [fn(block) for block in blocks]


def replication_seeds(cfg: ExperimentConfig, replications: range) -> list[int]:
    """Seed ``mix_key(base_seed, TAG_REPLICATION, r)`` of each replication r,
    as a Python int: its policy's seed, and the seed of its reward noise."""
    prefix = seed_prefixes([cfg.run.base_seed], TAG_REPLICATION)
    return _fold_array(prefix, np.array(replications, dtype=np.int64)).tolist()


def interact(
    policy,
    env: LinearBanditEnv,
    noise: StepDraws,
    horizon: int,
    monitor: StepMonitor | None = None,
    columns: tuple = TRACE_COLUMNS,
) -> tuple[dict, np.ndarray]:
    """The interaction loop: step a batched policy for ``horizon`` steps.

    Each step selects an arm per replication, gathers its vector and mean
    reward once, lets the monitor (if any) record the pre-step state, adds
    the noise of the step (``noise.at(t)``, one value per replication, from
    :meth:`~linens.envs.NoiseModel.draws`) and updates the policy. Steps
    run in blocks of the monitor's ``block_length``, or of
    ``block_steps(R)`` without one. At each block's end the
    :class:`~linens.envs.RegretLedger` scores its mean rewards, the monitor
    evaluates its steps (``flush``), and their columns are written at the
    block's steps, so a run that traces no regret holds no
    ``(R, horizon)`` regret. Returns the named trace columns (of
    ``TRACE_COLUMNS``, and of ``FLAG_COLUMNS`` with a monitor), each
    ``(R, horizon)``, and the final cumulative regret of each replication.
    """
    shape = (policy.batch, horizon)
    cols = {name: np.empty(shape, dtype=_COLUMN_DTYPES.get(name, float)) for name in columns}
    # (position in a step's (arm, model, reward), column) of each traced one,
    # and (position in the ledger's (gaps, sums), column) of the regret ones
    traced = [(k, cols[name]) for k, name in enumerate(TRACE_COLUMNS[:3]) if name in cols]
    scored = [(k, cols[name]) for k, name in enumerate(TRACE_COLUMNS[3:]) if name in cols]
    flags = [cols[name] for name in FLAG_COLUMNS if name in cols]
    ledger = RegretLedger(env)
    arms = env.arms
    steps = block_steps(policy.batch) if monitor is None else monitor.block_length(policy)
    means = np.empty((policy.batch, steps))  # a block's mean rewards, step by step
    for first in range(0, horizon, steps):
        at = range(first, min(first + steps, horizon))
        block = means[:, : len(at)]
        for j, i in enumerate(at):
            sel = policy.select(arms)
            x, mean = env.pull(sel.arm_index)
            if monitor is not None:
                monitor.observe(policy, sel, x)
            y = mean + noise.at(i + 1)[:, 0]
            block[:, j] = mean
            policy.update(x, y)
            if traced:
                step = (sel.arm_index, sel.model_index, y)
                for k, col in traced:
                    col[:, i] = step[k]
        regret = ledger.record(block)
        for k, col in scored:
            col[:, at.start : at.stop] = regret[k]
        if monitor is not None:
            diag = monitor.flush()
            for col, ok in zip(flags, (diag.concentration_ok, diag.anti_conc_ok, diag.optimism_ok)):
                col[:, at.start : at.stop] = ok.T
    return cols, ledger.cumulative


def run_batch(cfg: ExperimentConfig, replications: range, trace: bool = True) -> RunRecord:
    """Run a block of replications in lockstep; each row is deterministic
    in (config, replication) whatever the block. Without ``trace`` the
    record carries counters only."""
    env = cfg.environment()
    seeds = replication_seeds(cfg, replications)
    policy = cfg.build_policy(seeds)
    noise = env.noise.draws(seeds)
    monitor = None
    if cfg.run.diagnostics != "off":
        monitor = StepMonitor(
            env,
            cfg.confidence_params(),
            track_ensemble_fraction=(cfg.run.diagnostics == "full-trace"),
            replications=replications,
        )
    columns = TRACE_COLUMNS + (FLAG_COLUMNS if monitor is not None else ()) if trace else ()
    cols, regret = interact(policy, env, noise, cfg.run.horizon, monitor, columns)
    counters = {"final_regret": regret}
    if monitor is not None:
        counters.update(monitor.counters())
    return RunRecord(replications, cols, counters)


def run_replications(cfg: ExperimentConfig, replications: range) -> list[RunRecord]:
    """Run replications in their fixed batches, mapped over ``run.workers``:
    one record per batch, in replication order."""
    return _map_batches(partial(run_batch, cfg), replications, cfg.run.workers)


def checkpoints(horizon: int) -> list[int]:
    """Geometric grid 1, 2, 4, ... capped and closed at the horizon."""
    grid = []
    t = 1
    while t < horizon:
        grid.append(t)
        t *= 2
    grid.append(horizon)
    return grid


def run_monte_carlo(cfg: ExperimentConfig) -> tuple[list[RunRecord], dict]:
    """Run all replications and aggregate a deterministic summary table."""
    records = run_replications(cfg, range(cfg.run.replications))
    return records, aggregate(cfg, records)


def _pooled(records: list[RunRecord]) -> dict:
    """Each counter of ``records``, its batches concatenated in replication
    order: name -> ``(N,)``."""
    names = records[0].counters
    return {name: np.concatenate([rec.counters[name] for rec in records]) for name in names}


def monitor_report(counters: dict) -> dict:
    """The one monitor report of ``run`` and ``rates``, built from the
    pooled counters (:func:`_pooled`); README lists its fields. Each rate
    is a Python int over an int."""
    replications = len(counters["checks"])

    def total(name: str) -> int:
        return int(counters[name].sum())

    total_checks = total("checks")
    # the monitor leaves out elliptical_ok where the cap does not apply
    elliptical = "elliptical_ok" in counters
    report = {
        "all_concentrated_rate": total("all_concentrated") / replications,
        "concentration_rate": 1.0 - total("concentration_failures") / total_checks,
        "perturb_concentration_rate": 1.0
        - total("perturb_concentration_failures") / total_checks,
        "anti_conc_rate": total("anti_conc_hits") / total_checks,
        "optimism_rate": total("optimism_hits") / total_checks,
        "total_checks": total_checks,
        "elliptical_pass_rate": total("elliptical_ok") / replications if elliptical else None,
    }
    if not elliptical:
        report["elliptical_note"] = (
            "disabled: the elliptical-potential cap presumes policy.lambda >= 1"
        )
    if "min_ensemble_fraction" in counters:
        threshold = p_n() / 4.0
        passed = counters["min_ensemble_fraction"] >= threshold
        report["ensemble_fraction_threshold"] = threshold
        report["min_ensemble_fraction_pass_rate"] = int(passed.sum()) / replications
    return report


def aggregate(cfg: ExperimentConfig, records: list[RunRecord]) -> dict:
    """``summary.json``'s table, whose ``monitors`` is the monitor report
    (:func:`monitor_report`), or ``"disabled"`` when no monitor ran. Its
    medians and q10/q90 are numpy's, read off one sort (:func:`_quantile`)."""
    params = cfg.confidence_params()
    grid = checkpoints(cfg.run.horizon)
    cum = np.concatenate([rec.columns["cum_regret"][:, np.array(grid) - 1] for rec in records])
    ranked = np.sort(cum, axis=0)
    half = len(cum) // 2
    # np.median is the mean of the middle values, whose sum starts at +0.0
    median = ranked[half] + 0.0 if len(cum) % 2 else (0.0 + ranked[half - 1] + ranked[half]) / 2
    stats = zip(grid, map(np.mean, cum.T), median, _quantile(ranked, 0.10), _quantile(ranked, 0.90))
    keys = ("t", "mean", "median", "q10", "q90")
    per_checkpoint = [dict(zip(keys, (t, *map(float, values)))) for t, *values in stats]
    config = cfg.to_dict()
    for key in _UNECHOED_RUN_KEYS:
        del config["run"][key]
    summary = {
        "config": config,
        "resolved_m": cfg.resolved_ensemble_size() if cfg.reads("m") else None,
        "resolved_scale": cfg.perturbation_spec().scale if cfg.reads("scale_mode") else None,
        "replications": len(cum),
        "checkpoints": per_checkpoint,
        "theoretical_regret_bound": (
            theoretical_regret_bound(gamma(params), p_n() / 4.0, params)
            if cfg.policy.name in BOUNDED_POLICIES
            else None
        ),
    }
    counters = _pooled(records)
    # a switched-off monitor says so rather than leave its key out
    summary["monitors"] = monitor_report(counters) if "checks" in counters else "disabled"
    return summary


def _quantile(ranked: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(col, q)`` of each sorted column of ``ranked``, bit for
    bit: numpy's ``_lerp`` at ``v = (n - 1) * q``, whose neighbours at the
    last index both clip to it, weighed ``v + 1``."""
    last = len(ranked) - 1
    v = last * q
    lo = min(int(v), last)
    g = v + 1 if lo == last else v - lo
    a, b = ranked[lo], ranked[min(lo + 1, last)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def emit_outputs(
    records: list[RunRecord], summary: dict, out_dir: str | Path
) -> tuple[Path, Path]:
    """Write the trace CSV and the summary JSON; byte-stable for equal
    inputs.

    ``trace.csv`` has the header ``replication,t,`` then ``TRACE_COLUMNS``
    and, when the records carry them, ``FLAG_COLUMNS``; ints and flags are
    written ``%d`` and floats ``%.17g``, which round-trips. It is written
    one replication at a time: each float column and each run of adjacent
    int and flag columns gives a row's texts with their leading commas
    (:func:`_row_texts`, which holds at most one row's texts, so memory
    grows with neither the batch width nor the ensemble size), and the
    replication's number, the shared ``,t`` and those texts are joined once."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.csv"
        summary_path = out / "summary.json"
        names = TRACE_COLUMNS
        if records and FLAG_COLUMNS[0] in records[0].columns:
            names += FLAG_COLUMNS
        # adjacent int and flag columns make one run, and each float column its own
        runs = [list(run) for _, run in groupby(names, lambda name: name in _COLUMN_DTYPES or name)]
        fmts = [[",%d" if name in _COLUMN_DTYPES else ",%.17g" for name in run] for run in runs]
        fmts[-1][-1] += "\n"
        horizon = records[0].columns[names[0]].shape[-1] if records else 0
        width = 2 + len(runs)  # the replication, the step, then each run
        row_text = [None] * (width * horizon)
        row_text[1::width] = [f",{t}" for t in range(1, horizon + 1)]
        with open(trace_path, "w") as fh:
            fh.write("replication,t," + ",".join(names) + "\n")
            for rec in records:
                texts = [_row_texts([rec.columns[n] for n in r], f) for r, f in zip(runs, fmts)]
                for i, rep in enumerate(rec.replications):
                    row_text[::width] = [str(rep)] * horizon
                    for k, text in enumerate(texts, start=2):
                        row_text[k::width] = text(i)
                    fh.write("".join(row_text))
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return trace_path, summary_path


def _row_texts(columns: list[np.ndarray], formats: list[str]):
    """A function of a row index i that gives each step's values in row i
    of ``columns``, a run of ``(R, T)`` columns, each in its ``formats``
    entry and joined.

    Each step is one int64 code: a float column's bits (so ``-0.0`` and
    ``0.0`` stay apart), or the mixed-radix code of an int or flag run over
    its columns' ``[min, max]``. An int run of at most ``T`` codes, one
    row's steps, formats each code once into one table that every row
    indexes. Any other run formats a row of distinct codes in order and a
    row with repeats each distinct code once, so no table outgrows a row."""
    if columns[0].dtype == np.float64:
        (column,), (fmt,) = columns, formats
        def code(i: int) -> np.ndarray:
            return column[i].view(np.int64)
        def texts(codes: np.ndarray) -> list[str]:
            return [fmt % v for v in codes.view(np.float64).tolist()]
    else:
        lows = [int(column.min()) for column in columns]
        spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]
        def code(i: int) -> np.ndarray:
            return np.ravel_multi_index([c[i] - low for c, low in zip(columns, lows)], spans)
        def texts(codes: np.ndarray) -> list[str]:
            digits = [(d + low).tolist() for d, low in zip(np.unravel_index(codes, spans), lows)]
            return ["".join(f % v for f, v in zip(formats, value)) for value in zip(*digits)]
        if math.prod(spans) <= columns[0].shape[-1]:
            table = np.array(texts(np.arange(math.prod(spans))), dtype=object)
            return lambda i: table[code(i)].tolist()

    def text(i: int) -> list[str]:
        codes = code(i)
        keys, inverse = np.unique(codes, return_inverse=True)
        if len(keys) == len(codes):
            return texts(codes)
        return np.array(texts(keys), dtype=object)[inverse].tolist()

    return text


# ---------------------------------------------------------------------------
# Equivalence suite
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    seeds: int
    matches: int
    failures: list = field(default_factory=list)  # (seed, first_diverging_step, es, phe)

    @property
    def passed(self) -> bool:
        return self.matches == self.seeds


def run_equivalence_suite(cfg: ExperimentConfig, desync: bool = False) -> EquivalenceReport:
    """Check that a horizon-sized round-robin ensemble and perturbed-history
    exploration choose identical arm sequences when they share keyed draws,
    on each of ``run.replications`` seeds (the replication seeds of
    :func:`replication_seeds`).

    ``desync`` deliberately offsets the perturbed-history seeds; it exists
    as a negative control for the test itself and must report failures.
    Each seed runs on its own random instance, so a config with explicit
    arms is rejected rather than silently replaced. The suite reads the
    fields that ``ExperimentConfig.reads(key, "equivalence")`` names.
    """
    n_seeds = cfg.run.replications
    if n_seeds < 1:
        # an unvalidated config must not pass vacuously, 0/0
        raise ValueError("run.replications must be at least 1")
    if cfg.env.arm_mode == "explicit":
        raise ValueError(
            "the equivalence suite draws random instances (one per seed, from "
            "env.dim and env.arm_count); it cannot run on arm_mode = explicit"
        )
    results = _map_batches(
        partial(_equivalence_batch, cfg, desync), range(n_seeds), cfg.run.workers
    )
    report = EquivalenceReport(seeds=n_seeds, matches=0)
    pairs = ((a, b) for seq_es, seq_phe in results for a, b in zip(seq_es, seq_phe))
    for s, (a, b) in enumerate(pairs):
        if np.array_equal(a, b):
            report.matches += 1
        else:
            first = int(np.argmax(a != b))
            report.failures.append((s, first + 1, a.tolist(), b.tolist()))
    return report


def _equivalence_batch(cfg: ExperimentConfig, desync: bool, seeds: range):
    """Arm sequences of both policies for a block of seeds, each on its own
    random instance: two ``(R, T)`` arrays. Each seed's replication seed
    (:func:`replication_seeds`) keys its instance, its noise and both
    policies, as ``run`` keys a replication."""
    horizon = cfg.run.horizon
    keys = replication_seeds(cfg, seeds)
    env = cfg.environment(keys)
    spec = cfg.perturbation_spec()
    es = EnsembleSampling(
        env.dim, cfg.policy.lam, horizon, spec, keys, sampler=Sampler.ROUND_ROBIN
    )
    phe = PerturbedHistoryReplay(
        env.dim, cfg.policy.lam, spec, [k + 1 for k in keys] if desync else keys, horizon
    )
    draws = env.noise.draws(keys)
    return tuple(
        interact(policy, env, draws, horizon, columns=("arm",))[0]["arm"] for policy in (es, phe)
    )


# ---------------------------------------------------------------------------
# Event-rate study
# ---------------------------------------------------------------------------


def estimate_event_rates(cfg: ExperimentConfig) -> dict:
    """``replications`` and the monitor report (:func:`monitor_report`)
    that ``linens run`` writes under the same diagnostics, over
    ``run.replications`` replications. Monitors run even when the
    configuration switches them off."""
    reps = cfg.run.replications
    if reps < 1:
        raise ValueError("run.replications must be at least 1")
    if cfg.run.diagnostics == "off":
        cfg = replace(cfg, run=replace(cfg.run, diagnostics="monitors"))
    records = _map_batches(partial(run_batch, cfg, trace=False), range(reps), cfg.run.workers)
    return {"replications": reps, **monitor_report(_pooled(records))}
