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
``sweep``, ``rates`` and ``equivalence`` all go through it and read the
batches as they end (:func:`run_replications`); ``run.workers`` only maps
the fixed batches over a process pool, so no output depends on it. A
batch's results stay arrays, one :class:`RunRecord` per batch: the
``(R, T)`` decisions and monitor flags, and ``(R,)`` counters. One path,
:func:`summarize`, scores each batch's regret from its arms and keeps its
checkpoint regret and counter totals for ``summary.json``; ``run`` also
appends its rows to ``trace.csv``, a chunk of ``WRITE_ROWS`` steps at a
time (:func:`emit_outputs`), so a run holds one batch's decisions at a
time and one chunk's texts. The loop only decides, and a monitor
evaluates its steps a block at a time, at the block's end.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby, islice
from pathlib import Path

import numpy as np

from . import perturb
from .config import BOUNDED_POLICIES, ExperimentConfig
from .diagnostics import StepMonitor, theoretical_regret_bound
from .envs import LinearBanditEnv, RegretLedger
from .perturb import TAG_REPLICATION, StepDraws, _fold_array, gamma, p_n, seed_prefixes
from .policies import EnsembleSampling, PerturbedHistoryReplay, Sampler

#: Most replications stepped together in one lockstep batch.
BATCH_SIZE = 256

#: Per-step trace columns of a replication, in ``trace.csv`` order.
TRACE_COLUMNS = ("arm", "model", "reward", "instant_regret", "cum_regret")

#: The trace columns a record stores, what the run decided; the others are
#: derived from the arms as the trace is written (:func:`derived_rows`).
STORED_COLUMNS = ("arm", "model")

#: Per-step monitor indicators, traced when diagnostics are on.
FLAG_COLUMNS = ("conc_ok", "anticonc_ok", "optimism_ok")

#: dtypes of the columns a record stores, the trace columns that are not
#: floats; these are written ``%d`` and the float ones ``%.17g``. Arm and
#: model indices fit int32: an instance or an ensemble of 2**31 rows could
#: not be held.
_COLUMN_DTYPES = {"arm": np.int32, "model": np.int32, **dict.fromkeys(FLAG_COLUMNS, bool)}

#: Steps of a replication whose ``trace.csv`` rows the writer joins and
#: writes at a time (:func:`emit_outputs`): the measured knee, since shorter
#: chunks cost time and longer ones only memory.
WRITE_ROWS = 512

#: Most values, replications times steps, that :func:`summarize` scores at a
#: time: a block of a batch's regret, whose memory is flat in its width.
SCORE_VALUES = 2**11

#: Run settings that say where and how to run an experiment, not what it
#: is; ``summary.json`` leaves them out of its config echo so that its bytes
#: depend on the experiment alone.
_UNECHOED_RUN_KEYS = ("out_dir", "workers")


@dataclass
class RunRecord:
    """One lockstep batch's results. Row i of every array is replication
    ``replications[i]``: ``columns`` maps each stored trace column (of
    ``STORED_COLUMNS``, and of ``FLAG_COLUMNS`` with a monitor) to an
    ``(R, T)`` array (step ``t = 1..T`` in column ``t - 1``), 11 bytes a
    step with the flags; and ``counters`` maps the monitor's counters
    (:meth:`~linens.diagnostics.StepMonitor.counters`), if any, to
    ``(R,)`` arrays, which a run tallies (:func:`_tally`)."""

    replications: range
    columns: dict
    counters: dict


def batches(replications: range):
    """Contiguous blocks of at most ``BATCH_SIZE`` replication indices, in
    order, each made as it is taken, so none is held before or after."""
    return (replications[i : i + BATCH_SIZE] for i in range(0, len(replications), BATCH_SIZE))


def _map_batches(fn, items: range, workers: int):
    """``fn`` over the fixed batches of ``items``, yielded in order; across
    processes when ``workers > 1``, with at most ``workers`` batches in
    flight: the next is submitted as one is taken, so the parent never
    holds more records than that. Workers are spawned, not forked: the
    parent may hold BLAS threads. The process pool is imported only here,
    where it is used."""
    blocks = batches(items)
    if workers > 1 and len(items) > BATCH_SIZE:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        most = min(workers, math.ceil(len(items) / BATCH_SIZE))
        with ProcessPoolExecutor(max_workers=most, mp_context=get_context("spawn")) as pool:
            pending = deque(pool.submit(fn, block) for block in islice(blocks, workers))
            for block in blocks:
                result = pending.popleft().result()
                pending.append(pool.submit(fn, block))
                yield result
            while pending:
                yield pending.popleft().result()
    else:
        for block in blocks:
            yield fn(block)


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
) -> dict:
    """The interaction loop: step a batched policy for ``horizon`` steps.

    Each step selects an arm per replication, gathers its vector and mean
    reward once, lets the monitor (if any) record the pre-step state, adds
    the noise of the step (``noise.at(t)``, one value per replication, from
    :meth:`~linens.envs.NoiseModel.draws`) and updates the policy. It
    scores no regret (:func:`summarize` and :func:`derived_rows` do).
    A monitor evaluates its steps (``flush``) at the end of each block of
    its ``block_length`` steps and at the last step, and its flags are
    written at the block's steps.

    Returns the stored trace columns (``STORED_COLUMNS``, and
    ``FLAG_COLUMNS`` with a monitor), each ``(R, horizon)``.
    """
    names = STORED_COLUMNS + (FLAG_COLUMNS if monitor is not None else ())
    cols = {name: np.empty((policy.batch, horizon), dtype=_COLUMN_DTYPES[name]) for name in names}
    arms = env.arms
    block = monitor.block_length(policy) if monitor is not None else 0
    for i in range(horizon):
        sel = policy.select(arms)
        x, mean = env.pull(sel.arm_index)
        if monitor is not None:
            monitor.observe(policy, sel, x)
        policy.update(x, mean + noise.at(i + 1)[:, 0])
        cols["arm"][:, i] = sel.arm_index
        cols["model"][:, i] = sel.model_index
        if block and ((i + 1) % block == 0 or i + 1 == horizon):
            diag = monitor.flush()
            oks = (diag.concentration_ok, diag.anti_conc_ok, diag.optimism_ok)
            for name, ok in zip(FLAG_COLUMNS, oks):
                cols[name][:, i + 1 - len(diag) : i + 1] = ok.T
    return cols


def run_batch(cfg: ExperimentConfig, replications: range) -> RunRecord:
    """Run a block of replications in lockstep; each row is deterministic
    in (config, replication) whatever the block. Without a monitor the
    record carries no flags and no counters."""
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
    cols = interact(policy, env, noise, cfg.run.horizon, monitor)
    return RunRecord(replications, cols, monitor.counters() if monitor is not None else {})


def run_replications(cfg: ExperimentConfig, replications: range):
    """Run replications in their fixed batches, mapped over ``run.workers``:
    one record per batch, yielded in replication order as each batch ends
    (:func:`_map_batches`)."""
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


def _tally(totals: dict, counters: dict) -> None:
    """Add a batch's ``(R,)`` counters into ``totals``, exact Python ints:
    each count's sum, each indicator's replications that hold and, of
    ``min_ensemble_fraction``, those that reach ``p_n() / 4``. No report
    reads ``elliptical_sum``, so it is left out."""
    for name, values in counters.items():
        if name == "min_ensemble_fraction":
            values = values >= p_n() / 4.0
        if name != "elliptical_sum":
            totals[name] = totals.get(name, 0) + sum(values.tolist())


def derived_rows(
    env: LinearBanditEnv,
    seed: int,
    arm: np.ndarray,
    first: int = 1,
    ledger: RegretLedger | None = None,
) -> dict:
    """The float trace rows of a replication of seed ``seed`` that pulled
    ``arm``, its arm indices of ``len(arm)`` consecutive steps from step
    ``first``, on the shared instance ``env``: ``reward``, each step's mean
    reward plus its keyed noise
    (:meth:`~linens.envs.LinearBanditEnv.sample_reward`), and
    ``instant_regret`` and ``cum_regret``, the gaps and running sums that
    ``ledger`` records on from the steps before, or a fresh
    :class:`~linens.envs.RegretLedger` from +0.0. So a replication derived
    a block of steps at a time through one ledger has the bits of one call
    over all its steps. The loop adds the same noise of each step, so
    ``reward`` is what the policy received bit for bit."""
    gap, cum = (ledger or RegretLedger(env)).record(env.pull(arm)[1][None])
    reward = env.sample_reward(arm, seed, np.arange(first, first + len(arm)))
    return {"reward": reward, "instant_regret": gap[0], "cum_regret": cum[0]}


def monitor_report(totals: dict, replications: int) -> dict:
    """The one monitor report of ``run`` and ``rates``, built from the
    totals of ``replications`` replications (:func:`_tally`); README lists
    its fields. Each rate is a Python int over an int."""
    total_checks = totals["checks"]
    # the monitor leaves out elliptical_ok where the cap does not apply
    elliptical = "elliptical_ok" in totals
    report = {
        "all_concentrated_rate": totals["all_concentrated"] / replications,
        "concentration_rate": 1.0 - totals["concentration_failures"] / total_checks,
        "perturb_concentration_rate": 1.0
        - totals["perturb_concentration_failures"] / total_checks,
        "anti_conc_rate": totals["anti_conc_hits"] / total_checks,
        "optimism_rate": totals["optimism_hits"] / total_checks,
        "total_checks": total_checks,
        "elliptical_pass_rate": totals["elliptical_ok"] / replications if elliptical else None,
    }
    if not elliptical:
        report["elliptical_note"] = (
            "disabled: the elliptical-potential cap presumes policy.lambda >= 1"
        )
    if "min_ensemble_fraction" in totals:
        report["ensemble_fraction_threshold"] = p_n() / 4.0
        report["min_ensemble_fraction_pass_rate"] = totals["min_ensemble_fraction"] / replications
    return report


def aggregate(cfg: ExperimentConfig, regret, totals: dict) -> dict:
    """``summary.json``'s table from the cumulative regret at each
    checkpoint, one ``(N,)`` row per checkpoint of ``checkpoints(T)``
    (each in replication order), and the counter totals (:func:`_tally`).
    Its ``monitors`` is the monitor report (:func:`monitor_report`), or
    ``"disabled"`` when no monitor ran. Its medians and q10/q90 are
    numpy's, read off one sort of a row at a time (:func:`_quantile`)."""
    params = cfg.confidence_params()
    n = len(regret[0])
    keys = ("t", "mean", "median", "q10", "q90")
    per_checkpoint = []
    for t, column in zip(checkpoints(cfg.run.horizon), regret):
        ranked = np.sort(column)
        # np.median is the mean of the middle values, whose sum starts at +0.0
        median = ranked[n // 2] + 0.0 if n % 2 else (0.0 + ranked[n // 2 - 1] + ranked[n // 2]) / 2
        values = np.mean(column), median, _quantile(ranked, 0.10), _quantile(ranked, 0.90)
        per_checkpoint.append(dict(zip(keys, (t, *map(float, values)))))
    config = cfg.to_dict()
    for key in _UNECHOED_RUN_KEYS:
        del config["run"][key]
    summary = {
        "config": config,
        "resolved_m": cfg.resolved_ensemble_size() if cfg.reads("m") else None,
        "resolved_scale": cfg.perturbation_spec().scale if cfg.reads("scale_mode") else None,
        "replications": n,
        "checkpoints": per_checkpoint,
        "theoretical_regret_bound": (
            theoretical_regret_bound(gamma(params), p_n() / 4.0, params)
            if cfg.policy.name in BOUNDED_POLICIES
            else None
        ),
    }
    # a switched-off monitor says so rather than leave its key out
    summary["monitors"] = monitor_report(totals, n) if "checks" in totals else "disabled"
    return summary


def _quantile(ranked: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(col, q)`` of a sorted column ``ranked``, or of each
    sorted column of a 2-d ``ranked``, bit for bit: numpy's ``_lerp`` at
    ``v = (n - 1) * q``, whose neighbours at the last index both clip to
    it, weighed ``v + 1``."""
    last = len(ranked) - 1
    v = last * q
    lo = min(int(v), last)
    g = v + 1 if lo == last else v - lo
    a, b = ranked[lo], ranked[min(lo + 1, last)]
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def summarize(cfg: ExperimentConfig, records) -> dict:
    """``summary.json``'s table (:func:`aggregate`) of a run's batch
    records, the one path of ``run``, ``sweep`` and ``rates``.

    ``records`` are the batch records of the run's ``run.replications``
    replications, in order and each once, as :func:`run_replications`
    yields them; a record that is not the next is refused as it is taken.
    Each batch's regret is scored from its arms through one
    :class:`~linens.envs.RegretLedger`, ``SCORE_VALUES`` values at a time
    up to each checkpoint, and only its checkpoint regret and counter
    totals (:func:`_tally`) are kept."""
    reps, horizon = cfg.run.replications, cfg.run.horizon
    if reps < 1:
        raise ValueError("run.replications must be at least 1")
    env, grid = cfg.environment(), checkpoints(horizon)
    regret, totals, written = np.empty((len(grid), reps)), {}, 0
    for rec in records:
        held = rec.replications
        if not held or held != range(written, held.stop) or held.stop > reps:
            msg = f"after {written} of the run's {reps} replications, a record holds {held}"
            raise ValueError(msg + ": records hold them in order, each once")
        ledger, block, done = RegretLedger(env), max(1, SCORE_VALUES // len(held)), 0
        for k, t in enumerate(grid):
            for start in range(done, t, block):
                ledger.record(env.pull(rec.columns["arm"][:, start : min(start + block, t)])[1])
            regret[k, written : held.stop], done = ledger.cumulative, t
        _tally(totals, rec.counters)
        written = held.stop
    if written != reps:
        raise ValueError(f"the records hold {written} of the run's {reps} replications")
    return aggregate(cfg, regret, totals)


def emit_outputs(records, cfg: ExperimentConfig, out_dir: str | Path) -> tuple[Path, Path]:
    """Write a run's trace CSV as its batches end and its summary JSON
    (:func:`summarize`) last; byte-stable for equal inputs.

    Each record passes through :func:`summarize`, which refuses one that
    is not the run's next, before its rows are appended to ``trace.csv``,
    written under a temporary name in ``out_dir`` and moved into place
    after its last row, so a failed run leaves earlier outputs as they were.

    ``trace.csv`` has the header ``replication,t,`` then ``TRACE_COLUMNS``
    and, with a monitor, ``FLAG_COLUMNS``; ints and flags are written
    ``%d`` and floats ``%.17g``, which round-trips. A record stores the
    int and flag columns; the float rows of each replication are derived
    from its arms on the config's shared instance, a block of at most
    ``perturb.DRAW_VALUES`` steps at a time through one ledger
    (:func:`_derived_chunks`). Each replication is written ``WRITE_ROWS``
    steps at a time: each run of adjacent int and flag columns gives the
    chunk's texts with their leading commas from the batch's columns
    (:func:`_row_texts`), and each float row its own
    (:func:`_float_texts`); the replication's number, the run's one list
    of ``,t`` labels and those texts are joined and written once. So the
    writer holds one chunk's texts and one block's floats, and its memory
    grows with neither the batch width nor the ensemble size, and with the
    horizon only by the step labels."""
    out = Path(out_dir)
    trace_path, summary_path = out / "trace.csv", out / "summary.json"
    partial_path = out / "trace.csv.partial"
    env = cfg.environment()
    names = TRACE_COLUMNS + (FLAG_COLUMNS if cfg.run.diagnostics != "off" else ())
    # adjacent int and flag columns make one run, and each float column its own
    runs = [list(run) for _, run in groupby(names, lambda name: name in _COLUMN_DTYPES or name)]
    fmts = [[",%d" if name in _COLUMN_DTYPES else ",%.17g" for name in run] for run in runs]
    fmts[-1][-1] += "\n"
    width = 2 + len(runs)  # the replication, the step, then each run
    # (position in a row, names, formats) of each run: int and flag, float
    placed = list(zip(range(2, width), runs, fmts))
    int_runs = [(k, run, fmt) for k, run, fmt in placed if run[0] in _COLUMN_DTYPES]
    float_runs = [(k, run[0], fmt[0]) for k, run, fmt in placed if run[0] not in _COLUMN_DTYPES]
    labels = [f",{t}" for t in range(1, cfg.run.horizon + 1)]

    def summarized_then_written(fh):
        for rec in records:
            yield rec
            texts = [(k, _row_texts([rec.columns[n] for n in run], f)) for k, run, f in int_runs]
            seeds = replication_seeds(cfg, rec.replications)
            for i, (rep, seed) in enumerate(zip(rec.replications, seeds)):
                label = str(rep)
                for steps, rows in _derived_chunks(env, seed, rec.columns["arm"][i]):
                    # every slot the label, then all but the first overwritten
                    row_text = [label] * (width * (steps.stop - steps.start))
                    row_text[1::width] = labels[steps]
                    for k, text in texts:
                        row_text[k::width] = text(i, steps)
                    for k, name, fmt in float_runs:
                        row_text[k::width] = _float_texts(rows[name], fmt)
                    fh.write("".join(row_text))

    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(partial_path, "w") as fh:
            fh.write("replication,t," + ",".join(names) + "\n")
            summary = summarize(cfg, summarized_then_written(fh))
        os.replace(partial_path, trace_path)
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    finally:
        with suppress(OSError):
            partial_path.unlink()
    return trace_path, summary_path


def _derived_chunks(env: LinearBanditEnv, seed: int, arm: np.ndarray):
    """A replication's float rows (:func:`derived_rows`) of its ``(T,)``
    arms, a chunk of at most ``WRITE_ROWS`` steps at a time: ``(steps,
    rows)`` of each chunk, ``steps`` its slice of the T steps. The rows are
    derived in blocks of at most ``perturb.DRAW_VALUES`` steps through one
    :class:`~linens.envs.RegretLedger`, whose carry gives the bits of one
    pass."""
    ledger = RegretLedger(env)
    for start in range(0, len(arm), perturb.DRAW_VALUES):
        stop = min(start + perturb.DRAW_VALUES, len(arm))
        block = derived_rows(env, seed, arm[start:stop], start + 1, ledger)
        for lo in range(start, stop, WRITE_ROWS):
            hi = min(lo + WRITE_ROWS, stop)
            yield slice(lo, hi), {name: row[lo - start : hi - start] for name, row in block.items()}


def _distinct_texts(codes: np.ndarray, texts) -> list[str]:
    """``texts(codes)`` of a chunk's int64 codes: a chunk of distinct codes
    formatted in order, and a chunk with repeats each distinct code once.
    This is ``np.unique(codes, return_inverse=True)``'s sort without its
    argument handling, which cost as much as the sort on 512 codes."""
    order = codes.argsort()
    ranked = codes[order]
    fresh = np.empty(len(codes), dtype=bool)
    fresh[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    if fresh.all():
        return texts(codes)
    inverse = np.empty(len(codes), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return np.array(texts(ranked[fresh]), dtype=object)[inverse].tolist()


def _float_texts(row: np.ndarray, fmt: str) -> list[str]:
    """``fmt % v`` of each value of a float row. Each value is coded by its
    bits, so ``-0.0`` and ``0.0`` stay apart (:func:`_distinct_texts`)."""
    return _distinct_texts(
        row.view(np.int64), lambda codes: [fmt % v for v in codes.view(np.float64).tolist()]
    )


def _row_texts(columns: list[np.ndarray], formats: list[str]):
    """A function of a row index i and a slice of steps that gives each of
    those steps' values in row i of ``columns``, a run of ``(R, T)`` int or
    flag columns, each in its ``formats`` entry and joined.

    Each step is one int64 code, the mixed-radix code of the run over its
    columns' ``[min, max]``. A run of at most one chunk's codes (``T`` or
    ``WRITE_ROWS`` steps, the fewer) formats each code once into one table
    that every row indexes. Any other run formats the codes of each row's
    slice (:func:`_distinct_texts`), so no table outgrows a chunk."""
    lows = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]

    def code(i: int, steps: slice) -> np.ndarray:
        return np.ravel_multi_index([c[i, steps] - low for c, low in zip(columns, lows)], spans)

    def texts(codes: np.ndarray) -> list[str]:
        digits = [(d + low).tolist() for d, low in zip(np.unravel_index(codes, spans), lows)]
        return ["".join(f % v for f, v in zip(formats, value)) for value in zip(*digits)]

    if math.prod(spans) <= min(columns[0].shape[-1], WRITE_ROWS):
        table = np.array(texts(np.arange(math.prod(spans))), dtype=object)
        return lambda i, steps: table[code(i, steps)].tolist()
    return lambda i, steps: _distinct_texts(code(i, steps), texts)


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
    Each seed runs on its own random instance, so a config that gives
    ``env.arms`` is rejected rather than silently replaced. The suite reads
    the fields that ``ExperimentConfig.reads(key, "equivalence")`` names.
    """
    n_seeds = cfg.run.replications
    if n_seeds < 1:
        # an unvalidated config must not pass vacuously, 0/0
        raise ValueError("run.replications must be at least 1")
    if cfg.env.arms:
        raise ValueError(
            "the equivalence suite draws random instances (one per seed, from "
            "env.dim and env.arm_count); it cannot run on the given env.arms"
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
    return tuple(interact(policy, env, draws, horizon)["arm"] for policy in (es, phe))


# ---------------------------------------------------------------------------
# Event-rate study
# ---------------------------------------------------------------------------


def estimate_event_rates(cfg: ExperimentConfig) -> dict:
    """``replications`` and the monitor report (:func:`monitor_report`)
    that ``linens run`` writes under the same diagnostics, over
    ``run.replications`` replications (:func:`summarize`). Monitors run
    even when the config switches them off."""
    if cfg.run.diagnostics == "off":
        cfg = replace(cfg, run=replace(cfg.run, diagnostics="monitors"))
    report = summarize(cfg, run_replications(cfg, range(cfg.run.replications)))["monitors"]
    return {"replications": cfg.run.replications, **report}
