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
batch's results stay arrays, one :class:`RunRecord` per batch: ``(R, T)``
trace columns and ``(R,)`` counters. ``run`` appends each batch's rows to
``trace.csv`` as the batch ends and keeps only its checkpoint regret and
counters for the summary (:func:`emit_outputs`), so a run holds one batch's
trace at a time. Bookkeeping that no decision reads stays off the per-step
path: the loop ends a block of steps in one place, where it scores the
regret and evaluates the monitor.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from contextlib import suppress
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

#: The trace columns a record stores: ``instant_regret`` is read off the
#: record's gap table by the pulled arm (:class:`RunRecord`).
STORED_COLUMNS = ("arm", "model", "reward", "cum_regret")

#: Per-step monitor indicators, traced when diagnostics are on.
FLAG_COLUMNS = ("conc_ok", "anticonc_ok", "optimism_ok")

#: dtypes of the trace columns that are not floats; these are written
#: ``%d`` and the float ones ``%.17g``. Arm and model indices fit int32: an
#: instance or an ensemble of 2**31 rows could not be held.
_COLUMN_DTYPES = {"arm": np.int32, "model": np.int32, **dict.fromkeys(FLAG_COLUMNS, bool)}

#: Run settings that say where and how to run an experiment, not what it
#: is; ``summary.json`` leaves them out of its config echo so that its bytes
#: depend on the experiment alone.
_UNECHOED_RUN_KEYS = ("out_dir", "workers")


@dataclass
class RunRecord:
    """One lockstep batch's results. Row i of every array is replication
    ``replications[i]``: ``columns`` maps each stored trace column (of
    ``STORED_COLUMNS``, and of ``FLAG_COLUMNS`` with a monitor) to an
    ``(R, T)`` array (step ``t = 1..T`` in column ``t - 1``), 27 bytes a
    step with the flags; ``counters`` maps ``final_regret`` and the
    monitor's counters (:meth:`~linens.diagnostics.StepMonitor.counters`)
    to ``(R,)`` arrays; and ``gaps`` is the ``(K,)`` regret of pulling each
    arm, ``optimal_value - means``, the subtraction
    :class:`~linens.envs.RegretLedger` scores, so a step's
    ``instant_regret`` is ``gaps[arm]``."""

    replications: range
    columns: dict
    counters: dict
    gaps: np.ndarray


def batches(replications: range) -> list[range]:
    """Contiguous blocks of at most ``BATCH_SIZE`` replication indices."""
    return [
        replications[i : i + BATCH_SIZE] for i in range(0, len(replications), BATCH_SIZE)
    ]


def _map_batches(fn, items: range, workers: int):
    """``fn`` over the fixed batches of ``items``, yielded in order; across
    processes when ``workers > 1``, with at most ``workers`` batches in
    flight: the next is submitted as one is taken, so the parent never
    holds more records than that. Workers are spawned, not forked: the
    parent may hold BLAS threads. The process pool is imported only here,
    where it is used."""
    blocks = batches(items)
    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)), mp_context=get_context("spawn")
        ) as pool:
            pending = deque(pool.submit(fn, block) for block in blocks[:workers])
            for block in blocks[workers:]:
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
    columns: tuple = STORED_COLUMNS,
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
    ``STORED_COLUMNS``, and of ``FLAG_COLUMNS`` with a monitor), each
    ``(R, horizon)``, and the final cumulative regret of each replication.
    """
    shape = (policy.batch, horizon)
    cols = {name: np.empty(shape, dtype=_COLUMN_DTYPES.get(name, float)) for name in columns}
    # (position in a step's (arm, model, reward), column) of each traced one
    traced = [(k, cols[name]) for k, name in enumerate(STORED_COLUMNS[:3]) if name in cols]
    cum = cols.get("cum_regret")
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
        _, sums = ledger.record(block)
        if cum is not None:
            cum[:, at.start : at.stop] = sums
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
    columns = STORED_COLUMNS + (FLAG_COLUMNS if monitor is not None else ()) if trace else ()
    cols, regret = interact(policy, env, noise, cfg.run.horizon, monitor, columns)
    counters = {"final_regret": regret}
    if monitor is not None:
        counters.update(monitor.counters())
    gaps = env.optimal_value - env.pull(np.arange(env.arm_count))[1]
    return RunRecord(replications, cols, counters, gaps)


def run_replications(cfg: ExperimentConfig, replications: range, trace: bool = True):
    """Run replications in their fixed batches, mapped over ``run.workers``:
    one record per batch, yielded in replication order as each batch ends
    (:func:`_map_batches`). Without ``trace`` the records carry counters
    only."""
    return _map_batches(partial(run_batch, cfg, trace=trace), replications, cfg.run.workers)


def checkpoints(horizon: int) -> list[int]:
    """Geometric grid 1, 2, 4, ... capped and closed at the horizon."""
    grid = []
    t = 1
    while t < horizon:
        grid.append(t)
        t *= 2
    grid.append(horizon)
    return grid


def _pooled(counters: list[dict]) -> dict:
    """Each counter of the batches' ``counters``, concatenated in
    replication order: name -> ``(N,)``."""
    return {name: np.concatenate([c[name] for c in counters]) for name in counters[0]}


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


def aggregate(cfg: ExperimentConfig, regret: np.ndarray, counters: dict) -> dict:
    """``summary.json``'s table from each replication's cumulative regret
    at the checkpoints (``(N, len(checkpoints(T)))``, in replication
    order) and the pooled counters (:func:`_pooled`). Its ``monitors`` is
    the monitor report (:func:`monitor_report`), or ``"disabled"`` when no
    monitor ran. Its medians and q10/q90 are numpy's, read off one sort
    (:func:`_quantile`)."""
    params = cfg.confidence_params()
    grid = checkpoints(cfg.run.horizon)
    ranked = np.sort(regret, axis=0)
    n = len(regret)
    # np.median is the mean of the middle values, whose sum starts at +0.0
    median = ranked[n // 2] + 0.0 if n % 2 else (0.0 + ranked[n // 2 - 1] + ranked[n // 2]) / 2
    quantiles = _quantile(ranked, 0.10), _quantile(ranked, 0.90)
    stats = zip(grid, map(np.mean, regret.T), median, *quantiles)
    keys = ("t", "mean", "median", "q10", "q90")
    per_checkpoint = [dict(zip(keys, (t, *map(float, values)))) for t, *values in stats]
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


def emit_outputs(records, cfg: ExperimentConfig, out_dir: str | Path) -> tuple[Path, Path]:
    """Write a run's trace CSV as its batches end and its summary JSON
    last; byte-stable for equal inputs.

    ``records`` are the run's batch records in replication order, as
    :func:`run_replications` yields them. Each batch's rows are appended
    to ``trace.csv`` as it arrives, and only its cumulative regret at the
    checkpoints and its counters are kept, for :func:`aggregate`, so the
    run holds one batch's trace at a time. ``trace.csv`` is written under
    a temporary name in ``out_dir`` and moved into place after its last
    row, so a run that fails leaves an earlier run's outputs as they were.

    ``trace.csv`` has the header ``replication,t,`` then ``TRACE_COLUMNS``
    and, with a monitor, ``FLAG_COLUMNS``; ints and flags are written
    ``%d`` and floats ``%.17g``, which round-trips. A row's
    ``instant_regret`` is the record's gap of each step's arm
    (:class:`RunRecord`). Each batch is written one replication at a time:
    each float column and each run of adjacent int and flag columns gives
    a row's texts with their leading commas (:func:`_row_texts`, which
    holds at most one row's texts, so memory grows with neither the batch
    width nor the ensemble size), and the replication's number, the shared
    ``,t`` and those texts are joined once."""
    out = Path(out_dir)
    trace_path, summary_path = out / "trace.csv", out / "summary.json"
    partial_path = out / "trace.csv.partial"
    horizon = cfg.run.horizon
    names = TRACE_COLUMNS + (FLAG_COLUMNS if cfg.run.diagnostics != "off" else ())
    # adjacent int and flag columns make one run, and each float column its own
    runs = [list(run) for _, run in groupby(names, lambda name: name in _COLUMN_DTYPES or name)]
    fmts = [[",%d" if name in _COLUMN_DTYPES else ",%.17g" for name in run] for run in runs]
    fmts[-1][-1] += "\n"
    width = 2 + len(runs)  # the replication, the step, then each run
    row_text = [None] * (width * horizon)
    row_text[1::width] = [f",{t}" for t in range(1, horizon + 1)]
    grid = np.array(checkpoints(horizon)) - 1
    regret, counters = [], []
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(partial_path, "w") as fh:
            fh.write("replication,t," + ",".join(names) + "\n")
            for rec in records:
                columns = {**rec.columns, "instant_regret": _GapRows(rec.gaps, rec.columns["arm"])}
                texts = [_row_texts([columns[n] for n in r], f) for r, f in zip(runs, fmts)]
                for i, rep in enumerate(rec.replications):
                    row_text[::width] = [str(rep)] * horizon
                    for k, text in enumerate(texts, start=2):
                        row_text[k::width] = text(i)
                    fh.write("".join(row_text))
                regret.append(rec.columns["cum_regret"][:, grid])
                counters.append(rec.counters)
        summary = aggregate(cfg, np.concatenate(regret), _pooled(counters))
        os.replace(partial_path, trace_path)
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    finally:
        with suppress(OSError):
            partial_path.unlink()
    return trace_path, summary_path


class _GapRows:
    """A record's ``instant_regret`` as an ``(R, T)`` float column that is
    read one row at a time: row i is ``gaps[arm[i]]``."""

    dtype = np.dtype(np.float64)

    def __init__(self, gaps: np.ndarray, arm: np.ndarray):
        self.gaps, self.arm = gaps, arm

    def __getitem__(self, i: int) -> np.ndarray:
        return self.gaps[self.arm[i]]


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
    records = run_replications(cfg, range(reps), trace=False)
    return {"replications": reps, **monitor_report(_pooled([rec.counters for rec in records]))}
