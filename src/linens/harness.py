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
checkpoint regret and counter totals for ``summary.json``, a tile at a
time (:func:`_score_tiles`); ``run`` also hands each tile to the writer
of ``trace.csv`` (:func:`emit_outputs`), which writes it whole. So a run
holds one batch's decisions at a time, and one tile's floats and text
under one bound, ``SCORE_VALUES``. The loop only decides, and a
monitor evaluates its steps a block at a time, at the block's end.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby, islice
from pathlib import Path

import numpy as np

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
#: scored from the arms as the trace is written (:func:`_score_tiles`).
STORED_COLUMNS = ("arm", "model")

#: Per-step monitor indicators, traced when diagnostics are on.
FLAG_COLUMNS = ("conc_ok", "anticonc_ok", "optimism_ok")

#: dtypes of the columns a record stores, the trace columns that are not
#: floats; these are written ``%d`` and the float ones ``%.17g``. Arm and
#: model indices fit int32: an instance or an ensemble of 2**31 rows could
#: not be held.
_COLUMN_DTYPES = {"arm": np.int32, "model": np.int32, **dict.fromkeys(FLAG_COLUMNS, bool)}

#: Most values, replications times steps, of a tile of :func:`_score_tiles`:
#: the one bound on what a run holds after its loop, a tile's floats and
#: its ``trace.csv`` text, flat in the batch width and the horizon.
SCORE_VALUES = 2**11

#: The paper's p = p_n / 4, of its regret bound and the ensemble-fraction check.
_OPTIMISM_P = p_n() / 4.0

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
    scores no regret (:func:`summarize` does, from the arms).
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
    ``min_ensemble_fraction``, those that reach ``_OPTIMISM_P``. No report
    reads ``elliptical_sum``, so it is left out."""
    for name, values in counters.items():
        if name == "min_ensemble_fraction":
            values = values >= _OPTIMISM_P
        if name != "elliptical_sum":
            totals[name] = totals.get(name, 0) + sum(values.tolist())


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
        report["ensemble_fraction_threshold"] = _OPTIMISM_P
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
            theoretical_regret_bound(gamma(params), _OPTIMISM_P, params)
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


def _score_tiles(env: LinearBanditEnv, arm: np.ndarray):
    """``(rows, steps, means, gap, cum)`` of each replication-major tile,
    ``max(1, SCORE_VALUES // T)`` rows by ``min(T, SCORE_VALUES)`` steps, of
    a batch's ``(R, T)`` arms on ``env``: its slices, one gather of its
    means (:meth:`~linens.envs.LinearBanditEnv.mean_reward`), and one
    :meth:`~linens.envs.RegretLedger.record` whose carry across a row's
    tiles gives the bits of one call. The one place arms are scored."""
    reps, horizon = arm.shape
    height, width = max(1, SCORE_VALUES // horizon), min(horizon, SCORE_VALUES)
    for top in range(0, reps, height):
        rows, ledger = slice(top, min(top + height, reps)), RegretLedger(env)
        for start in range(0, horizon, width):
            steps = slice(start, min(start + width, horizon))
            means = env.mean_reward(arm[rows, steps])
            yield (rows, steps, means, *ledger.record(means))


def summarize(cfg: ExperimentConfig, records, write=None) -> dict:
    """``summary.json``'s table (:func:`aggregate`) of a run's batch
    records, the one path of ``run``, ``sweep`` and ``rates``.

    ``records`` are the batch records of the run's ``run.replications``
    replications, in order and each once, as :func:`run_replications`
    yields them; a record that is not the next is refused as it is taken.
    Each batch's arms are scored once, one tile held at a time
    (:func:`_score_tiles`); only the checkpoints' regret and the counter
    totals (:func:`_tally`) are kept. ``write(rec)``, which only
    :func:`emit_outputs` passes, gives a function handed each tile."""
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
        write_tile = write(rec) if write is not None else None
        for rows, steps, means, gap, cum in _score_tiles(env, rec.columns["arm"]):
            run_rows = slice(written + rows.start, written + rows.stop)
            for k, t in enumerate(grid):
                if steps.start < t <= steps.stop:
                    regret[k, run_rows] = cum[:, t - 1 - steps.start]
            if write_tile is not None:
                write_tile(rows, steps, means, gap, cum)
            del means, gap, cum  # before the next tile is scored
        _tally(totals, rec.counters)
        written = held.stop
    if written != reps:
        raise ValueError(f"the records hold {written} of the run's {reps} replications")
    return aggregate(cfg, regret, totals)


@contextmanager
def staged(*paths: Path):
    """``.partial`` paths for ``paths``, all moved into place once the body
    ends and removed if it raises: a failed write leaves ``paths`` as is."""
    partials = [path.with_name(path.name + ".partial") for path in paths]
    try:
        yield partials
        for partial, path in zip(partials, paths):
            os.replace(partial, path)
    finally:
        for partial in partials:
            with suppress(OSError):
                partial.unlink()


def emit_outputs(records, cfg: ExperimentConfig, out_dir: str | Path) -> tuple[Path, Path]:
    """Write a run's trace CSV as :func:`summarize` scores its tiles, and
    its summary JSON; byte-stable for equal inputs. Both are moved into
    place once both are complete (:func:`staged`), so a failed run leaves
    earlier outputs as they were.

    ``trace.csv`` has the header ``replication,t,`` then ``TRACE_COLUMNS``
    and, with a monitor, ``FLAG_COLUMNS``; ints and flags are written
    ``%d`` and floats ``%.17g``, which round-trips. A record stores the
    int and flag columns; a tile gives the regret and, with one noise call
    (:meth:`~linens.envs.NoiseModel.values`), the reward the loop gave the
    policy bit for bit. Each tile is written whole, in replication-major
    order: each run of adjacent int and flag columns gives its texts with
    their leading commas (:func:`_row_texts`), and each float column its
    own (:func:`_float_texts`); the replication numbers, the run's one list
    of ``,t`` labels and those texts are joined and written once. So the
    writer holds one tile's texts, under the one bound ``SCORE_VALUES``:
    its memory grows with neither the batch width nor the ensemble size,
    and with the horizon only by the step labels."""
    out = Path(out_dir)
    trace_path, summary_path = out / "trace.csv", out / "summary.json"
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

    def record_writer(fh, rec):
        texts = [(k, _row_texts([rec.columns[n] for n in run], f)) for k, run, f in int_runs]
        seeds = replication_seeds(cfg, rec.replications)

        def write_tile(rows, steps, means, gap, cum):
            noise = env.noise.values(seeds[rows], np.arange(steps.start + 1, steps.stop + 1))
            floats = {"reward": means + noise, "instant_regret": gap, "cum_regret": cum}
            height, span = means.shape
            # every slot its replication's number, then all but the first overwritten
            tile_text = [s for r in rec.replications[rows] for s in [str(r)] * (width * span)]
            tile_text[1::width] = labels[steps] * height
            for k, text in texts:
                tile_text[k::width] = text(rows, steps)
            for k, name, fmt in float_runs:
                tile_text[k::width] = _float_texts(floats[name].ravel(), fmt)
            fh.write("".join(tile_text))

        return write_tile

    try:
        out.mkdir(parents=True, exist_ok=True)
        with staged(trace_path, summary_path) as (trace, summary), open(trace, "w") as fh:
            fh.write("replication,t," + ",".join(names) + "\n")
            table = summarize(cfg, records, partial(record_writer, fh))
            summary.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return trace_path, summary_path


def _distinct_texts(codes: np.ndarray, texts) -> list[str]:
    """``texts(codes)`` of a tile's int64 codes: a tile of distinct codes
    formatted in order, and a tile with repeats each distinct code once.
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


def _float_texts(values: np.ndarray, fmt: str) -> list[str]:
    """``fmt % v`` of each of a tile's 1-d float values, coded by its bits,
    so ``-0.0`` and ``0.0`` stay apart (:func:`_distinct_texts`)."""
    return _distinct_texts(
        values.view(np.int64), lambda codes: [fmt % v for v in codes.view(np.float64).tolist()]
    )


def _row_texts(columns: list[np.ndarray], formats: list[str]):
    """A function of a tile's ``(rows, steps)`` slices: its values in
    ``columns``, a run of ``(R, T)`` int or flag columns, each in its
    ``formats`` entry and joined, in replication-major order.

    Each value is one int64 code, the mixed-radix code of the run over its
    columns' ``[min, max]``, a tile's in one ``np.ravel_multi_index``. A
    run of at most ``min(T, SCORE_VALUES)`` codes formats each once into
    one table that every tile indexes; any other run formats each tile's
    codes (:func:`_distinct_texts`), so no table outgrows a tile."""
    lows = [int(column.min()) for column in columns]
    spans = [int(column.max()) - low + 1 for column, low in zip(columns, lows)]

    def code(rows: slice, steps: slice) -> np.ndarray:
        digits = [c[rows, steps] - low for c, low in zip(columns, lows)]
        return np.ravel_multi_index(digits, spans).ravel()

    def texts(codes: np.ndarray) -> list[str]:
        digits = [(d + low).tolist() for d, low in zip(np.unravel_index(codes, spans), lows)]
        return ["".join(f % v for f, v in zip(formats, value)) for value in zip(*digits)]

    if math.prod(spans) <= min(columns[0].shape[-1], SCORE_VALUES):
        table = np.array(texts(np.arange(math.prod(spans))), dtype=object)
        return lambda rows, steps: table[code(rows, steps)].tolist()
    return lambda rows, steps: _distinct_texts(code(rows, steps), texts)


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
