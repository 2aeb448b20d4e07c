"""Experiment orchestration.

Builds environments and policies from a configuration, runs seeded
Monte-Carlo replications (serially or in a process pool), aggregates
regret curves and monitor rates, and persists traces and summaries.
Everything downstream of ``(config, base_seed)`` is deterministic;
replication seeds derive from the base seed through a fixed 64-bit
mixing function (see :func:`linens.perturb.mix_key`).
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .diagnostics import StepMonitor, theoretical_regret_bound
from .envs import LinearBanditEnv, NoiseModel, RegretLedger
from .perturb import (
    TAG_ENV,
    TAG_NOISE,
    TAG_POLICY,
    TAG_REPLICATION,
    ConfidenceParams,
    PerturbationSpec,
    PerturbationStream,
    beta,
    ensemble_size,
    gamma,
    keyed_generator,
    mix_key,
    p_n,
)
from .policies import (
    EnsembleSampling,
    GreedyRidge,
    LinPHE,
    LinTS,
    LinUCB,
    Sampler,
)

_FLOAT_FMT = "%.17g"


@dataclass
class RunRecord:
    """One replication's full trace and summary counters."""

    replication: int
    steps: list
    summary: dict
    wall_time: float = 0.0


def build_environment(cfg: ExperimentConfig) -> LinearBanditEnv:
    """Environment fixed for the whole experiment, seeded from the base seed."""
    e = cfg.env
    noise = NoiseModel(e.noise_family, e.sigma)
    if e.arm_mode == "explicit":
        return LinearBanditEnv(
            np.asarray(e.arms, dtype=np.float64),
            np.asarray(e.theta_star, dtype=np.float64),
            noise,
            e.s_bound,
        )
    rng = keyed_generator(cfg.run.base_seed, TAG_ENV)
    return LinearBanditEnv.random(e.dim, e.arm_count, noise, e.s_bound, rng)


def confidence_params(cfg: ExperimentConfig, env: LinearBanditEnv) -> ConfidenceParams:
    return ConfidenceParams(
        sigma=cfg.env.sigma,
        lam=cfg.policy.lam,
        s_bound=cfg.env.s_bound,
        dim=env.dim,
        horizon=cfg.run.horizon,
        delta=cfg.policy.delta,
    )


def resolve_scale(cfg: ExperimentConfig, params: ConfidenceParams) -> float:
    if cfg.policy.scale_mode == "auto":
        return beta(params, params.horizon)
    return cfg.policy.scale


def resolve_ensemble_size(cfg: ExperimentConfig, params: ConfidenceParams) -> int:
    if cfg.policy.m == "auto":
        return ensemble_size(params, cfg.env.arm_count)
    return int(cfg.policy.m)


def build_policy(
    cfg: ExperimentConfig,
    env: LinearBanditEnv,
    params: ConfidenceParams,
    replication: int,
):
    p = cfg.policy
    base_seed = cfg.run.base_seed
    scale = resolve_scale(cfg, params)
    spec = PerturbationSpec(p.family, scale)
    stream = PerturbationStream(
        mix_key(base_seed, TAG_REPLICATION, replication), keying=p.keying
    )
    if p.name == "ensemble":
        model_rng = keyed_generator(base_seed, TAG_POLICY, replication)
        return EnsembleSampling(
            env.dim,
            p.lam,
            resolve_ensemble_size(cfg, params),
            spec,
            stream,
            sampler=p.sampler,
            model_rng=model_rng,
        )
    if p.name == "phe":
        return LinPHE(env.dim, p.lam, spec, stream)
    if p.name == "linucb":
        if p.linucb_bonus is not None:
            return LinUCB(env.dim, p.lam, bonus=p.linucb_bonus)
        return LinUCB(env.dim, p.lam, params=params)
    if p.name == "lints":
        rng = keyed_generator(base_seed, TAG_POLICY, replication)
        lints_scale = p.lints_scale if p.lints_scale is not None else scale
        return LinTS(env.dim, p.lam, lints_scale, rng)
    if p.name == "greedy":
        return GreedyRidge(env.dim, p.lam)
    raise ValueError(f"unknown policy {p.name!r}")


def run_replication(cfg: ExperimentConfig, replication: int) -> RunRecord:
    """Execute one full interaction; deterministic in (config, replication)."""
    start = time.perf_counter()
    env = build_environment(cfg)
    params = confidence_params(cfg, env)
    if env.dim != cfg.env.dim:
        raise ValueError("environment dimension does not match configuration")
    policy = build_policy(cfg, env, params, replication)
    noise_rng = keyed_generator(cfg.run.base_seed, TAG_NOISE, replication)
    diagnostics = cfg.run.diagnostics
    monitor = None
    if diagnostics != "off":
        monitor = StepMonitor(
            env, params, track_ensemble_fraction=(diagnostics == "full-trace")
        )
    ledger = RegretLedger(env)
    steps = []
    arms = env.arms
    for _ in range(cfg.run.horizon):
        sel = policy.select(arms)
        diag = monitor.observe(policy, sel, arms) if monitor else None
        y = env.sample_reward(sel.arm_index, noise_rng)
        instant = ledger.record(sel.arm_index)
        policy.update(sel.arm_index, arms[sel.arm_index], y)
        row = [policy.step, sel.arm_index, sel.model_index, y, instant, ledger.cumulative]
        if diag is not None:
            row += [diag.concentration_ok, diag.anti_conc_ok, diag.optimism_ok]
        steps.append(tuple(row))

    summary = {
        "final_regret": ledger.cumulative,
    }
    if monitor is not None:
        summary.update(
            checks=monitor.checks,
            elliptical_sum=monitor.elliptical_sum,
            # the cap presumes lambda >= 1; below that the check is disabled
            elliptical_ok=monitor.elliptical_ok() if params.lam >= 1 else None,
            all_concentrated=monitor.all_concentrated,
            concentration_failures=monitor.concentration_failures,
            perturb_concentration_failures=monitor.perturb_concentration_failures,
            anti_conc_hits=monitor.anti_conc_hits,
            optimism_hits=monitor.optimism_hits,
        )
        if monitor.ensemble_fractions:
            summary["min_ensemble_fraction"] = min(monitor.ensemble_fractions)
    return RunRecord(
        replication=replication,
        steps=steps,
        summary=summary,
        wall_time=time.perf_counter() - start,
    )


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
    reps = cfg.run.replications
    worker = partial(run_replication, cfg)
    if cfg.run.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.run.workers) as pool:
            records = list(pool.map(worker, range(reps)))
    else:
        records = [worker(i) for i in range(reps)]
    records.sort(key=lambda r: r.replication)
    summary = aggregate(cfg, records)
    return records, summary


def aggregate(cfg: ExperimentConfig, records: list[RunRecord]) -> dict:
    env = build_environment(cfg)
    params = confidence_params(cfg, env)
    grid = checkpoints(cfg.run.horizon)
    cum = np.array(
        [[rec.steps[t - 1][5] for t in grid] for rec in records], dtype=np.float64
    )
    per_checkpoint = []
    for i, t in enumerate(grid):
        col = cum[:, i]
        per_checkpoint.append(
            {
                "t": t,
                "mean": float(np.mean(col)),
                "median": float(np.median(col)),
                "q10": float(np.quantile(col, 0.10)),
                "q90": float(np.quantile(col, 0.90)),
            }
        )
    summary = {
        "config": cfg.to_dict(),
        "resolved_m": resolve_ensemble_size(cfg, params)
        if cfg.policy.name == "ensemble"
        else None,
        "resolved_scale": resolve_scale(cfg, params),
        "replications": len(records),
        "checkpoints": per_checkpoint,
        "theoretical_regret_bound": theoretical_regret_bound(
            gamma(params), p_n() / 4.0, params
        ),
    }
    if records and "checks" in records[0].summary:
        total_checks = sum(r.summary["checks"] for r in records)
        summary["monitors"] = {
            "all_concentrated_rate": sum(
                r.summary["all_concentrated"] for r in records
            )
            / len(records),
            "elliptical_pass_rate": None
            if params.lam < 1
            else sum(r.summary["elliptical_ok"] for r in records) / len(records),
            "concentration_rate": 1.0
            - sum(r.summary["concentration_failures"] for r in records) / total_checks,
            "perturb_concentration_rate": 1.0
            - sum(r.summary["perturb_concentration_failures"] for r in records)
            / total_checks,
            "anti_conc_rate": sum(r.summary["anti_conc_hits"] for r in records)
            / total_checks,
            "optimism_rate": sum(r.summary["optimism_hits"] for r in records)
            / total_checks,
            "total_checks": total_checks,
        }
        if params.lam < 1:
            summary["monitors"]["elliptical_note"] = (
                "disabled: the elliptical-potential cap presumes policy.lambda >= 1"
            )
    return summary


def emit_outputs(
    records: list[RunRecord], summary: dict, out_dir: str | Path
) -> tuple[Path, Path]:
    """Write the trace CSV and summary JSON; byte-stable for equal inputs."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.csv"
        summary_path = out / "summary.json"
        with_flags = bool(records) and len(records[0].steps[0]) > 6
        header = "replication,t,arm,model,reward,instant_regret,cum_regret"
        if with_flags:
            header += ",conc_ok,anticonc_ok,optimism_ok"
        lines = [header]
        for rec in records:
            for row in rec.steps:
                base = (
                    f"{rec.replication},{row[0]},{row[1]},{row[2]},"
                    f"{_FLOAT_FMT % row[3]},{_FLOAT_FMT % row[4]},{_FLOAT_FMT % row[5]}"
                )
                if with_flags:
                    base += f",{int(row[6])},{int(row[7])},{int(row[8])}"
                lines.append(base)
        trace_path.write_text("\n".join(lines) + "\n")
        summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing outputs under {out}: {exc}") from exc
    return trace_path, summary_path


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


def _arm_sequence(policy, env: LinearBanditEnv, horizon: int, noise_rng) -> list[int]:
    arms = env.arms
    chosen = []
    for _ in range(horizon):
        sel = policy.select(arms)
        y = env.sample_reward(sel.arm_index, noise_rng)
        policy.update(sel.arm_index, arms[sel.arm_index], y)
        chosen.append(sel.arm_index)
    return chosen


def run_equivalence_suite(
    cfg: ExperimentConfig, n_seeds: int = 50, desync: bool = False
) -> EquivalenceReport:
    """Check that a horizon-sized round-robin ensemble and perturbed-history
    exploration choose identical arm sequences when they share keyed draws.

    ``desync`` deliberately offsets the perturbed-history stream; it exists
    as a negative control for the test itself and must report failures.
    """
    horizon = cfg.run.horizon
    report = EquivalenceReport(seeds=n_seeds, matches=0)
    for s in range(n_seeds):
        seed = mix_key(cfg.run.base_seed, TAG_REPLICATION, s)
        env_rng = keyed_generator(seed, TAG_ENV)
        noise = NoiseModel(cfg.env.noise_family, cfg.env.sigma)
        env = LinearBanditEnv.random(
            cfg.env.dim, cfg.env.arm_count, noise, cfg.env.s_bound, env_rng
        )
        params = confidence_params(cfg, env)
        spec = PerturbationSpec(cfg.policy.family, resolve_scale(cfg, params))
        stream_seed = mix_key(seed, TAG_POLICY)
        stream = PerturbationStream(stream_seed)
        es = EnsembleSampling(
            env.dim, cfg.policy.lam, horizon, spec, stream, sampler=Sampler.ROUND_ROBIN
        )
        phe_stream = PerturbationStream(stream_seed + 1 if desync else stream_seed)
        phe = LinPHE(
            env.dim, cfg.policy.lam, spec, phe_stream, shared_model_axis=horizon
        )
        seq_es = _arm_sequence(es, env, horizon, keyed_generator(seed, TAG_NOISE))
        seq_phe = _arm_sequence(phe, env, horizon, keyed_generator(seed, TAG_NOISE))
        if seq_es == seq_phe:
            report.matches += 1
        else:
            first = next(i for i, (a, b) in enumerate(zip(seq_es, seq_phe)) if a != b)
            report.failures.append((s, first + 1, seq_es, seq_phe))
    return report


# ---------------------------------------------------------------------------
# Event-rate study
# ---------------------------------------------------------------------------


def estimate_event_rates(cfg: ExperimentConfig, reps: int | None = None) -> dict:
    """Empirical frequencies of the monitored probabilistic events.

    Reports (a) the fraction of runs whose ridge estimate stays inside its
    confidence radius at every step, (b) the per-step frequency of the
    perturbation staying inside its radius, and, for ensemble runs under
    full-trace diagnostics, (c) the worst per-step fraction of ensemble
    members that are simultaneously anti-concentrated and concentrated.
    """
    if reps is None:
        reps = cfg.run.replications
    if reps < 1:
        raise ValueError("reps must be at least 1")
    records = [_diagnosed_replication(cfg, i) for i in range(reps)]
    total_checks = sum(r["checks"] for r in records)
    report = {
        "replications": reps,
        "all_concentrated_rate": sum(r["all_concentrated"] for r in records) / reps,
        "perturb_concentration_rate": 1.0
        - sum(r["perturb_concentration_failures"] for r in records) / total_checks,
        "anti_conc_rate": sum(r["anti_conc_hits"] for r in records) / total_checks,
        "optimism_rate": sum(r["optimism_hits"] for r in records) / total_checks,
        "total_checks": total_checks,
    }
    fractions = [
        r["min_ensemble_fraction"] for r in records if "min_ensemble_fraction" in r
    ]
    if fractions:
        threshold = p_n() / 4.0
        report["ensemble_fraction_threshold"] = threshold
        report["min_ensemble_fraction_pass_rate"] = sum(
            f >= threshold for f in fractions
        ) / len(fractions)
    return report


def _diagnosed_replication(cfg: ExperimentConfig, replication: int) -> dict:
    env = build_environment(cfg)
    params = confidence_params(cfg, env)
    policy = build_policy(cfg, env, params, replication)
    noise_rng = keyed_generator(cfg.run.base_seed, TAG_NOISE, replication)
    monitor = StepMonitor(
        env, params, track_ensemble_fraction=(cfg.run.diagnostics == "full-trace")
    )
    arms = env.arms
    for _ in range(cfg.run.horizon):
        sel = policy.select(arms)
        monitor.observe(policy, sel, arms)
        y = env.sample_reward(sel.arm_index, noise_rng)
        policy.update(sel.arm_index, arms[sel.arm_index], y)
    out = {
        "checks": monitor.checks,
        "all_concentrated": monitor.all_concentrated,
        "perturb_concentration_failures": monitor.perturb_concentration_failures,
        "anti_conc_hits": monitor.anti_conc_hits,
        "optimism_hits": monitor.optimism_hits,
    }
    if monitor.ensemble_fractions:
        out["min_ensemble_fraction"] = min(monitor.ensemble_fractions)
    return out
