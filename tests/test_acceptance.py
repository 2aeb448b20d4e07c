"""End-to-end acceptance criteria.

Each test prints one ``[criterion N] PASS`` line (visible with ``-s`` or on
failure) and its verbose test name doubles as the per-criterion pass/fail
line under ``pytest -v``. The monitored-step volume criterion is placed
last so it can reuse the checks accumulated by the earlier criteria.
"""

import math

import numpy as np
import pytest

from linens.config import ExperimentConfig
from linens.diagnostics import elliptical_potential_bound, theoretical_regret_bound
from linens.envs import LinearBanditEnv, NoiseModel, RegretLedger
from linens.harness import (
    emit_outputs,
    estimate_event_rates,
    run_equivalence_suite,
    run_replications,
)
from linens.linalg import GramState, Metric
from linens.perturb import (
    TAG_INIT,
    ConfidenceParams,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    gamma,
    initial_draws,
    mix_key,
    p_n,
    seed_prefixes,
)
from linens.policies import (
    EnsembleSampling,
    GreedyRidge,
    LinPHE,
    LinTS,
    LinUCB,
    Sampler,
)

# monitored implication checks accumulated across the acceptance run; every
# one of them would have raised InvariantViolation on an implication failure
MONITORED = {"checks": 0}

ZERO_SPEC = PerturbationSpec(PerturbationFamily.GAUSSIAN, 0.0)


def base_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.env.dim = 2
    cfg.env.arm_count = 4
    cfg.env.sigma = 1.0
    cfg.env.s_bound = 1.0
    cfg.policy.name = "ensemble"
    cfg.policy.lam = 1.0
    cfg.policy.delta = 0.1
    cfg.policy.m = 4
    cfg.run.horizon = 100
    cfg.run.replications = 1
    cfg.run.base_seed = 7
    for key, value in overrides.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, value)
    return cfg.validate()


def test_criterion_01_round_robin_ensemble_equals_perturbed_history():
    """50/50 seeds with identical arm sequences at two problem shapes, and
    0/50 under the desynchronized negative control."""
    for dim, arms, horizon in ((2, 4, 20), (4, 8, 50)):
        cfg = base_config(
            env__dim=dim, env__arm_count=arms, run__horizon=horizon, run__replications=50
        )
        report = run_equivalence_suite(cfg)
        assert report.matches == 50, (
            f"shape (d={dim}, K={arms}, T={horizon}): "
            f"{len(report.failures)} diverging seeds, first={report.failures[:1]}"
        )
        desync = run_equivalence_suite(cfg, desync=True)
        assert desync.matches == 0, (
            f"shape (d={dim}, K={arms}, T={horizon}): the desynchronized control "
            f"matched on {desync.matches}/50 seeds"
        )
    print(
        "[criterion 1] PASS: 50/50 seeds identical at (2,4,20) and (4,8,50); "
        "desynchronized control 0/50"
    )


def test_criterion_02_ensemble_members_solve_their_perturbed_ridge_problem():
    """After 200 steps every member matches the batch minimizer to 1e-8."""
    dim, m, lam, steps = 4, 8, 1.0, 200
    spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
    policy = EnsembleSampling(dim, lam, m, spec, [2024])
    stream = PerturbationStream(2024)  # the oracle of the policy's draws
    rng = np.random.default_rng(5)
    xs, ys = [], []
    for _ in range(steps):
        x = rng.standard_normal(dim)
        x /= max(1.0, np.linalg.norm(x))
        y = float(rng.standard_normal())
        policy.update(x[None], np.array([y]))
        xs.append(x)
        ys.append(y)
    xs, ys = np.array(xs), np.array(ys)
    w = initial_draws(spec, seed_prefixes([2024], TAG_INIT), m, dim, lam)[0]
    z = np.array([stream.reward_vector(spec, m, t) for t in range(1, steps + 1)])
    v = lam * np.eye(dim) + xs.T @ xs
    worst = 0.0
    for j in range(m):
        batch = np.linalg.solve(v, w[j] + xs.T @ (ys + z[:, j]))
        worst = max(worst, float(np.linalg.norm(policy.model_theta([j])[0] - batch)))
    assert worst <= 1e-8, f"worst member deviation {worst:.3e} exceeds 1e-8"
    print(f"[criterion 2] PASS: worst member deviation {worst:.3e} <= 1e-8")


def elliptical_potentials(dim: int, runs: list) -> np.ndarray:
    """Each run's sum over its steps of ``||x_t||^2`` in the inverse-Gram
    norm before step t, at lam = 1. ``runs`` holds ``(T, dim)`` vector
    arrays; they step in lockstep on one batched state, each padded past
    its horizon with zero vectors, which leave V unchanged and add a zero
    width, so nothing, to its sum. Batch items carry the serial bits, so
    each sum is the one-run loop's."""
    xs = np.zeros((max(len(vecs) for vecs in runs), len(runs), dim))
    for k, vecs in enumerate(runs):
        xs[: len(vecs), k] = vecs
    state = GramState(dim, 1.0, batch=len(runs))
    totals = np.zeros(len(runs))
    for x in xs:
        width = state.weighted_norm(x, Metric.GRAM_INV)
        totals += width * width
        state.update(x)
    return totals


def test_criterion_03_elliptical_potential_never_exceeds_its_cap():
    """1000 random runs (d <= 8, T <= 2000, lam = 1): exact inequality."""
    rng = np.random.default_rng(99)
    runs = []
    for _ in range(1000):
        dim = int(rng.integers(1, 9))
        horizon = int(rng.integers(50, 2001))
        vecs = rng.standard_normal((horizon, dim))
        vecs /= np.maximum(1.0, np.linalg.norm(vecs, axis=1))[:, None]
        runs.append(vecs)
    # the runs of each dimension step in lockstep, one batch per dimension
    totals = {}
    for dim in range(1, 9):
        ids = [i for i, vecs in enumerate(runs) if vecs.shape[1] == dim]
        totals.update(zip(ids, elliptical_potentials(dim, [runs[i] for i in ids]).tolist()))
    # the one-run loop, a batch of one, gives the same bits on a few runs
    for i, vecs in enumerate(runs[:3]):
        state = GramState(vecs.shape[1], 1.0)
        total = 0.0
        for x in vecs:
            width = state.weighted_norm(x[None], Metric.GRAM_INV)[0]
            total += width * width
            state.update(x[None])
        assert total == totals[i], f"run {i}: serial {total!r} != lockstep {totals[i]!r}"
    worst_slack = math.inf
    for i, vecs in enumerate(runs):
        (horizon, dim), total = vecs.shape, totals[i]
        bound = elliptical_potential_bound(dim, horizon, 1.0)
        assert total <= bound, f"potential {total} exceeded cap {bound} (d={dim}, T={horizon})"
        worst_slack = min(worst_slack, bound - total)
    print(f"[criterion 3] PASS: 1000/1000 runs under the cap (min slack {worst_slack:.3f})")


def test_criterion_04_ridge_concentration_rate_meets_its_guarantee():
    """At delta = 0.2 at least 78% of 5000 runs stay concentrated at all steps."""
    cfg = base_config(
        env__dim=3,
        env__arm_count=6,
        env__sigma=1.0,
        policy__delta=0.2,
        run__horizon=200,
        run__diagnostics="monitors",
        run__base_seed=41,
        run__replications=5000,
    )
    report = estimate_event_rates(cfg)
    MONITORED["checks"] += report["total_checks"]
    rate = report["all_concentrated_rate"]
    assert rate >= 1.0 - 0.2 - 0.02, f"all-step concentration rate {rate:.4f} < 0.78"
    print(
        f"[criterion 4] PASS: all-step concentration rate {rate:.4f} >= 0.78 "
        f"({report['total_checks']} monitored steps)"
    )


def test_criterion_05_directional_anti_concentration_floors():
    """10^6 draws, 10 random directions: every family clears its floor."""
    n_dim = 16
    dir_rng = np.random.default_rng(123)
    directions = dir_rng.standard_normal((10, n_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for family in PerturbationFamily.ALL:
        spec = PerturbationSpec(family, 1.0)
        hits = np.zeros(10)
        total = 0
        for chunk in range(10):
            z = spec.sample(mix_key(555, chunk), (100_000, n_dim))
            proj = z @ directions.T  # (chunk, 10)
            hits += np.sum(proj >= spec.anti_conc_threshold, axis=0)
            total += z.shape[0]
        rates = hits / total
        floor = spec.anti_conc_floor
        assert rates.min() >= floor - 0.005, (
            f"{family}: min directional rate {rates.min():.4f} "
            f"below floor {floor:.4f} - 0.005"
        )
        print(
            f"[criterion 5] PASS: {family} min directional rate "
            f"{rates.min():.4f} >= {floor:.4f} - 0.005"
        )


def _mean_regret_curve(cfg: ExperimentConfig, reps: int, grid):
    sums = np.zeros(len(grid))
    env = cfg.environment()
    # one replication after another, so the sum adds in replication order;
    # each row's regret is the one trace.csv writes, the running sums of one
    # ledger call over its T steps
    for rec in run_replications(cfg, range(reps)):
        for arm in rec.columns["arm"]:
            cum = RegretLedger(env).record(env.pull(arm)[1][None])[1][0]
            sums += cum[np.array(grid) - 1]
    return sums / reps


def test_criterion_07_regret_grows_sublinearly_and_under_the_bound():
    """Mean regret slope <= 0.65 on the upper segment and below the bound."""
    grid = (250, 1000, 4000)
    for name in ("ensemble", "phe"):
        cfg = base_config(
            env__dim=3,
            env__arm_count=10,
            env__sigma=0.5,
            policy__name=name,
            policy__delta=0.2,
            policy__m=32,
            run__horizon=4000,
            run__base_seed=7,
        )
        means = _mean_regret_curve(cfg, 100, grid)
        slopes = [
            math.log(means[i + 1] / means[i]) / math.log(grid[i + 1] / grid[i])
            for i in range(len(grid) - 1)
        ]
        assert max(slopes) <= 0.65, f"{name}: regret slopes {slopes} exceed 0.65"
        for t, mean in zip(grid, means):
            sub = base_config(
                env__dim=3,
                env__arm_count=10,
                env__sigma=0.5,
                policy__name=name,
                policy__delta=0.2,
                policy__m=32,
                run__horizon=t,
                run__base_seed=7,
            )
            params = sub.confidence_params()
            bound = theoretical_regret_bound(gamma(params), p_n() / 4.0, params)
            assert mean <= bound, f"{name}: mean regret {mean:.1f} at t={t} above bound {bound:.1f}"
        print(
            f"[criterion 7] PASS: {name} slopes "
            f"{[round(s, 3) for s in slopes]} <= 0.65, curve under the bound"
        )


def test_criterion_08_perturbation_concentration_rate():
    """Per-step perturbation radius holds at rate >= 1 - delta/T - 0.01."""
    cfg = base_config(
        env__dim=3,
        env__arm_count=6,
        policy__delta=0.5,
        run__horizon=100,
        run__diagnostics="monitors",
        run__base_seed=63,
        run__replications=50,
    )
    report = estimate_event_rates(cfg)
    MONITORED["checks"] += report["total_checks"]
    assert report["total_checks"] == 5000
    rate = report["perturb_concentration_rate"]
    target = 1.0 - 0.5 / 100 - 0.01
    assert rate >= target, f"perturbation concentration rate {rate:.4f} < {target:.4f}"
    print(
        f"[criterion 8] PASS: perturbation concentration rate {rate:.4f} >= {target:.4f} "
        "over 5000 (step, model) samples"
    )


def test_criterion_09_zero_perturbation_zero_noise_collapse():
    """All policies reproduce the greedy arm sequence exactly on 20 seeds."""
    for seed in range(20):
        env = LinearBanditEnv.random(2, 6, NoiseModel(sigma=0.0), 1.0, 1000 + seed)
        policies = {
            "greedy": GreedyRidge(2, 1.0),
            "ensemble": EnsembleSampling(2, 1.0, 3, ZERO_SPEC, [seed]),
            "phe": LinPHE(2, 1.0, ZERO_SPEC, [seed]),
            "linucb": LinUCB(2, 1.0, bonus=0.0),
            "lints": LinTS(2, 1.0, 0.0, [seed]),
        }
        noise = env.noise.draws([seed])
        sequences = {}
        for name, policy in policies.items():
            seq = []
            for t in range(1, 61):
                sel = policy.select(env.arms)
                x, mean = env.pull(sel.arm_index)
                policy.update(x, mean + noise.at(t)[:, 0])
                seq.append(int(sel.arm_index[0]))
            sequences[name] = seq
        for name, seq in sequences.items():
            assert seq == sequences["greedy"], f"seed {seed}: {name} diverged from greedy"
    print("[criterion 9] PASS: 20/20 seeds, all policies collapse to the greedy sequence")


def test_criterion_10_byte_identical_outputs(tmp_path):
    """Repeated and serial-vs-parallel runs emit byte-identical files."""
    cfg = base_config(
        run__horizon=40, run__replications=4, run__diagnostics="monitors"
    )
    par = base_config(
        run__horizon=40,
        run__replications=4,
        run__diagnostics="monitors",
        run__workers=2,
    )
    paths = {}
    for tag, run_cfg in {"a": cfg, "b": cfg, "c": par}.items():
        records = run_replications(run_cfg, range(run_cfg.run.replications))
        paths[tag] = emit_outputs(records, run_cfg, tmp_path / tag)
    assert paths["a"][0].read_bytes() == paths["b"][0].read_bytes()
    assert paths["a"][1].read_bytes() == paths["b"][1].read_bytes()
    assert paths["a"][0].read_bytes() == paths["c"][0].read_bytes()
    assert paths["a"][1].read_bytes() == paths["c"][1].read_bytes()
    print("[criterion 10] PASS: byte-identical traces across reruns and worker counts")


def test_criterion_06_million_monitored_steps_without_implication_failures():
    """>= 10^6 monitored steps, zero hard implication violations raised."""
    # criteria 4 and 8 already banked their checks; top up if this test is
    # run standalone
    while MONITORED["checks"] < 1_000_000:
        cfg = base_config(
            env__dim=3,
            env__arm_count=6,
            policy__delta=0.2,
            run__horizon=200,
            run__diagnostics="monitors",
            run__base_seed=MONITORED["checks"] % 7919,
            run__replications=250,
        )
        report = estimate_event_rates(cfg)
        MONITORED["checks"] += report["total_checks"]
    assert MONITORED["checks"] >= 1_000_000
    print(
        f"[criterion 6] PASS: {MONITORED['checks']} monitored steps, "
        "zero optimism-implication violations"
    )
