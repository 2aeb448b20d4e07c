import math
from dataclasses import fields

import mpmath
import numpy as np
import pytest

from linens.diagnostics import (
    InvariantViolation,
    StepDiagnostics,
    StepMonitor,
    check_optimism_sufficiency,
    elliptical_potential_bound,
    optimism_direction,
    perturbation_vector,
    theoretical_regret_bound,
)
from linens.envs import LinearBanditEnv, NoiseModel
from linens.linalg import GramState, Metric, dot
from linens.perturb import (
    DRAW_BLOCK,
    DRAW_VALUES,
    ConfidenceParams,
    PerturbationFamily,
    PerturbationSpec,
    beta,
    gamma_tilde,
)
from linens.policies import EnsembleSampling, GreedyRidge, Selection

from conftest import random_unit_ball

mpmath.mp.dps = 30


def make_params(**kw):
    base = dict(sigma=1.0, lam=1.0, s_bound=1.0, dim=2, horizon=10, delta=0.1)
    base.update(kw)
    return ConfidenceParams(**base)


class TestRegretBound:
    def test_high_precision_oracle(self):
        # p=1, gamma=1, d=1, lam=1, T=1, delta=1: the confidence term
        # vanishes and the bound collapses to 3 sqrt(2 log 2)
        p = make_params(dim=1, horizon=1, delta=1.0)
        want = float(3 * mpmath.sqrt(2 * mpmath.log(2)))
        got = theoretical_regret_bound(1.0, 1.0, p)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(3.53223006754642407303470797938, rel=1e-12)

    def test_two_term_structure(self):
        p = make_params(dim=3, horizon=500, delta=0.05)
        gamma_val, prob = 7.0, 0.25
        first = gamma_val * (1.0 + 2.0 / prob) * math.sqrt(
            2.0 * 3 * 500 * math.log1p(500 / 3.0)
        )
        second = (gamma_val / prob) * math.sqrt(2.0 * 500 * math.log(20.0))
        assert theoretical_regret_bound(gamma_val, prob, p) == pytest.approx(
            first + second, rel=1e-12
        )

    def test_monotone_in_horizon_and_confidence_probability(self):
        vals = [
            theoretical_regret_bound(2.0, 0.1, make_params(horizon=t))
            for t in (10, 100, 1000)
        ]
        assert vals[0] < vals[1] < vals[2]
        by_p = [
            theoretical_regret_bound(2.0, p, make_params()) for p in (0.05, 0.2, 0.8)
        ]
        assert by_p[0] > by_p[1] > by_p[2]

    def test_invalid_arguments(self):
        p = make_params()
        with pytest.raises(ValueError):
            theoretical_regret_bound(1.0, 0.0, p)
        with pytest.raises(ValueError):
            theoretical_regret_bound(1.0, 1.5, p)
        with pytest.raises(ValueError):
            theoretical_regret_bound(0.0, 0.5, p)


class TestEllipticalBound:
    def test_closed_form(self):
        assert elliptical_potential_bound(1, 3, 1.0) == pytest.approx(
            2.0 * math.log(4.0), rel=1e-12
        )
        assert elliptical_potential_bound(3, 100, 2.0) == pytest.approx(
            6.0 * math.log1p(100 / 6.0), rel=1e-12
        )

    def test_monotone(self):
        assert elliptical_potential_bound(2, 100, 1.0) < elliptical_potential_bound(
            2, 200, 1.0
        )
        assert elliptical_potential_bound(2, 100, 2.0) < elliptical_potential_bound(
            2, 100, 1.0
        )


class TestOptimismGeometry:
    def test_direction_before_any_observation(self):
        gram = GramState(2, 1.0)
        u = optimism_direction(gram, np.empty((0, 2)), np.array([1.0, 0.0]))
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)

    def test_direction_norm_equals_inverse_gram_norm(self, rng):
        lam = 1.7
        gram = GramState(3, lam)
        hist = random_unit_ball(rng, 3, count=20)
        for x in hist:
            gram.update(x)
        x_star = random_unit_ball(rng, 3)
        u = optimism_direction(gram, hist, x_star)
        assert u.shape == (3 + 20,)
        assert np.linalg.norm(u) == pytest.approx(
            gram.weighted_norm(x_star, Metric.GRAM_INV), abs=1e-10
        )

    def test_inner_product_equals_directional_perturbation(self, rng):
        # u . Z equals x*^T theta_tilde with theta_tilde = V^-1 (W + X^T z)
        lam = 2.0
        gram = GramState(2, lam)
        hist = random_unit_ball(rng, 2, count=8)
        for x in hist:
            gram.update(x)
        x_star = random_unit_ball(rng, 2)
        w = rng.standard_normal(2)
        z = rng.standard_normal(8)
        u = optimism_direction(gram, hist, x_star)
        z_vec = perturbation_vector(w, z, lam)
        theta_tilde = gram.solve(w + hist.T @ z)
        assert float(u @ z_vec) == pytest.approx(float(x_star @ theta_tilde), abs=1e-10)

    def test_direction_dim_mismatch(self):
        with pytest.raises(ValueError):
            optimism_direction(GramState(2, 1.0), np.empty((0, 2)), np.ones(3))

    def test_sufficiency_check_validation(self):
        with pytest.raises(ValueError):
            check_optimism_sufficiency(np.ones(3), np.ones(2), 1.0, 0.5)
        with pytest.raises(ValueError):
            check_optimism_sufficiency(np.ones(3), np.ones(3), 0.0, 0.5)

    def test_sufficiency_check_truth_table(self):
        u = np.array([1.0, 0.0])
        assert check_optimism_sufficiency(u, np.array([2.0, 0.0]), 1.0, 0.5)
        assert not check_optimism_sufficiency(u, np.array([0.5, 0.0]), 1.0, 0.5)
        assert not check_optimism_sufficiency(u, np.array([2.0, 0.0]), 1.0, 1.5)

    def test_sufficiency_implies_realized_optimism(self, rng):
        # grid search over perturbations on a live state: whenever the check
        # passes, the perturbed estimator over-estimates the optimal value
        lam = 1.0
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=0.5), 1.0, rng)
        gram = GramState(2, lam)
        hist = env.arms[[0, 1]]
        ys = np.array([0.3, -0.2])
        for x in hist:
            gram.update(x)
        theta_hat = gram.solve(hist.T @ ys)
        x_star = env.arms[env.optimal_arm_index]
        dev = gram.weighted_norm(theta_hat - env.theta_star, Metric.GRAM)
        c = dev + 0.3
        u = optimism_direction(gram, hist, x_star)
        hits = 0
        grid = np.linspace(-4.0, 4.0, 7)
        for z_vec in np.stack(np.meshgrid(grid, grid, grid, grid), -1).reshape(-1, 4):
            if not check_optimism_sufficiency(u, z_vec, c, dev):
                continue
            w = math.sqrt(lam) * z_vec[:2]
            theta = theta_hat + gram.solve(w + hist.T @ z_vec[2:])
            assert float(x_star @ theta) >= env.optimal_value - 1e-9
            hits += 1
        assert hits > 0  # the grid must actually exercise the passing branch


def run_steps(monitor, policy, env, horizon, noise_seed=0):
    """Step ``policy`` for ``horizon`` steps under ``monitor`` and flush it;
    returns the per-step diagnostics of its blocks, joined."""
    noise = env.noise.draws([noise_seed])
    blocks = []
    for t in range(1, horizon + 1):
        sel = policy.select(env.arms)
        blocks.append(monitor.observe(policy, sel, env.arm(sel.arm_index)))
        y = env.mean_reward(sel.arm_index) + noise.at(t)[0, 0]
        policy.update(sel.arm_index, env.arms[sel.arm_index], y)
    blocks.append(monitor.flush())
    return concatenate_blocks([b for b in blocks if b is not None], horizon)


def concatenate_blocks(blocks, horizon):
    """The fields of consecutive blocks covering steps 1..horizon, joined
    along the step axis."""
    assert [b.first for b in blocks] == list(np.cumsum([1] + [len(b) for b in blocks[:-1]]))
    assert sum(len(b) for b in blocks) == horizon
    names = [f.name for f in fields(StepDiagnostics) if f.name != "first"]
    return {
        name: np.concatenate([getattr(b, name) for b in blocks])
        for name in names
        if getattr(blocks[0], name) is not None
    }


class TestStepMonitor:
    def run_greedy(self, env, params, horizon, noise_seed, track=False):
        monitor = StepMonitor(env, params, track_ensemble_fraction=track)
        policy = GreedyRidge(env.dim, params.lam)
        return monitor, run_steps(monitor, policy, env, horizon, noise_seed)

    def test_noiseless_greedy_always_concentrated(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=0.0), 1.0, rng)
        params = make_params(sigma=0.0, horizon=50)
        monitor, diag = self.run_greedy(env, params, 50, 0)
        assert monitor.all_concentrated
        assert monitor.concentration_failures == 0
        assert monitor.perturb_concentration_failures == 0
        assert monitor.checks == 50
        assert diag["concentration_ok"].shape == (50,)
        assert diag["concentration_ok"].all()

    def test_harmonic_elliptical_sum(self):
        # one arm x = 1 in dimension 1 with lam = 1: widths^2 are 1, 1/2, 1/3
        env = LinearBanditEnv(np.array([[1.0]]), np.array([0.5]), NoiseModel(sigma=0.0), 1.0)
        params = make_params(dim=1, horizon=3)
        monitor, _ = self.run_greedy(env, params, 3, 0)
        assert monitor.elliptical_sum == pytest.approx(11.0 / 6.0, abs=1e-12)
        assert monitor.elliptical_ok()

    def test_elliptical_bound_holds_on_random_runs(self, rng):
        for noise_seed in range(5):
            env = LinearBanditEnv.random(3, 8, NoiseModel(sigma=1.0), 1.0, rng)
            params = make_params(dim=3, horizon=200)
            monitor, _ = self.run_greedy(env, params, 200, noise_seed)
            assert monitor.checks == 200
            assert monitor.elliptical_sum <= elliptical_potential_bound(3, 200, 1.0)

    def test_step0_concentration_boundary(self):
        # the zero estimate deviates by sqrt(lam)||theta*||, inside the radius
        env = LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([0.9, 0.0]), NoiseModel(), 1.0)
        monitor = StepMonitor(env, make_params())
        assert monitor.all_concentrated

    def test_ensemble_fraction_tracked_and_cross_checked(self, rng):
        env = LinearBanditEnv.random(2, 4, NoiseModel(sigma=0.5), 1.0, rng)
        params = make_params(horizon=20)
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, beta(params, 20))
        policy = EnsembleSampling(2, 1.0, 16, spec, 4)
        monitor = StepMonitor(env, params, track_ensemble_fraction=True)
        gt = gamma_tilde(params)
        x_star = env.arms[env.optimal_arm_index]
        noise = env.noise.draws([4])
        manual = []
        blocks = []
        for t in range(1, 21):
            sel = policy.select(env.arms)
            # independent recomputation of the member fraction
            theta_hat = policy.ridge_estimate()
            beta_prev = beta(params, policy.step)
            width = policy.gram.weighted_norm(x_star, Metric.GRAM_INV)
            hits = 0
            for j in range(16):
                tilde = policy.model_theta(j) - theta_hat
                ok_dir = float(x_star @ tilde) >= beta_prev * width
                ok_norm = policy.gram.weighted_norm(tilde, Metric.GRAM) <= gt
                hits += ok_dir and ok_norm
            manual.append(hits / 16)
            blocks.append(monitor.observe(policy, sel, env.arm(sel.arm_index)))
            y = env.mean_reward(sel.arm_index) + noise.at(t)[0, 0]
            policy.update(sel.arm_index, env.arms[sel.arm_index], y)
        blocks.append(monitor.flush())
        fractions = concatenate_blocks([b for b in blocks if b is not None], 20)[
            "ensemble_fraction"
        ]
        assert len(fractions) == 20
        for got, want in zip(fractions, manual):
            assert got == pytest.approx(want, abs=1e-12)
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert monitor.min_ensemble_fraction == min(fractions)

    def test_inconsistent_selection_triggers_hard_error(self):
        # the optimism implication is deterministic; feeding a selection whose
        # arm is not the argmax of its own estimator must raise
        env = LinearBanditEnv(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.9, 0.0]), NoiseModel(), 1.0
        )
        params = make_params(delta=0.5)
        monitor = StepMonitor(env, params)
        policy = GreedyRidge(2, 1.0)
        bogus = Selection(arm_index=1, model_index=-1, theta=np.array([5.0, 0.0]))
        assert monitor.observe(policy, bogus, env.arm(bogus.arm_index)) is None
        with pytest.raises(InvariantViolation, match="optimism implication failed at step 1:"):
            monitor.flush()

    def test_bogus_selection_mid_block_names_its_step_and_replication(self):
        # replication 1 plays a bogus selection at step 5 of an 8-step block;
        # the block's evaluation raises and names that step and replication
        env = LinearBanditEnv(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.9, 0.0]), NoiseModel(sigma=0.0), 1.0
        )
        monitor = StepMonitor(env, make_params(delta=0.5), batch=3)
        policy = GreedyRidge(2, 1.0, batch=3)
        for t in range(1, 9):
            sel = policy.select(env.arms)
            if t == 5:
                theta = sel.theta.copy()
                theta[1] += [20.0, 0.0]
                arm = sel.arm_index.copy()
                arm[1] = 1
                sel = Selection(arm, sel.model_index, theta)
            x, mean = env.pull(sel.arm_index)
            assert monitor.observe(policy, sel, x) is None
            policy.update(sel.arm_index, x, mean)
        with pytest.raises(
            InvariantViolation, match="optimism implication failed at step 5, replication 1:"
        ):
            monitor.flush()

    def test_diag_counters_are_consistent(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=1.0), 1.0, rng)
        params = make_params(horizon=100)
        monitor, diag = self.run_greedy(env, params, 100, 0)
        assert monitor.checks == 100
        assert monitor.anti_conc_hits == diag["anti_conc_ok"].sum()
        assert monitor.optimism_hits == diag["optimism_ok"].sum()
        assert monitor.concentration_failures == (~diag["concentration_ok"]).sum()
        assert monitor.elliptical_sum == diag["elliptical_sum"][-1]

    def test_steps_are_recorded_in_order(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=1.0), 1.0, rng)
        monitor = StepMonitor(env, make_params())
        policy = GreedyRidge(2, 1.0)
        sel = policy.select(env.arms)
        monitor.observe(policy, sel, env.arm(sel.arm_index))
        with pytest.raises(ValueError, match="expected step 2, got 1"):
            monitor.observe(policy, sel, env.arm(sel.arm_index))

    def test_summaries_refuse_unevaluated_steps(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=1.0), 1.0, rng)
        monitor = StepMonitor(env, make_params())
        policy = GreedyRidge(2, 1.0)
        sel = policy.select(env.arms)
        monitor.observe(policy, sel, env.arm(sel.arm_index))
        with pytest.raises(RuntimeError, match="call flush"):
            monitor.counters()
        monitor.flush()
        assert monitor.counters()["checks"] == 1


def block_length(batch: int, dim: int, n_models: int | None) -> int:
    """The monitor's block length: ``perturb.block_steps``' rule over the
    largest per-replication record of a step."""
    record = max(dim * dim, n_models * dim if n_models else 0)
    return max(1, min(DRAW_BLOCK, DRAW_VALUES // (batch * record)))


class ReferenceMonitor:
    """Per-step oracle of the blocked monitor: each step's events from the
    live pre-step state, one step at a time, with
    ``GramState.weighted_norm``."""

    def __init__(self, env, params, batch, track):
        self.env, self.params, self.track = env, params, track
        shape = () if batch is None else (batch,)
        self.x_star = np.broadcast_to(env.arm(env.optimal_arm_index), shape + (env.dim,))
        self.gamma_tilde = gamma_tilde(params)
        self.flags = []
        self.elliptical_sum = np.zeros(shape)
        self.fractions = []

    def step(self, policy, sel, chosen):
        gram = policy.gram
        beta_prev = beta(self.params, gram.step_count)
        theta_hat = policy.ridge_estimate()
        ridge_dev = gram.weighted_norm(theta_hat - self.env.theta_star, Metric.GRAM)
        tilde = sel.theta - theta_hat
        width_star = gram.weighted_norm(self.x_star, Metric.GRAM_INV)
        self.flags.append(
            (
                ridge_dev <= beta_prev,
                gram.weighted_norm(tilde, Metric.GRAM) <= self.gamma_tilde,
                dot(self.x_star, tilde) >= beta_prev * width_star,
                dot(chosen, sel.theta) - self.env.optimal_value >= 0.0,
            )
        )
        width = gram.weighted_norm(chosen, Metric.GRAM_INV)
        self.elliptical_sum = self.elliptical_sum + width * width
        if self.track:
            thetas = policy.thetas()
            hits = 0
            for j in range(policy.n_models):
                tilde_j = thetas[..., j, :] - theta_hat
                ok_dir = dot(self.x_star, tilde_j) >= beta_prev * width_star
                ok_norm = np.square(gram.weighted_norm(tilde_j, Metric.GRAM)) <= (
                    self.gamma_tilde**2
                )
                hits = hits + (ok_dir & ok_norm)
            self.fractions.append(np.asarray(hits) / policy.n_models)


HORIZONS = {
    "1": lambda block: 1,
    "block-1": lambda block: block - 1,
    "block+1": lambda block: block + 1,
    "2block+5": lambda block: 2 * block + 5,
}


@pytest.mark.parametrize("batch", [None, 3], ids=["unbatched", "R3"])
@pytest.mark.parametrize("track", [False, True], ids=["greedy", "ensemble-full-trace"])
@pytest.mark.parametrize("horizon_name", sorted(HORIZONS))
def test_blocked_monitor_matches_the_per_step_oracle(batch, track, horizon_name):
    dim, n_models = 4, 24
    block = block_length(batch or 1, dim, n_models if track else None)
    horizon = HORIZONS[horizon_name](block)
    rng = np.random.default_rng(horizon)
    env = LinearBanditEnv.random(dim, 7, NoiseModel(sigma=0.5), 1.0, rng)
    # the monitor's sigma is below the noise's, so the ridge concentration
    # event fails on some steps and holds on others
    params = make_params(dim=dim, sigma=0.05, horizon=horizon, delta=0.2)
    if track:
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, beta(params, horizon))
        seed = [100 + r for r in range(batch)] if batch else 100
        policy = EnsembleSampling(dim, params.lam, n_models, spec, seed)
    else:
        policy = GreedyRidge(dim, params.lam, batch=batch)
    monitor = StepMonitor(env, params, track_ensemble_fraction=track, batch=batch)
    oracle = ReferenceMonitor(env, params, batch, track)
    noise = env.noise.draws(range(batch or 1))
    blocks = []
    for t in range(1, horizon + 1):
        sel = policy.select(env.arms)
        x, mean = env.pull(sel.arm_index)
        oracle.step(policy, sel, x)
        blocks.append(monitor.observe(policy, sel, x))
        assert len(monitor._record["gram"]) == block
        y = mean + (noise.at(t)[:, 0] if batch else noise.at(t)[0, 0])
        policy.update(sel.arm_index, x, y)
    blocks.append(monitor.flush())
    diag = concatenate_blocks([b for b in blocks if b is not None], horizon)

    conc, pert, anti, opt = (np.array(f) for f in zip(*oracle.flags))
    for name, flags in zip(
        ("concentration_ok", "perturb_concentration_ok", "anti_conc_ok", "optimism_ok"),
        (conc, pert, anti, opt),
    ):
        np.testing.assert_array_equal(diag[name], flags, err_msg=name)
    assert monitor.checks == horizon
    np.testing.assert_array_equal(monitor.all_concentrated, conc.all(axis=0))
    np.testing.assert_array_equal(monitor.concentration_failures, (~conc).sum(axis=0))
    np.testing.assert_array_equal(monitor.perturb_concentration_failures, (~pert).sum(axis=0))
    np.testing.assert_array_equal(monitor.anti_conc_hits, anti.sum(axis=0))
    np.testing.assert_array_equal(monitor.optimism_hits, opt.sum(axis=0))
    # exact: the blocked running sum adds the steps in the oracle's order
    assert np.array_equal(monitor.elliptical_sum, oracle.elliptical_sum)
    if track:
        np.testing.assert_array_equal(diag["ensemble_fraction"], oracle.fractions)
        np.testing.assert_array_equal(
            monitor.min_ensemble_fraction, np.min(oracle.fractions, axis=0)
        )
    else:
        assert monitor.min_ensemble_fraction is None
    if horizon_name == "2block+5" and batch:
        # not vacuous: both outcomes of each event occur, and a replication
        # that failed concentration ends its run concentrated
        assert (~conc.all(axis=0) & conc[-1]).any()
        for flags in (anti, opt) if track else (conc,):
            assert flags.any() and not flags.all()
        if track:
            assert np.ptp(oracle.fractions) > 0


def test_block_buffers_stay_within_the_draw_budget(rng):
    # R = 256, d = 8: the Gram snapshots, R * d * d values a step, fill the
    # budget in one step. Under full-trace with m = 64 one step's ensemble
    # estimators, R * m * d = 131072 values, pass it on their own (the policy
    # builds as many each step), so no buffer holds more than one step
    batch, dim, n_models = 256, 8, 64
    env = LinearBanditEnv.random(dim, 10, NoiseModel(sigma=0.5), 1.0, rng)
    spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
    seeds = list(range(batch))
    policy = EnsembleSampling(dim, 1.0, n_models, spec, seeds)
    sel = policy.select(env.arms)
    for track in (True, False):
        monitor = StepMonitor(env, make_params(dim=dim), track, batch=batch)
        monitor.observe(policy, sel, env.arm(sel.arm_index))
        record = monitor._record
        assert ("thetas" in record) == track
        assert record["gram"].size == DRAW_VALUES
        for name, buf in record.items():
            assert len(buf) == 1, name
            assert buf.size <= max(DRAW_VALUES, batch * n_models * dim), name
    # rates-c4's shape (R = 200, d = 3, m = 4) holds several steps a block,
    # each buffer within the budget
    env = LinearBanditEnv.random(3, 6, NoiseModel(sigma=1.0), 1.0, rng)
    policy = EnsembleSampling(3, 1.0, 4, spec, seeds[:200])
    monitor = StepMonitor(env, make_params(dim=3), batch=200)
    sel = policy.select(env.arms)
    monitor.observe(policy, sel, env.arm(sel.arm_index))
    assert len(monitor._record["gram"]) == DRAW_VALUES // (200 * 3 * 3) > 1
    assert all(buf.size <= DRAW_VALUES for buf in monitor._record.values())
