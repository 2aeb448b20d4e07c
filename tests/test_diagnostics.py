import math

import mpmath
import numpy as np
import pytest

from linens.diagnostics import (
    InvariantViolation,
    StepMonitor,
    check_optimism_sufficiency,
    elliptical_potential_bound,
    optimism_direction,
    perturbation_vector,
    theoretical_regret_bound,
)
from linens.envs import LinearBanditEnv, NoiseModel
from linens.linalg import GramState, Metric
from linens.perturb import (
    ConfidenceParams,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    beta,
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


class TestStepMonitor:
    def run_greedy(self, env, params, horizon, noise_seed, track=False):
        monitor = StepMonitor(env, params, track_ensemble_fraction=track)
        policy = GreedyRidge(env.dim, params.lam)
        diags = []
        for t in range(1, horizon + 1):
            sel = policy.select(env.arms)
            diags.append(monitor.observe(policy, sel, env.arm(sel.arm_index)))
            y = env.sample_reward(sel.arm_index, noise_seed, t)
            policy.update(sel.arm_index, env.arms[sel.arm_index], y)
        return monitor, diags

    def test_noiseless_greedy_always_concentrated(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=0.0), 1.0, rng)
        params = make_params(sigma=0.0, horizon=50)
        monitor, diags = self.run_greedy(env, params, 50, 0)
        assert monitor.all_concentrated
        assert monitor.concentration_failures == 0
        assert monitor.perturb_concentration_failures == 0
        assert monitor.checks == 50
        assert all(d.concentration_ok for d in diags)

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
        stream = PerturbationStream(4)
        policy = EnsembleSampling(2, 1.0, 16, spec, stream)
        monitor = StepMonitor(env, params, track_ensemble_fraction=True)
        gt = monitor.gamma_tilde_value
        x_star = env.arms[env.optimal_arm_index]
        for t in range(1, 21):
            sel = policy.select(env.arms)
            # independent recomputation of the member fraction
            theta_hat = policy.ridge_estimate()
            beta_prev = beta(params, policy.step)
            width = policy.gram.weighted_norm(x_star, Metric.GRAM_INV)
            manual = 0
            for j in range(16):
                tilde = policy.model_theta(j) - theta_hat
                ok_dir = float(x_star @ tilde) >= beta_prev * width
                ok_norm = policy.gram.weighted_norm(tilde, Metric.GRAM) <= gt
                manual += ok_dir and ok_norm
            monitor.observe(policy, sel, env.arm(sel.arm_index))
            assert monitor.ensemble_fractions[-1] == pytest.approx(manual / 16, abs=1e-12)
            y = env.sample_reward(sel.arm_index, 4, t)
            policy.update(sel.arm_index, env.arms[sel.arm_index], y)
        assert len(monitor.ensemble_fractions) == 20
        assert all(0.0 <= f <= 1.0 for f in monitor.ensemble_fractions)

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
        with pytest.raises(InvariantViolation, match="optimism implication"):
            monitor.observe(policy, bogus, env.arm(bogus.arm_index))

    def test_diag_counters_are_consistent(self, rng):
        env = LinearBanditEnv.random(2, 5, NoiseModel(sigma=1.0), 1.0, rng)
        params = make_params(horizon=100)
        monitor, diags = self.run_greedy(env, params, 100, 0)
        assert monitor.checks == 100
        assert monitor.anti_conc_hits == sum(d.anti_conc_ok for d in diags)
        assert monitor.optimism_hits == sum(d.optimism_ok for d in diags)
        assert monitor.concentration_failures == sum(
            not d.concentration_ok for d in diags
        )
        assert monitor.elliptical_sum == pytest.approx(diags[-1].elliptical_sum)
