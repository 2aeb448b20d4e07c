import math

import numpy as np
import pytest

from linens.envs import LinearBanditEnv, NoiseFamily, NoiseModel, RegretLedger

from conftest import random_unit_ball


def two_arm_env(sigma=0.0, family=NoiseFamily.GAUSSIAN):
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    theta = np.array([0.9, 0.3])
    return LinearBanditEnv(arms, theta, NoiseModel(family, sigma), 1.0)


class TestConstruction:
    def test_best_arm_example(self):
        env = two_arm_env()
        idx, val = env.best_arm()
        assert idx == 0
        assert val == pytest.approx(0.9)

    def test_tie_breaks_toward_smallest_index(self):
        arms = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.0]])
        env = LinearBanditEnv(arms, np.array([1.0, 1.0]), NoiseModel(), 2.0)
        assert env.optimal_arm_index == 0

    def test_best_arm_against_brute_force(self, rng):
        arms = random_unit_ball(rng, 3, count=16)
        theta = random_unit_ball(rng, 3)
        env = LinearBanditEnv(arms, theta, NoiseModel(), 1.0)
        means = [float(a @ theta) for a in arms]
        best = max(range(16), key=lambda k: (means[k], -k))
        assert env.optimal_arm_index == best
        assert env.optimal_value == pytest.approx(means[best], abs=1e-15)

    def test_rejects_oversized_arm(self):
        with pytest.raises(ValueError, match=r"\|\|x\|\|"):
            LinearBanditEnv(np.array([[1.1, 0.0]]), np.zeros(2) + 0.1, NoiseModel(), 1.0)

    def test_rejects_oversized_parameter(self):
        with pytest.raises(ValueError, match="param_bound"):
            LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([1.0, 1.0]), NoiseModel(), 1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([1.0]), NoiseModel(), 1.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            NoiseModel("laplace", 1.0)
        with pytest.raises(ValueError):
            NoiseModel(NoiseFamily.GAUSSIAN, -0.5)


class TestRewards:
    def test_noiseless_rewards_are_means(self, rng):
        env = two_arm_env(sigma=0.0)
        for k in range(3):
            assert env.sample_reward(k, rng) == env.mean_reward(k)

    def test_gaussian_noise_moments(self, rng):
        env = two_arm_env(sigma=0.7)
        draws = np.array([env.sample_reward(0, rng) for _ in range(20_000)])
        assert np.mean(draws) == pytest.approx(0.9, abs=0.02)
        assert np.std(draws) == pytest.approx(0.7, rel=0.03)

    def test_uniform_noise_support(self, rng):
        env = two_arm_env(sigma=0.5, family=NoiseFamily.UNIFORM)
        draws = np.array([env.sample_reward(0, rng) for _ in range(5000)])
        assert np.all(np.abs(draws - 0.9) <= 0.5)
        assert np.var(draws) == pytest.approx(0.25 / 3.0, rel=0.1)

    def test_rademacher_noise_support(self, rng):
        env = two_arm_env(sigma=0.5, family=NoiseFamily.RADEMACHER)
        draws = {round(env.sample_reward(0, rng), 12) for _ in range(200)}
        assert draws == {round(0.4, 12), round(1.4, 12)}

    @pytest.mark.parametrize("family", NoiseFamily.ALL)
    def test_noise_sub_gaussian_tail(self, family, rng):
        # every family at level sigma satisfies
        # P(|eta| >= sigma * x) <= 2 exp(-x^2/2), with Monte-Carlo slack
        sigma = 0.8
        noise = NoiseModel(family, sigma)
        draws = np.abs(noise.sample(rng, 1_000_000))
        for x in (1.0, 2.0, 3.0):
            assert np.mean(draws >= sigma * x) <= 2.5 * math.exp(-x * x / 2.0)

    def test_index_out_of_range(self, rng):
        env = two_arm_env()
        with pytest.raises(ValueError):
            env.mean_reward(3)
        with pytest.raises(ValueError):
            env.sample_reward(-1, rng)


class TestRandomInstances:
    def test_arms_in_unit_ball_and_theta_in_band(self, rng):
        env = LinearBanditEnv.random(4, 30, NoiseModel(), 2.0, rng)
        assert env.arms.shape == (30, 4)
        assert np.all(np.linalg.norm(env.arms, axis=1) <= 1.0 + 1e-12)
        n = np.linalg.norm(env.theta_star)
        assert 1.0 - 1e-12 <= n <= 2.0 + 1e-12

    def test_seeded_reproducibility(self):
        a = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, np.random.default_rng(0))
        b = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(a.arms, b.arms)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)


class TestRegretLedger:
    def test_example_sequence(self):
        env = two_arm_env()
        ledger = RegretLedger(env)
        # gaps: arm0 is optimal (0), arm1 gap 0.6, arm2 gap 0.9 - 0.72 = 0.18
        assert ledger.record(env.mean_reward(0)) == pytest.approx(0.0)
        assert ledger.record(env.mean_reward(1)) == pytest.approx(0.6)
        assert ledger.record(env.mean_reward(2)) == pytest.approx(0.18)
        assert ledger.cumulative == pytest.approx(0.78)

    def test_cumulative_is_prefix_sum_and_monotone(self, rng):
        env = two_arm_env()
        ledger = RegretLedger(env)
        prev = 0.0
        gaps = []
        for _ in range(200):
            gaps.append(ledger.record(env.mean_reward(int(rng.integers(3)))))
            assert ledger.cumulative >= prev - 1e-15
            prev = ledger.cumulative
        assert ledger.cumulative == pytest.approx(sum(gaps))

    def test_gaps_are_non_negative(self, rng):
        env = LinearBanditEnv.random(3, 12, NoiseModel(), 1.0, rng)
        ledger = RegretLedger(env)
        for k in range(12):
            assert ledger.record(env.mean_reward(k)) >= 0.0
