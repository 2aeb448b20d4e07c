import math
import re

import numpy as np
import pytest

from linens.envs import LinearBanditEnv, NoiseFamily, NoiseModel, RegretLedger
from linens.perturb import TAG_NOISE, PerturbationSpec, _splitmix64, mix_key

from conftest import random_unit_ball


def two_arm_env(sigma=0.0, family=NoiseFamily.GAUSSIAN):
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    theta = np.array([0.9, 0.3])
    return LinearBanditEnv(arms, theta, NoiseModel(family, sigma), 1.0)


class TestConstruction:
    def test_best_arm_example(self):
        env = two_arm_env()
        idx, val = env.optimal_arm_index, env.optimal_value
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
        for arm in ([1.1, 0.0], [np.nan, 0.0]):
            with pytest.raises(ValueError, match=r"\|\|x\|\|"):
                LinearBanditEnv(np.array([arm]), np.zeros(2) + 0.1, NoiseModel(), 1.0)

    def test_rejects_oversized_parameter(self):
        with pytest.raises(ValueError, match="param_bound"):
            LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([1.0, 1.0]), NoiseModel(), 1.0)
        with pytest.raises(ValueError, match="theta_star.*, got nan"):
            LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([np.nan, 0.0]), NoiseModel(), 1.0)
        for bound in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"param_bound must .*, got {bound}"):
                LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([0.5, 0.0]), NoiseModel(), bound)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValueError):
            LinearBanditEnv(np.array([[1.0, 0.0]]), np.array([1.0]), NoiseModel(), 1.0)

    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError, match="noise family must be one of .*, got 'laplace'"):
            NoiseModel("laplace", 1.0)
        for sigma in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"sigma must .*, got {sigma}"):
                NoiseModel(NoiseFamily.GAUSSIAN, sigma)


class TestRewards:
    def test_noiseless_rewards_are_means(self):
        env = two_arm_env(sigma=0.0)
        for k in range(3):
            for t in (1, 2, 3):
                assert env.sample_reward(k, 0, t) == env.mean_reward(k)

    def test_gaussian_noise_moments(self):
        env = two_arm_env(sigma=0.7)
        draws = env.sample_reward(0, 5, np.arange(1, 20_001))
        assert np.mean(draws) == pytest.approx(0.9, abs=0.02)
        assert np.std(draws) == pytest.approx(0.7, rel=0.03)

    def test_uniform_noise_support(self):
        env = two_arm_env(sigma=0.5, family=NoiseFamily.UNIFORM)
        draws = env.sample_reward(0, 5, np.arange(1, 5001))
        assert np.all(np.abs(draws - 0.9) <= 0.5)
        assert np.var(draws) == pytest.approx(0.25 / 3.0, rel=0.1)

    def test_rademacher_noise_support(self):
        env = two_arm_env(sigma=0.5, family=NoiseFamily.RADEMACHER)
        draws = {round(float(env.sample_reward(0, 5, t)), 12) for t in range(1, 201)}
        assert draws == {round(0.4, 12), round(1.4, 12)}

    @pytest.mark.parametrize("family", NoiseFamily.ALL)
    def test_noise_sub_gaussian_tail(self, family):
        # every family at level sigma satisfies
        # P(|eta| >= sigma * x) <= 2 exp(-x^2/2), with Monte-Carlo slack
        sigma = 0.8
        noise = NoiseModel(family, sigma)
        draws = np.abs(noise.sample(12345, 1_000_000))
        for x in (1.0, 2.0, 3.0):
            assert np.mean(draws >= sigma * x) <= 2.5 * math.exp(-x * x / 2.0)

    def test_index_out_of_range(self):
        env = two_arm_env()
        with pytest.raises(ValueError):
            env.mean_reward(3)
        with pytest.raises(ValueError):
            env.sample_reward(-1, 0, 1)


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
class TestPull:
    """``pull`` on a batch of arm indices, against one ``(K, d)`` arm set
    that serves every replication and against one set per replication."""

    @staticmethod
    def batch_env(rng, stacked):
        envs = [LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, rng) for _ in range(4)]
        return LinearBanditEnv.stack(envs) if stacked else envs[0]

    def test_rejects_an_out_of_range_index_in_a_batch(self, rng, stacked):
        env = self.batch_env(rng, stacked)
        for bad in (-1, env.arm_count):
            index = np.array([0, bad, 2, 1])
            message = f"arm index {index} out of range [0, {env.arm_count})"
            with pytest.raises(ValueError, match=re.escape(message)):
                env.pull(index)

    def test_gives_the_bits_of_arm_and_mean_reward(self, rng, stacked):
        env = self.batch_env(rng, stacked)
        index = rng.integers(0, env.arm_count, size=4)
        x, mean = env.pull(index)
        assert x.tobytes() == env.arm(index).tobytes()
        assert mean.tobytes() == env.mean_reward(index).tobytes()


def test_unbatched_pull_gives_a_vector_and_a_float():
    env = two_arm_env()
    x, mean = env.pull(2)
    np.testing.assert_array_equal(x, env.arms[2])
    assert type(mean) is float and mean == env.mean_reward(2)


def noise_words(seed: int, t: int) -> tuple[int, int]:
    """Words 0 and 1 of the noise of step ``t`` of stream ``seed``, in
    plain Python: counters 0 and 1 of splitmix64 started at the folded key
    ``(seed, TAG_NOISE, t)``."""
    h = mix_key(seed, TAG_NOISE, t)
    return _splitmix64(h), _splitmix64((h + 0x9E3779B97F4A7C15) & (2**64 - 1))


class TestNoiseDraws:
    """The noise is a map of the counter hash, a pure function of
    ``(seed, t)``, with each family's law."""

    @pytest.mark.parametrize("seed,t", [(0, 1), (7, 2), (2**64 - 1, 1000)])
    def test_known_answers(self, seed, t):
        w0, w1 = noise_words(seed, t)
        sigma = 0.7
        radius = math.sqrt(-2.0 * math.log(((w0 >> 11) + 1) * 2.0**-53))
        gaussian = sigma * (radius * math.cos((w1 >> 11) * (2.0 * math.pi * 2.0**-53)))
        assert NoiseModel("gaussian", sigma).at(seed, t) == pytest.approx(gaussian, rel=1e-14)
        uniform = (w0 >> 11) * (2.0 * math.sqrt(3.0) * 2.0**-53) - math.sqrt(3.0)
        noise = NoiseModel("uniform", sigma)
        assert noise.at(seed, t) == noise.spec.scale * uniform
        assert NoiseModel("rademacher", sigma).at(seed, t) == sigma * (2.0 * (w0 >> 63) - 1.0)

    @pytest.mark.parametrize("family", NoiseFamily.ALL)
    def test_pure_in_seed_and_step(self, family):
        # the same bits however the values are asked for: one step, a run
        # of steps, or a block of a batch at any position
        noise = NoiseModel(family, 0.9)
        seeds = [5, 2**63 + 1, 5, 11]
        run = noise.sample(5, 200)
        draws = noise.draws(seeds)
        for t in (1, 2, 65, 200, 3):
            want = noise.at(5, t)
            assert run[t - 1] == want
            assert draws.at(t)[0, 0] == want and draws.at(t)[2, 0] == want
            assert draws.at(t)[1, 0] == noise.at(2**63 + 1, t)
        assert not np.array_equal(noise.sample(6, 200), run)

    @pytest.mark.parametrize(
        "family,variance", [("gaussian", 1.0), ("uniform", 1.0 / 3.0), ("rademacher", 1.0)]
    )
    def test_mean_and_variance(self, family, variance):
        sigma = 0.6
        x = NoiseModel(family, sigma).sample(3, 400_000)
        assert abs(np.mean(x)) < 0.005
        assert np.var(x) == pytest.approx(variance * sigma**2, rel=0.01)
        assert abs(np.mean(x**3)) < 0.005

    def test_supports(self):
        x = NoiseModel("rademacher", 0.3).sample(4, 1000)
        assert set(np.unique(x)) == {-0.3, 0.3}
        x = np.abs(NoiseModel("uniform", 0.3).sample(4, 100_000))
        assert np.all(x <= 0.3) and np.max(x) > 0.99 * 0.3

    def test_uniform_extreme_words_stay_inside_sigma(self):
        # the words 0 and 2^64 - 1 give the uniform family's extremes; a
        # scale of sigma / sqrt(3) rounds them past sigma for some sigma,
        # the noise's scale for none
        extremes = np.array([[0], [2**64 - 1]], dtype=np.uint64)
        sigmas = np.random.default_rng(0).uniform(0.01, 10.0, 5000).tolist() + [1.0, 0.5]
        naive_past = 0
        for sigma in sigmas:
            spec = NoiseModel("uniform", sigma).spec
            values = spec.values(extremes)
            assert np.all(np.abs(values) <= sigma), sigma
            assert values[0] == -spec.scale * math.sqrt(3.0)
            assert spec.scale <= sigma / math.sqrt(3.0)
            naive = PerturbationSpec("uniform", sigma / math.sqrt(3.0)).values(extremes)
            naive_past += bool(np.any(np.abs(naive) > sigma))
        assert naive_past > 0


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
