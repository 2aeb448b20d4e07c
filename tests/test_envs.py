import math
import re

import numpy as np
import pytest

from linens.envs import LinearBanditEnv, NoiseFamily, NoiseModel, RegretLedger
from linens.linalg import matvec
from linens.perturb import (
    TAG_ENV,
    TAG_NOISE,
    PerturbationSpec,
    _splitmix64,
    block_steps,
    mix_key,
    reward_draws,
    seed_prefixes,
)

from conftest import random_unit_ball


def two_arm_env(sigma=0.0, family=NoiseFamily.GAUSSIAN):
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
    theta = np.array([0.9, 0.3])
    return LinearBanditEnv(arms, theta, NoiseModel(family, sigma), 1.0)


def mean_reward(env, k):
    """The mean reward of arm ``k`` for a batch of one, an ``(1,)`` array."""
    return env.pull(np.array([k]))[1]


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
                assert env.sample_reward(k, 0, t) == mean_reward(env, k)[0]

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
        prefix = seed_prefixes([12345], TAG_NOISE)
        steps = np.arange(1, 1_000_001)
        draws = np.abs(reward_draws(NoiseModel(family, sigma).spec, prefix, range(1), steps))
        for x in (1.0, 2.0, 3.0):
            assert np.mean(draws >= sigma * x) <= 2.5 * math.exp(-x * x / 2.0)

    def test_index_out_of_range(self):
        env = two_arm_env()
        with pytest.raises(ValueError):
            env.pull(np.array([3]))
        with pytest.raises(ValueError):
            env.sample_reward(-1, 0, 1)


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
class TestPull:
    """``pull`` on a batch of arm indices, against one ``(K, d)`` arm set
    that serves every replication and against one set per replication."""

    @staticmethod
    def batch_env(stacked):
        seeds = [21, 22, 23, 24]
        return LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, seeds if stacked else seeds[0])

    def test_rejects_an_out_of_range_index_in_a_batch(self, stacked):
        env = self.batch_env(stacked)
        for bad in (-1, env.arm_count):
            index = np.array([0, bad, 2, 1])
            message = f"arm index {index} out of range [0, {env.arm_count})"
            with pytest.raises(ValueError, match=re.escape(message)):
                env.pull(index)

    def test_gathers_each_replications_arm_and_mean_reward(self, rng, stacked):
        env = self.batch_env(stacked)
        index = rng.integers(0, env.arm_count, size=4)
        x, mean = env.pull(index)
        # the gather of the arms and of their means, each a product of the
        # whole arm set
        at = index if not stacked else (np.arange(4), index)
        assert x.shape == (4, 3) and mean.shape == (4,)
        assert x.tobytes() == env.arms[at].tobytes()
        assert mean.tobytes() == matvec(env.arms, env.theta_star)[at].tobytes()


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
        prefix = seed_prefixes([seed], TAG_NOISE)

        def noise_at(family):
            return reward_draws(NoiseModel(family, sigma).spec, prefix, range(1), t)[0, 0]

        radius = math.sqrt(-2.0 * math.log(((w0 >> 11) + 1) * 2.0**-53))
        gaussian = sigma * (radius * math.cos((w1 >> 11) * (2.0 * math.pi * 2.0**-53)))
        assert noise_at("gaussian") == pytest.approx(gaussian, rel=1e-14)
        uniform = (w0 >> 11) * (2.0 * math.sqrt(3.0) * 2.0**-53) - math.sqrt(3.0)
        assert noise_at("uniform") == NoiseModel("uniform", sigma).spec.scale * uniform
        assert noise_at("rademacher") == sigma * (2.0 * (w0 >> 63) - 1.0)

    @pytest.mark.parametrize("family", NoiseFamily.ALL)
    def test_pure_in_seed_and_step(self, family):
        # the same bits however the values are asked for: one step, a run
        # of steps, or a block of a batch at any position
        noise = NoiseModel(family, 0.9)
        seeds = [5, 2**63 + 1, 5, 11]
        prefixes = seed_prefixes(seeds, TAG_NOISE)
        steps = np.arange(1, 201)
        run = reward_draws(noise.spec, prefixes[:1], range(1), steps)
        draws = noise.draws(seeds)
        for t in (1, 2, 65, 200, 3):
            alone = reward_draws(noise.spec, prefixes[:1], range(1), t)[0, 0]
            assert run[t - 1, 0] == alone
            assert draws.at(t)[0, 0] == alone and draws.at(t)[2, 0] == alone
            assert draws.at(t)[1, 0] == reward_draws(noise.spec, prefixes[1:2], range(1), t)[0, 0]
        other = reward_draws(noise.spec, seed_prefixes([6], TAG_NOISE), range(1), steps)
        assert not np.array_equal(other, run)

    @pytest.mark.parametrize(
        "family,variance", [("gaussian", 1.0), ("uniform", 1.0 / 3.0), ("rademacher", 1.0)]
    )
    def test_mean_and_variance(self, family, variance):
        sigma = 0.6
        prefix = seed_prefixes([3], TAG_NOISE)
        x = reward_draws(NoiseModel(family, sigma).spec, prefix, range(1), np.arange(1, 400_001))
        assert abs(np.mean(x)) < 0.005
        assert np.var(x) == pytest.approx(variance * sigma**2, rel=0.01)
        assert abs(np.mean(x**3)) < 0.005

    def test_supports(self):
        prefix = seed_prefixes([4], TAG_NOISE)
        x = reward_draws(NoiseModel("rademacher", 0.3).spec, prefix, range(1), np.arange(1, 1001))
        assert set(np.unique(x)) == {-0.3, 0.3}
        steps = np.arange(1, 100_001)
        x = np.abs(reward_draws(NoiseModel("uniform", 0.3).spec, prefix, range(1), steps))
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
    def test_arms_in_unit_ball_and_theta_in_band(self):
        env = LinearBanditEnv.random(4, 30, NoiseModel(), 2.0, range(200))
        assert env.arms.shape == (200, 30, 4) and env.theta_star.shape == (200, 4)
        assert np.all(np.linalg.norm(env.arms, axis=-1) <= 1.0 + 1e-12)
        n = np.linalg.norm(env.theta_star, axis=-1)
        assert np.all((1.0 - 1e-12 <= n) & (n <= 2.0 + 1e-12))

    def test_seeded_reproducibility(self):
        a = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, 0)
        b = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, 0)
        assert a.arms.tobytes() == b.arms.tobytes()
        assert a.theta_star.tobytes() == b.theta_star.tobytes()
        c = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, 1)
        assert not np.array_equal(a.arms, c.arms)

    @pytest.mark.parametrize("seeds", [[5], [0, 5, 2**64 - 1, -1], list(range(9, 1, -1))])
    def test_each_instance_is_a_pure_function_of_its_seed(self, seeds):
        # an integer seed gives its row of any batch, bit for bit, whatever
        # the batch's size, order and other seeds
        batch = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, seeds)
        assert batch.arms.shape == (len(seeds), 5, 3)
        for i, seed in enumerate(seeds):
            one = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, seed)
            assert one.arms.shape == (5, 3)
            assert one.arms.tobytes() == batch.arms[i].tobytes()
            assert one.theta_star.tobytes() == batch.theta_star[i].tobytes()
            assert one.optimal_arm_index == batch.optimal_arm_index[i]

    def test_layout_matches_a_plain_python_oracle(self):
        # model j reads splitmix64 outputs 2j and 2j + 1 after the seed's
        # TAG_ENV prefix: (K + 1) d gaussian coordinates by Box-Muller, arms
        # first, then K + 1 top-53-bit uniforms, radii first
        dim, arm_count, seed, bound = 3, 4, 29, 1.5
        h = mix_key(seed, TAG_ENV)

        def word(counter):
            return _splitmix64((h + counter * 0x9E3779B97F4A7C15) & (2**64 - 1))

        def gaussian(j):
            radius = math.sqrt(-2.0 * math.log(((word(2 * j) >> 11) + 1) * 2.0**-53))
            return radius * math.cos((word(2 * j + 1) >> 11) * 2.0**-53 * 2.0 * math.pi)

        coords = (arm_count + 1) * dim
        u = [(word(2 * (coords + i)) >> 11) * 2.0**-53 for i in range(arm_count + 1)]
        z = np.array([gaussian(j) for j in range(coords)]).reshape(arm_count + 1, dim)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        env = LinearBanditEnv.random(dim, arm_count, NoiseModel(), bound, seed)
        want = z[:-1] * np.array(u[:-1])[:, None] ** (1.0 / dim)
        np.testing.assert_allclose(env.arms, want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            env.theta_star, z[-1] * bound * (0.5 + 0.5 * u[-1]), rtol=1e-13, atol=0
        )

    def test_seeds_are_taken_mod_2_to_the_64(self):
        a = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, [5, 2**64 - 1])
        b = LinearBanditEnv.random(3, 5, NoiseModel(), 1.0, [2**64 + 5, -1])
        assert a.arms.tobytes() == b.arms.tobytes()
        assert a.theta_star.tobytes() == b.theta_star.tobytes()


def ks_uniform_pvalue(sample: np.ndarray) -> float:
    """P-value of the one-sample Kolmogorov-Smirnov test of ``sample``
    against U(0, 1): Kolmogorov's limiting law ``2 sum (-1)^(k-1)
    exp(-2 k^2 t^2)`` at Stephens' (1970) finite-n statistic
    ``t = (sqrt(n) + 0.12 + 0.11 / sqrt(n)) D``."""
    x = np.sort(sample)
    n = len(x)
    rank = np.arange(1, n + 1)
    d = max(np.max(rank / n - x), np.max(x - (rank - 1) / n))
    t = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    tail = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in range(1, 101))
    return min(1.0, max(0.0, tail))


def mean_direction_pvalue(directions: np.ndarray) -> float:
    """P-value of Rayleigh's test that ``(n, 4)`` unit vectors are uniform
    on the sphere: ``4 n ||mean||^2`` is chi-square with 4 degrees of
    freedom in the limit, whose upper tail at x is ``exp(-x/2) (1 + x/2)``."""
    n, dim = directions.shape
    assert dim == 4
    x = dim * n * float(np.sum(directions.mean(axis=0) ** 2))
    return math.exp(-x / 2.0) * (1.0 + x / 2.0)


class TestRandomInstanceLaw:
    """The instances of 2,000 fixed seeds at criterion 1's shape, d = 4 and
    K = 8, have the stated law: arms uniform in the unit ball, so
    ``radius ** d`` ~ U(0, 1) and each direction uniform on the sphere, and
    ``||theta*|| / S`` ~ U(1/2, 1) along a uniform direction."""

    DIM, ARMS, SEEDS, S = 4, 8, range(2000), 2.5

    #: false-fail probability of the whole class, Bonferroni over its four
    #: checks: two Kolmogorov-Smirnov tests and two mean directions
    FALSE_FAIL = 1e-6
    CHECKS = 4

    @pytest.fixture(scope="class")
    def env(self):
        return LinearBanditEnv.random(self.DIM, self.ARMS, NoiseModel(), self.S, self.SEEDS)

    def test_arm_radii_make_the_arms_uniform_in_the_ball(self, env):
        radii = np.linalg.norm(env.arms, axis=-1).ravel()
        assert len(radii) == 16_000
        assert ks_uniform_pvalue(radii**self.DIM) >= self.FALSE_FAIL / self.CHECKS

    def test_theta_norms_are_uniform_between_half_s_and_s(self, env):
        norms = np.linalg.norm(env.theta_star, axis=-1) / self.S
        assert np.all((0.5 <= norms) & (norms < 1.0 + 1e-12))
        assert ks_uniform_pvalue(2.0 * norms - 1.0) >= self.FALSE_FAIL / self.CHECKS

    def test_directions_have_no_mean(self, env):
        arms = env.arms.reshape(-1, self.DIM)
        theta = env.theta_star
        for v in (arms, theta):
            directions = v / np.linalg.norm(v, axis=-1, keepdims=True)
            assert mean_direction_pvalue(directions) >= self.FALSE_FAIL / self.CHECKS

    def test_the_tests_reject_the_wrong_laws(self, env):
        # not vacuous: a radius u in place of u ** (1 / d), a norm S u in
        # place of S (1 + u) / 2, and directions all in one orthant fail
        radii = np.linalg.norm(env.arms, axis=-1).ravel()
        assert ks_uniform_pvalue(radii) < 1e-12
        norms = np.linalg.norm(env.theta_star, axis=-1) / self.S
        assert ks_uniform_pvalue(norms) < 1e-12
        arms = np.abs(env.arms.reshape(-1, self.DIM))
        assert mean_direction_pvalue(arms / np.linalg.norm(arms, axis=-1, keepdims=True)) < 1e-12


class TestRegretLedger:
    def test_example_sequence(self):
        env = two_arm_env()
        ledger = RegretLedger(env)
        # gaps: arm0 is optimal (0), arm1 gap 0.6, arm2 gap 0.9 - 0.72 = 0.18
        assert ledger.record(mean_reward(env, 0))[0] == pytest.approx(0.0)
        assert ledger.record(mean_reward(env, 1))[0] == pytest.approx(0.6)
        assert ledger.record(mean_reward(env, 2))[0] == pytest.approx(0.18)
        assert ledger.cumulative.shape == (1,)
        assert ledger.cumulative[0] == pytest.approx(0.78)

    def test_cumulative_is_prefix_sum_and_monotone(self, rng):
        env = two_arm_env()
        ledger = RegretLedger(env)
        prev = 0.0
        gaps = []
        for _ in range(200):
            gaps.append(ledger.record(mean_reward(env, int(rng.integers(3))))[0])
            assert ledger.cumulative[0] >= prev - 1e-15
            prev = ledger.cumulative[0]
        assert ledger.cumulative[0] == pytest.approx(sum(gaps))

    def test_gaps_are_non_negative(self):
        env = LinearBanditEnv.random(3, 12, NoiseModel(), 1.0, 12345)
        ledger = RegretLedger(env)
        for k in range(12):
            assert ledger.record(mean_reward(env, k))[0] >= 0.0

    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    @pytest.mark.parametrize("steps", [1, 7, block_steps(4)])
    def test_blocks_have_the_bits_of_a_step_by_step_sum(self, rng, stacked, steps):
        seeds = [31, 32, 33, 34]
        env = LinearBanditEnv.random(3, 9, NoiseModel(), 1.0, seeds if stacked else seeds[0])
        horizon = 2 * block_steps(4) + 9
        index = rng.integers(0, env.arm_count, (4, horizon))
        means = np.stack([env.pull(index[:, t])[1] for t in range(horizon)], axis=1)
        ledger = RegretLedger(env)
        blocks = [ledger.record(means[:, a : a + steps]) for a in range(0, horizon, steps)]
        gap, cum = (np.concatenate([block[k] for block in blocks], axis=1) for k in (0, 1))
        # the oracle: Python floats, cum = cum + gap one step after another
        optimal = np.broadcast_to(env.optimal_value, (4,)).tolist()
        want_gap, want_cum = [], []
        for best, row in zip(optimal, means.tolist()):
            total, gaps, sums = 0.0, [], []
            for mean in row:
                gaps.append(best - mean)
                total = total + gaps[-1]
                sums.append(total)
            want_gap.append(gaps)
            want_cum.append(sums)
        assert gap.shape == cum.shape == (4, horizon)
        assert np.array_equal(gap.view(np.int64), np.array(want_gap).view(np.int64))
        assert np.array_equal(cum.view(np.int64), np.array(want_cum).view(np.int64))
        assert ledger.cumulative.tolist() == [sums[-1] for sums in want_cum]
