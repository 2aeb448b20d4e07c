import math

import mpmath
import numpy as np
import pytest

from linens import _kernels_py as kernels
from linens import perturb, policies
from linens.perturb import (
    DRAW_BLOCK,
    DRAW_VALUES,
    TAG_INIT,
    TAG_MODEL,
    TAG_PHE,
    TAG_REWARD,
    ConfidenceParams,
    ModelChoice,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    StepDraws,
    beta,
    block_steps,
    ensemble_size,
    gamma,
    gamma_tilde,
    _splitmix64,
    history_draws,
    initial_draws,
    keyed_generator,
    mix_key,
    p_n,
    reward_draws,
    seed_prefixes,
)

mpmath.mp.dps = 30


def make_params(**kw):
    base = dict(sigma=1.0, lam=1.0, s_bound=1.0, dim=2, horizon=10, delta=0.1)
    base.update(kw)
    return ConfidenceParams(**base)


class TestConfidenceParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("sigma", -0.1),
            ("lam", 0.0),
            ("s_bound", 0.0),
            ("dim", 0),
            ("horizon", 0),
            ("delta", 0.0),
            ("delta", 1.5),
            ("sigma", math.nan),
            ("lam", math.nan),
            ("s_bound", math.nan),
            ("delta", math.nan),
            ("sigma", math.inf),
            ("lam", math.inf),
            ("s_bound", math.inf),
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must .*, got {value}"):
            make_params(**{field: value})

    def test_delta_one_allowed(self):
        make_params(delta=1.0)


class TestBeta:
    def test_zero_steps_reduces_to_regularization_term(self):
        # at t=0 the log term vanishes and only sqrt(lam)*S remains
        p = make_params(sigma=1.0, lam=4.0, s_bound=0.5, delta=1.0)
        assert beta(p, 0) == pytest.approx(math.sqrt(4.0) * 0.5, abs=1e-15)

    def test_high_precision_oracle(self):
        # sigma=1, d=2, lam=1, S=1, delta=0.1, t=2
        p = make_params(dim=2, delta=0.1)
        want = float(mpmath.sqrt(2 * mpmath.log(2) + 2 * mpmath.log(10)) + 1)
        assert beta(p, 2) == pytest.approx(want, abs=1e-12)
        assert beta(p, 2) == pytest.approx(3.44774683068081654637602696486, abs=1e-12)

    def test_random_parameters_vs_mpmath(self, rng):
        for _ in range(20):
            p = make_params(
                sigma=float(rng.uniform(0.1, 3.0)),
                lam=float(rng.uniform(0.2, 5.0)),
                s_bound=float(rng.uniform(0.1, 4.0)),
                dim=int(rng.integers(1, 10)),
                delta=float(rng.uniform(0.01, 1.0)),
            )
            t = int(rng.integers(0, 5000))
            want = float(
                mpmath.mpf(p.sigma)
                * mpmath.sqrt(
                    p.dim * mpmath.log(1 + mpmath.mpf(t) / (p.dim * p.lam))
                    + 2 * mpmath.log(1 / mpmath.mpf(p.delta))
                )
                + mpmath.sqrt(p.lam) * p.s_bound
            )
            assert beta(p, t) == pytest.approx(want, rel=1e-12)

    def test_monotone_in_t_and_confidence(self):
        p = make_params()
        vals = [beta(p, t) for t in range(0, 200, 7)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        deltas = [0.5, 0.2, 0.1, 0.01]
        by_delta = [beta(make_params(delta=dl), 50) for dl in deltas]
        assert all(a < b for a, b in zip(by_delta, by_delta[1:]))

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            beta(make_params(), -1)


class TestGammaTilde:
    def test_high_precision_oracle(self):
        p = make_params(dim=3, horizon=50, delta=0.1)
        mp = mpmath.mpf
        L = mpmath.log(2 * 50 / mp("0.1"))
        log_term = 3 * mpmath.log(1 + mp(50) / 3)
        beta_T = mpmath.sqrt(log_term + 2 * mpmath.log(10)) + 1
        want = float(beta_T * (mpmath.sqrt(log_term + 2 * L) + mpmath.sqrt(3) + mpmath.sqrt(2 * L)))
        assert gamma_tilde(p) == pytest.approx(want, rel=1e-12)
        assert gamma_tilde(p) == pytest.approx(47.2175506281766811748276104639, rel=1e-12)

    def test_exceeds_sqrt_dim_times_beta(self):
        for d in (1, 2, 5, 9):
            p = make_params(dim=d, horizon=100)
            assert gamma_tilde(p) > math.sqrt(d) * beta(p, p.horizon)

    def test_gamma_is_sum(self):
        p = make_params(dim=4, horizon=200)
        assert gamma(p) == pytest.approx(gamma_tilde(p) + beta(p, p.horizon), abs=1e-12)


class TestEnsembleSize:
    def test_normal_tail_constant(self):
        want = float(mpmath.erfc(1 / mpmath.sqrt(2)) / 2)
        assert p_n() == pytest.approx(want, abs=1e-15)
        assert 0.15 <= p_n() <= 0.5
        assert p_n() == pytest.approx(0.158655253931457, abs=1e-12)

    def test_clamped_at_one(self):
        # horizon 1, delta 1: both log terms vanish
        p = make_params(horizon=1, delta=1.0)
        assert ensemble_size(p, 3) == 1

    def test_high_precision_oracle(self):
        p = make_params(horizon=1000, delta=0.05)
        pn = mpmath.erfc(1 / mpmath.sqrt(2)) / 2
        raw = (8 / pn**2) * (5 * mpmath.log(1000) + mpmath.log(20))
        assert ensemble_size(p, 5) == int(mpmath.ceil(raw)) == 11930

    def test_grows_with_arm_count(self):
        p = make_params(horizon=500, delta=0.1)
        sizes = [ensemble_size(p, k) for k in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_invalid_arm_count(self):
        with pytest.raises(ValueError):
            ensemble_size(make_params(), 0)


class TestKeyedStreams:
    def test_mix_key_is_pure_and_sensitive(self):
        assert mix_key(7, 1, 2) == mix_key(7, 1, 2)
        assert mix_key(7, 1, 2) != mix_key(7, 2, 1)
        assert mix_key(7, 1, 2) != mix_key(8, 1, 2)

    def test_generator_purity(self):
        a = keyed_generator(42, 5, 9).standard_normal(8)
        b = keyed_generator(42, 5, 9).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_generator_distinct_keys(self):
        a = keyed_generator(42, 5, 9).standard_normal(8)
        b = keyed_generator(42, 5, 10).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_leading_components_stable_across_vector_length(self):
        # model j's draw must depend only on (seed, j, key), not on how many
        # models the vector was drawn for
        stream = PerturbationStream(99)
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.3)
        small = stream.reward_vector(spec, 4, 17)
        large = stream.reward_vector(spec, 64, 17)
        np.testing.assert_array_equal(small, large[:4])
        assert stream.reward_vector(spec, 3, 17)[2] == small[2]

    def test_reward_vector_is_keyed_by_a_step_alone(self):
        # reward perturbations are keyed by step; an (arm, count) pair is
        # no key
        stream = PerturbationStream(1)
        with pytest.raises(TypeError):
            stream.reward_vector(PerturbationSpec(), 2, 3, 1)


GOLDEN = 0x9E3779B97F4A7C15

#: reward perturbation at scale 1 of each (seed, key, model) of KNOWN_KEYS
KNOWN_KEYS = ((99, (1,), 0), (99, (17,), 5), (3, (2, 1), 1), (3, (0, 2), 30))
KNOWN_ANSWERS = {
    "gaussian": (
        -0.8722256138555039, 0.07242363387748352, -1.3382347982000182, -0.609830846036798
    ),
    "uniform": (
        -1.4609079082959648, 0.8714344489117902, -0.3478808752451732, 0.28789384091336245
    ),
    "rademacher": (-1.0, 1.0, -1.0, 1.0),
    "spherical": (
        1.2466078455877723, 0.013874517236246142, -1.141901301582927, -1.2257456893681045
    ),
    "binomial": (-1.0, 1.0, 0.0, 0.0),
}


def reference_draw(family: str, seed: int, key: tuple, model: int, tag=TAG_REWARD) -> float:
    """The documented draw recipe, one value at a time in Python."""
    h = mix_key(seed, tag, *key)
    a, b = (_splitmix64((h + c * GOLDEN) & (2**64 - 1)) for c in (2 * model, 2 * model + 1))
    u = (a >> 11) * 2.0**-53
    if family == "gaussian":
        radius = math.sqrt(-2.0 * math.log(((a >> 11) + 1) * 2.0**-53))
        return radius * math.cos(2.0 * math.pi * (b >> 11) * 2.0**-53)
    if family == "uniform":
        return math.sqrt(3.0) * (2.0 * u - 1.0)
    if family == "rademacher":
        return 2.0 * (a >> 63) - 1.0
    if family == "spherical":
        return math.sqrt(2.0) * math.cos(2.0 * math.pi * u)
    return (a >> 63) + ((a >> 62) & 1) - 1.0


def known_draw(spec, seed: int, key: tuple, model: int) -> float:
    """Model ``model``'s reward draw under ``key``, a step or any other
    tuple of key parts that :func:`reward_draws` folds."""
    return reward_draws(spec, reward_prefixes([seed]), range(model + 1), *key)[0, model]


def reward_prefixes(seeds) -> np.ndarray:
    return np.array([mix_key(s, TAG_REWARD) for s in seeds], dtype=np.uint64)


class TestRewardDraws:
    """Reward perturbations come from one counter hash over a batch of
    replications, ``reward_draws``; a stream's reward vector is its batch
    of one."""

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_known_answers(self, family):
        spec = PerturbationSpec(family, 1.0)
        scaled = PerturbationSpec(family, 0.7)
        for (seed, key, model), want in zip(KNOWN_KEYS, KNOWN_ANSWERS[family]):
            got = known_draw(spec, seed, key, model)
            # exact for the bit-built families; numpy's log and cos may
            # round a last bit differently in another build
            assert got == pytest.approx(want, rel=1e-15, abs=0)
            assert got == pytest.approx(reference_draw(family, seed, key, model), rel=1e-13)
            assert known_draw(scaled, seed, key, model) == 0.7 * got

    def test_seed_prefixes_read_each_seed_as_an_int(self):
        # numpy integers, a uint64 seed past 2**63 among them, have the
        # prefixes of the same Python ints
        got = seed_prefixes([np.uint64(2**64 - 1), np.int64(5), 7], TAG_REWARD)
        assert got.dtype == np.uint64
        assert got.tolist() == [mix_key(s, TAG_REWARD) for s in (2**64 - 1, 5, 7)]
        np.testing.assert_array_equal(reward_prefixes([2**64 - 1, 5, 7]), got)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_component_is_pure_in_seed_model_and_key(self, family):
        # component j is the same bits whatever the ensemble size, the
        # models asked for, the batch and the position in it
        spec = PerturbationSpec(family, 1.3)
        seeds = [4, 11, 4, 2**63 + 5, 0]
        prefixes = reward_prefixes(seeds)
        full = reward_draws(spec, prefixes, range(64), 9)
        assert full.shape == (5, 64)
        for n in (1, 3, 17):
            np.testing.assert_array_equal(reward_draws(spec, prefixes, range(n), 9), full[:, :n])
        np.testing.assert_array_equal(
            reward_draws(spec, prefixes, range(20, 23), 9), full[:, 20:23]
        )
        np.testing.assert_array_equal(full[0], full[2])
        reversed_batch = reward_draws(spec, prefixes[::-1], range(64), 9)
        for r in range(5):
            alone = reward_draws(spec, prefixes[r : r + 1], range(64), 9)[0]
            assert alone.tobytes() == full[r].tobytes() == reversed_batch[4 - r].tobytes()
        # an index array reads the models it names, unsorted and repeated
        index = np.array([20, 3, 3, 63])
        np.testing.assert_array_equal(reward_draws(spec, prefixes, index, 9), full[:, index])
        # an (R, 1) index reads one model per replication
        rows, own = np.arange(5), np.array([7, 0, 63, 7, 20])
        each = reward_draws(spec, prefixes, own[:, None], 9)
        assert each.shape == (5, 1)
        np.testing.assert_array_equal(each[:, 0], full[rows, own])
        want = [1.3 * reference_draw(family, s, (9,), int(j)) for s, j in zip(seeds, own)]
        np.testing.assert_allclose(each[:, 0], want, rtol=1e-13, atol=0)
        # an array of keys hashes each key as its own call would: each
        # replication's model over steps 1..40, as the lazy ensemble's
        # replay reads it, with an (R, 1, 1) index
        column = reward_draws(spec, prefixes[:, None], own[:, None, None], np.arange(1, 41))
        assert column.shape == (5, 40, 1)
        for t in (1, 9, 40):
            np.testing.assert_array_equal(
                column[:, t - 1, 0], reward_draws(spec, prefixes, range(64), t)[rows, own]
            )
        assert not np.array_equal(full[0], full[1])
        assert not np.array_equal(full[0], reward_draws(spec, prefixes, range(64), 10)[0])
        # a negative index names no model: it is refused, not read as 2**64 - 1
        with pytest.raises(ValueError, match="model index -1 is negative"):
            reward_draws(spec, prefixes, np.array([3, -1]), 9)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_batch_of_r_equals_r_streams_of_one(self, family):
        spec = PerturbationSpec(family, 0.9)
        seeds = [3, 99, 12345, 7, 3]
        batch = reward_draws(spec, reward_prefixes(seeds), range(33), 5)
        for row, seed in zip(batch, seeds):
            alone = PerturbationStream(seed).reward_vector(spec, 33, 5)
            assert row.tobytes() == alone.tobytes()


#: at scale 1 and lambda 1: seed 5's (2, 2) initial matrix, row by row, then
#: seed 8's step-3 history draws for dim 2 and one row, w before z
KNOWN_INITIAL_AND_HISTORY = {
    "gaussian": (
        -1.374911093634068, 0.7019724493419698, 2.11095641489143, 0.09475281851266436,
        0.3011684944242208, -1.2582334188132471, 0.5872366922875165,
    ),
    "uniform": (
        -0.4250130878569902, 0.9707309035527532, -1.5176404931448975, 0.6089352326669406,
        1.426569192138433, -1.5732655141929084, 0.14006930790111127,
    ),
    "rademacher": (-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0),
    "spherical": (
        -1.0144039219570153, 0.2669684438382643, 1.3086110314241364, -0.6358209603710403,
        1.2026240580912666, 1.3559656954292432, -1.368818122446942,
    ),
    "binomial": (0.0, 1.0, -1.0, 0.0, 1.0, -1.0, 0.0),
}


class TestInitialAndHistoryDraws:
    """Initial matrices and perturbed-history draws are ``reward_draws``
    calls too: under the ``TAG_INIT`` prefix with no key, where coordinate
    c of row j is model ``j*dim + c``, and under the ``TAG_PHE`` prefix
    keyed by the step, where the prior's ``dim`` coordinates come first and
    history row i is model ``dim + i``."""

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_known_answers(self, family):
        spec = PerturbationSpec(family, 1.0)
        w, z = history_draws(spec, seed_prefixes([8], TAG_PHE), 3, 2, 1, 1.0)
        initial = initial_draws(spec, seed_prefixes([5], TAG_INIT), 2, 2, 1.0)
        got = np.concatenate([initial.ravel(), w[0], z[0]])
        # exact for the bit-built families; numpy's log and cos may round a
        # last bit differently in another build
        np.testing.assert_allclose(got, KNOWN_INITIAL_AND_HISTORY[family], rtol=1e-15, atol=0)
        want = [reference_draw(family, 5, (), j, TAG_INIT) for j in range(4)]
        want += [reference_draw(family, 8, (3,), j, TAG_PHE) for j in range(3)]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_initial_draws_are_one_flat_call(self, family):
        spec = PerturbationSpec(family, 0.9)
        got = initial_draws(spec, seed_prefixes([5], TAG_INIT), 7, 3, 4.0)
        flat = reward_draws(spec, [mix_key(5, TAG_INIT)], range(21))[0]
        assert got.shape == (1, 7, 3)
        np.testing.assert_array_equal(got[0], 2.0 * flat.reshape(7, 3))

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_history_draws_split_one_key(self, family):
        spec = PerturbationSpec(family, 1.1)
        prefix = [mix_key(8, TAG_PHE)]
        for step, n in ((1, 0), (4, 3), (9, 8)):
            w, z = history_draws(spec, seed_prefixes([8], TAG_PHE), step, 3, n, 4.0)
            flat = reward_draws(spec, prefix, range(3 + n), step)[0]
            assert w.shape == (1, 3) and z.shape == (1, n)
            np.testing.assert_array_equal(w[0], 2.0 * flat[:3])
            np.testing.assert_array_equal(z[0], flat[3:])
            # w / sqrt(lam) is the d values the gaussian closed form draws
            np.testing.assert_array_equal(w / 2.0, reward_draws(spec, prefix, range(3), step))

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_initial_row_is_pure_in_seed_and_model(self, family):
        # row j is the same bits whatever the ensemble size, the batch and
        # the position in it
        spec = PerturbationSpec(family, 0.8)
        prefix = seed_prefixes([5], TAG_INIT)
        full = initial_draws(spec, prefix, 6, 3, 2.0)[0]
        for n in (1, 4):
            np.testing.assert_array_equal(initial_draws(spec, prefix, n, 3, 2.0)[0], full[:n])
        batch = initial_draws(spec, seed_prefixes([9, 5, 2**63 + 1, 5], TAG_INIT), 40, 3, 2.0)
        assert batch.shape == (4, 40, 3)
        for r in (1, 3):
            assert batch[r, :6].tobytes() == full.tobytes()
        assert not np.array_equal(batch[0, :6], full)


def hashed(family: str, rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """``(rows, cols)`` reward draws at scale 1: one replication per row,
    keyed by step 1, and one model per column."""
    prefixes = reward_prefixes(range(seed * rows, (seed + 1) * rows))
    return reward_draws(PerturbationSpec(family, 1.0), prefixes, range(cols), 1)


class TestKeyedStepDraws:
    """By-step keyed perturbations are drawn a block of steps at a time,
    and each step's row is the bits of the call keyed by that step alone."""

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    @pytest.mark.parametrize("seeds", [[6], [6, 2**64 - 1, 13]], ids=["R1", "R3"])
    @pytest.mark.parametrize(
        "models",
        [range(5), range(3, 1003), np.array([900, 3, 3, 41]), "per-replication"],
        ids=["long", "short", "index-set", "per-replication"],
    )
    def test_block_rows_equal_per_step_draws(self, family, seeds, models):
        # long blocks hold 64 steps, short ones 16384 // (R * 1000) steps;
        # a block is sized by the values one step draws, R for an (R, 1)
        # index; every run crosses at least two block boundaries
        spec = PerturbationSpec(family, 1.7)
        prefixes = reward_prefixes(seeds)
        if isinstance(models, str):
            models = (np.arange(len(seeds)) * 37 + 5)[:, None]
        width = np.shape(models)[-1]
        draws = StepDraws(spec, prefixes, models)
        steps = 2 * block_steps(len(seeds) * width) + 3
        for t in range(1, steps + 1):
            want = reward_draws(spec, prefixes, models, t)
            got = draws.at(t)
            assert got.shape == (len(seeds), width)
            assert got.tobytes() == want.tobytes()
        # a keyed block is read at any step, in any order
        for t in (2, steps, 1, DRAW_BLOCK + 1):
            want = reward_draws(spec, prefixes, models, t)
            assert draws.at(t).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "width,block",
        [(1, DRAW_BLOCK), (DRAW_VALUES // 5, 5), (DRAW_VALUES // 2, 2), (DRAW_VALUES + 1, 1)],
    )
    @pytest.mark.parametrize("per_replication", [False, True], ids=["shared", "per-replication"])
    def test_block_length_is_bounded_by_the_value_budget(
        self, monkeypatch, width, block, per_replication
    ):
        # a step draws width values: width models of one replication, or
        # one model in each of width replications, an (R, 1) index
        calls = []

        def spy(spec, prefixes, models, *key):
            calls.append(np.shape(key[0]))
            return reward_draws(spec, prefixes, models, *key)

        monkeypatch.setattr(perturb, "reward_draws", spy)
        if per_replication:
            prefixes, models = reward_prefixes(range(width)), np.zeros((width, 1), dtype=int)
        else:
            prefixes, models = reward_prefixes([1]), range(width)
        draws = StepDraws(PerturbationSpec(), prefixes, models)
        for t in range(1, block + 2):
            draws.at(t)
        assert calls == [(block, 1), (block, 1)]
        assert block_steps(width) == block

    def test_an_ensemble_draws_by_step_in_blocks(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args[3:])
            return reward_draws(*args)

        monkeypatch.setattr(perturb, "reward_draws", spy)
        monkeypatch.setattr(policies, "reward_draws", spy)
        spec = PerturbationSpec("gaussian", 0.5)
        policy = policies.EnsembleSampling(
            2, 1.0, 8, spec, [3, 4], sampler=policies.Sampler.ROUND_ROBIN
        )
        calls.clear()  # the initial matrices
        x = np.array([[0.6, 0.0], [0.0, 0.6]])
        for _ in range(DRAW_BLOCK + 1):
            policy.update(x, np.zeros(2))
        # one (64, 1) array of steps, then the next block's
        assert [np.shape(key[0]) for key in calls] == [(DRAW_BLOCK, 1)] * 2
        monkeypatch.undo()
        oracle = policies.EnsembleSampling(
            2, 1.0, 8, spec, [3, 4], sampler=policies.Sampler.ROUND_ROBIN
        )
        for t in range(1, DRAW_BLOCK + 2):
            z = reward_draws(spec, reward_prefixes([3, 4]), range(8), t)
            kernels.accumulate_perturbed(oracle.s_vectors.swapaxes(-1, -2), x, z)
        assert policy.s_vectors.tobytes() == oracle.s_vectors.tobytes()


class TestRewardDrawDistribution:
    """The hash's bits mapped onto each family follow the family's law:
    the checks ``TestPerturbationSpec`` makes of ``spec.sample``, and
    criterion 5's directional anti-concentration floor."""

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_symmetry_and_variance(self, family):
        x = hashed(family, 1000, 200)
        assert abs(np.mean(x)) < 0.01
        assert 0.48 <= np.var(x) <= 1.02
        assert abs(np.mean(x**3)) < 0.02

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_sub_gaussian_tails(self, family):
        x = np.abs(hashed(family, 2000, 500, seed=1))
        for thr in (1.0, 2.0, 3.0):
            assert np.mean(x >= thr) <= 2.5 * math.exp(-thr * thr / 2.0)

    def test_gaussian_tail_matches_normal_tail(self):
        x = hashed(PerturbationFamily.GAUSSIAN, 2000, 500, seed=2)
        assert np.var(x) == pytest.approx(1.0, rel=0.01)
        assert np.mean(x >= 1.0) == pytest.approx(p_n(), abs=0.002)
        assert np.mean(x >= 2.0) == pytest.approx(0.5 * math.erfc(math.sqrt(2.0)), abs=0.001)

    def test_supports(self):
        rademacher = hashed(PerturbationFamily.RADEMACHER, 100, 10)
        assert set(np.unique(rademacher)) == {-1.0, 1.0}
        binomial = hashed(PerturbationFamily.BINOMIAL, 100, 10)
        assert set(np.unique(binomial)) == {-1.0, 0.0, 1.0}
        for family, bound, reach in (
            (PerturbationFamily.UNIFORM, math.sqrt(3.0), 0.99),
            (PerturbationFamily.SPHERICAL, math.sqrt(2.0), 0.999),
        ):
            x = np.abs(hashed(family, 1000, 100))
            assert np.all(x <= bound + 1e-12)
            assert np.max(x) > reach * bound

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_directional_anti_concentration_floor(self, family):
        # criterion 5's directions, threshold and tolerance, on 16-model
        # vectors of 200,000 replications
        spec = PerturbationSpec(family, 1.0)
        directions = np.random.default_rng(123).standard_normal((10, 16))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        z = hashed(family, 200_000, 16, seed=3)
        rates = np.mean(z @ directions.T >= spec.anti_conc_threshold, axis=0)
        assert rates.min() >= spec.anti_conc_floor - 0.005


class TestPerturbationSpec:
    def test_invalid(self):
        with pytest.raises(ValueError, match="perturbation family must be one of .*, got 'cauchy'"):
            PerturbationSpec("cauchy", 1.0)
        for scale in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"scale must .*, got {scale}"):
                PerturbationSpec(PerturbationFamily.GAUSSIAN, scale)

    def test_anti_concentration_parameters(self):
        g = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.0)
        assert g.anti_conc_threshold == 2.0
        assert g.anti_conc_floor == pytest.approx(p_n())
        for fam in (
            PerturbationFamily.UNIFORM,
            PerturbationFamily.RADEMACHER,
            PerturbationFamily.SPHERICAL,
            PerturbationFamily.BINOMIAL,
        ):
            s = PerturbationSpec(fam, 2.0)
            assert s.anti_conc_threshold == pytest.approx(2.0 / 3.0)
            assert s.anti_conc_floor == 0.01

    def test_zero_scale_samples_zero(self):
        for fam in PerturbationFamily.ALL:
            s = PerturbationSpec(fam, 0.0)
            np.testing.assert_array_equal(s.sample(1, 100), np.zeros(100))

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_sample_is_the_initial_draws_at_unit_lambda(self, family):
        spec = PerturbationSpec(family, 1.3)
        w = initial_draws(spec, seed_prefixes([17], TAG_INIT), 6, 4, 1.0)[0]
        assert spec.sample(17, (6, 4)).tobytes() == w.tobytes()
        assert spec.sample(17, 24).tobytes() == w.reshape(-1).tobytes()

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_symmetry_and_variance(self, family):
        # normalized families are symmetric with variance in [1/2, 1]
        x = PerturbationSpec(family, 1.0).sample(2, 200_000)
        assert abs(np.mean(x)) < 0.01
        v = np.var(x)
        assert 0.48 <= v <= 1.02
        # odd third moment vanishes by symmetry
        assert abs(np.mean(x**3)) < 0.02

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_sub_gaussian_tails(self, family):
        # P(|Z| >= x) <= 2 exp(-x^2/2) for a 1-sub-Gaussian variable; allow
        # Monte-Carlo slack via the factor 1.25
        x = np.abs(PerturbationSpec(family, 1.0).sample(3, 1_000_000))
        for thr in (1.0, 2.0, 3.0):
            emp = np.mean(x >= thr)
            assert emp <= 2.5 * math.exp(-thr * thr / 2.0)

    def test_scale_is_per_coordinate_std_bound(self):
        # gaussian at scale 2: per-coordinate variance 4
        x = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.0).sample(4, 400_000)
        assert np.var(x) == pytest.approx(4.0, rel=0.02)

    def test_rademacher_support(self):
        x = PerturbationSpec(PerturbationFamily.RADEMACHER, 1.0).sample(5, 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_binomial_support(self):
        x = PerturbationSpec(PerturbationFamily.BINOMIAL, 1.0).sample(6, 1000)
        assert set(np.unique(x)) <= {-1.0, 0.0, 1.0}

    def test_uniform_support(self):
        x = PerturbationSpec(PerturbationFamily.UNIFORM, 1.0).sample(7, 100_000)
        b = math.sqrt(3.0)
        assert np.all(np.abs(x) <= b)
        assert np.max(np.abs(x)) > 0.99 * b

    def test_spherical_support(self):
        x = PerturbationSpec(PerturbationFamily.SPHERICAL, 1.0).sample(8, 100_000)
        b = math.sqrt(2.0)
        assert np.all(np.abs(x) <= b + 1e-12)
        assert np.max(np.abs(x)) > 0.999 * b


class TestModelChoice:
    """Uniform model choice: ``floor(u * m)`` of a 53-bit uniform."""

    @pytest.mark.parametrize("m", [2, 3, 7, 8, 32, 100])
    def test_chi_square_over_m_bins(self, m):
        # 200 draws per bin on average, one per (stream, step)
        n = 200 * m
        prefixes = np.array([mix_key(s, TAG_MODEL) for s in range(n // 10)], dtype=np.uint64)
        steps = np.arange(1, 11)[:, None]
        j = reward_draws(ModelChoice(m), prefixes, range(1), steps).reshape(-1)
        assert j.min() >= 0 and j.max() <= m - 1
        counts = np.bincount(j, minlength=m)
        expected = len(j) / m
        chi2 = float(np.sum((counts - expected) ** 2) / expected)
        p_value = float(mpmath.gammainc((m - 1) / 2.0, chi2 / 2.0, mpmath.inf, regularized=True))
        assert p_value > 1e-3, (chi2, counts)

    @pytest.mark.parametrize("m", [1, 3, 10, 2**20 + 1, 2**40 + 3, 2**53 - 1])
    def test_extreme_words_stay_in_range(self, m):
        words = np.array([[0], [2**11 - 1], [2**64 - 2**11], [2**64 - 1]], dtype=np.uint64)
        j = ModelChoice(m).values(words)
        assert j.tolist() == [0, 0, m - 1, m - 1]

    def test_known_answer(self):
        # integer floor(m * k / 2^53) of the top 53 bits k of word 0
        for seed, t, m in ((0, 1, 5), (9, 40, 33), (2**64 - 1, 7, 1000)):
            prefix = mix_key(seed, TAG_MODEL)
            word = _splitmix64(mix_key(seed, TAG_MODEL, t))
            got = reward_draws(ModelChoice(m), [prefix], range(1), t)
            assert got.tolist() == [[((word >> 11) * m) >> 53]]


class TestInitialDrawCalibration:
    def test_initial_std_is_sqrt_lam_times_scale(self):
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.0)
        w = initial_draws(spec, seed_prefixes([11], TAG_INIT), 50_000, 4, 3.0)
        assert w.shape == (1, 50_000, 4)
        want_var = 3.0 * 4.0  # lam * scale^2
        assert np.var(w) == pytest.approx(want_var, rel=0.02)

    def test_initial_norm_tail(self):
        # for the gaussian family,
        # P(||W|| >= sqrt(lam)*scale*(sqrt(d) + sqrt(2 log(2T/delta)))) <= delta/(2T)
        d, lam, scale = 4, 2.0, 1.5
        delta, horizon = 0.4, 3
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, scale)
        w = initial_draws(spec, seed_prefixes([21], TAG_INIT), 1_000_000, d, lam)[0]
        radius = math.sqrt(lam) * scale * (
            math.sqrt(d) + math.sqrt(2.0 * math.log(2.0 * horizon / delta))
        )
        emp = np.mean(np.linalg.norm(w, axis=1) >= radius)
        assert emp <= 1.5 * delta / (2.0 * horizon)

    def test_reward_tail_matches_normal_tail(self):
        # P(Z >= scale) for the gaussian family is the standard-normal upper
        # tail at 1
        stream = PerturbationStream(31)
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.5)
        z = np.concatenate(
            [stream.reward_vector(spec, 100_000, t) for t in range(1, 11)]
        )
        emp = np.mean(z >= spec.scale)
        assert emp == pytest.approx(p_n(), abs=0.002)
