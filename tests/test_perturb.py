import math

import mpmath
import numpy as np
import pytest

from linens.perturb import (
    TAG_INIT,
    TAG_NOISE,
    TAG_PHE,
    TAG_REWARD,
    ConfidenceParams,
    Keying,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    beta,
    ensemble_size,
    gamma,
    gamma_tilde,
    keyed_generator,
    mix_key,
    p_n,
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
        ],
    )
    def test_rejects_invalid(self, field, value):
        with pytest.raises(ValueError):
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
        assert stream.reward_perturbation(spec, 2, 17) == small[2]

    def test_initial_vector_matches_matrix_row(self):
        stream = PerturbationStream(5)
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 0.8)
        mat = stream.initial_matrix(spec, 6, 3, 2.0)
        np.testing.assert_array_equal(stream.initial_vector(spec, 4, 3, 2.0), mat[4])

    def test_reward_key_arity_enforced(self):
        spec = PerturbationSpec()
        by_step = PerturbationStream(1, keying=Keying.BY_STEP)
        with pytest.raises(ValueError):
            by_step.reward_vector(spec, 2, 3, 1)
        by_arm = PerturbationStream(1, keying=Keying.BY_ARM_COUNT)
        with pytest.raises(ValueError):
            by_arm.reward_vector(spec, 2, 3)

    def test_by_arm_count_keying_independent_of_step(self):
        # the draw for (arm, pull-count) must be replayable regardless of when
        # the pull happens
        stream = PerturbationStream(3, keying=Keying.BY_ARM_COUNT)
        spec = PerturbationSpec()
        first = stream.reward_vector(spec, 8, 2, 1)
        again = stream.reward_vector(spec, 8, 2, 1)
        other = stream.reward_vector(spec, 8, 2, 2)
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_unknown_keying_rejected(self):
        with pytest.raises(ValueError):
            PerturbationStream(0, keying="nope")


class TestReusedGenerator:
    """A stream's short-lived draws reuse one generator reset under each
    key; they must equal a fresh ``keyed_generator`` draw bit for bit.
    Odd sizes leave half-used uint32 buffers (rademacher, binomial) behind,
    which the next reset must clear."""

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_reward_vector_by_step(self, family):
        spec = PerturbationSpec(family, 1.3)
        stream = PerturbationStream(99)
        for t, n in ((1, 33), (2, 7), (2, 1), (17, 64)):
            want = spec.sample(keyed_generator(99, TAG_REWARD, t), n)
            np.testing.assert_array_equal(stream.reward_vector(spec, n, t), want)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_reward_vector_by_arm_count(self, family):
        spec = PerturbationSpec(family, 0.7)
        stream = PerturbationStream(3, keying=Keying.BY_ARM_COUNT)
        for arm, count, n in ((0, 1, 9), (2, 1, 4), (0, 2, 31)):
            want = spec.sample(keyed_generator(3, TAG_REWARD, arm, count), n)
            np.testing.assert_array_equal(stream.reward_vector(spec, n, arm, count), want)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_initial_matrix(self, family):
        spec = PerturbationSpec(family, 0.9)
        stream = PerturbationStream(5)
        stream.reward_vector(spec, 3, 1)  # leave the generator mid-stream
        want = math.sqrt(2.0) * spec.sample(keyed_generator(5, TAG_INIT), (7, 3))
        np.testing.assert_array_equal(stream.initial_matrix(spec, 7, 3, 2.0), want)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_history_perturbation_splits_one_key(self, family):
        spec = PerturbationSpec(family, 1.1)
        stream = PerturbationStream(8)
        for step, n in ((1, 0), (4, 3), (9, 8)):
            g = keyed_generator(8, TAG_PHE, step)
            want_w = math.sqrt(1.5) * spec.sample(g, 3)
            want_z = spec.sample(g, n)
            w, z = stream.history_perturbation(spec, step, 3, n, 1.5)
            np.testing.assert_array_equal(w, want_w)
            np.testing.assert_array_equal(z, want_z)

    def test_long_lived_generator_unaffected_by_short_lived_draws(self):
        spec = PerturbationSpec(PerturbationFamily.RADEMACHER, 1.0)
        stream = PerturbationStream(21)
        ref = keyed_generator(21, TAG_NOISE, 4)
        want = np.concatenate([ref.integers(0, 2, size=5), ref.standard_normal(4)])
        g = stream.generator(TAG_NOISE, 4)
        a = g.integers(0, 2, size=5)  # odd count: g keeps a buffered uint32
        stream.reward_vector(spec, 3, 1)
        stream.history_perturbation(spec, 2, 2, 1, 1.0)
        stream.initial_matrix(spec, 2, 2, 1.0)
        b = g.standard_normal(4)
        np.testing.assert_array_equal(np.concatenate([a, b]), want)


class TestPerturbationSpec:
    def test_invalid(self):
        with pytest.raises(ValueError):
            PerturbationSpec("cauchy", 1.0)
        with pytest.raises(ValueError):
            PerturbationSpec(PerturbationFamily.GAUSSIAN, -1.0)

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

    def test_zero_scale_samples_zero(self, rng):
        for fam in PerturbationFamily.ALL:
            s = PerturbationSpec(fam, 0.0)
            np.testing.assert_array_equal(s.sample(rng, 100), np.zeros(100))

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_symmetry_and_variance(self, family, rng):
        # normalized families are symmetric with variance in [1/2, 1]
        x = PerturbationSpec(family, 1.0).sample(rng, 200_000)
        assert abs(np.mean(x)) < 0.01
        v = np.var(x)
        assert 0.48 <= v <= 1.02
        # odd third moment vanishes by symmetry
        assert abs(np.mean(x**3)) < 0.02

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_sub_gaussian_tails(self, family, rng):
        # P(|Z| >= x) <= 2 exp(-x^2/2) for a 1-sub-Gaussian variable; allow
        # Monte-Carlo slack via the factor 1.25
        x = np.abs(PerturbationSpec(family, 1.0).sample(rng, 1_000_000))
        for thr in (1.0, 2.0, 3.0):
            emp = np.mean(x >= thr)
            assert emp <= 2.5 * math.exp(-thr * thr / 2.0)

    def test_scale_is_per_coordinate_std_bound(self, rng):
        # gaussian at scale 2: per-coordinate variance 4
        x = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.0).sample(rng, 400_000)
        assert np.var(x) == pytest.approx(4.0, rel=0.02)

    def test_rademacher_support(self, rng):
        x = PerturbationSpec(PerturbationFamily.RADEMACHER, 1.0).sample(rng, 1000)
        assert set(np.unique(x)) == {-1.0, 1.0}

    def test_binomial_support(self, rng):
        x = PerturbationSpec(PerturbationFamily.BINOMIAL, 1.0).sample(rng, 1000)
        assert set(np.unique(x)) <= {-1.0, 0.0, 1.0}

    def test_uniform_support(self, rng):
        x = PerturbationSpec(PerturbationFamily.UNIFORM, 1.0).sample(rng, 100_000)
        b = math.sqrt(3.0)
        assert np.all(np.abs(x) <= b)
        assert np.max(np.abs(x)) > 0.99 * b

    def test_spherical_support(self, rng):
        x = PerturbationSpec(PerturbationFamily.SPHERICAL, 1.0).sample(rng, 100_000)
        b = math.sqrt(2.0)
        assert np.all(np.abs(x) <= b + 1e-12)
        assert np.max(np.abs(x)) > 0.999 * b


class TestInitialDrawCalibration:
    def test_initial_std_is_sqrt_lam_times_scale(self):
        stream = PerturbationStream(11)
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 2.0)
        w = stream.initial_matrix(spec, 50_000, 4, 3.0)
        assert w.shape == (50_000, 4)
        want_var = 3.0 * 4.0  # lam * scale^2
        assert np.var(w) == pytest.approx(want_var, rel=0.02)

    def test_initial_norm_tail(self):
        # for the gaussian family,
        # P(||W|| >= sqrt(lam)*scale*(sqrt(d) + sqrt(2 log(2T/delta)))) <= delta/(2T)
        stream = PerturbationStream(21)
        d, lam, scale = 4, 2.0, 1.5
        delta, horizon = 0.4, 3
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, scale)
        w = stream.initial_matrix(spec, 1_000_000, d, lam)
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
