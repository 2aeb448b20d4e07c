import math
from statistics import NormalDist

import numpy as np
import pytest

from linens.diagnostics import StepMonitor
from linens.envs import LinearBanditEnv, NoiseModel
from linens.perturb import (
    DRAW_BLOCK,
    TAG_INIT,
    TAG_MODEL,
    TAG_PHE,
    ConfidenceParams,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    beta,
    _splitmix64,
    history_draws,
    initial_draws,
    mix_key,
    reward_draws,
    seed_prefixes,
)
from linens.policies import (
    EnsembleSampling,
    GreedyRidge,
    InvalidStateError,
    LinPHE,
    LinTS,
    LinUCB,
    PerturbedHistoryReplay,
    Sampler,
    argmax_smallest_index,
)

from conftest import kolmogorov_pvalue, random_unit_ball

ZERO = PerturbationSpec(PerturbationFamily.GAUSSIAN, 0.0)


def make_ensemble(dim=2, lam=1.0, m=4, scale=1.0, seed=3, sampler=Sampler.UNIFORM):
    spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, scale)
    policy = EnsembleSampling(dim, lam, m, spec, [seed], sampler=sampler)
    return policy, spec, PerturbationStream(seed)


def drive(policy, rng, dim, steps, reward_rng=None):
    """Feed a batch-of-one policy `steps` random unit-ball observations;
    returns (xs, ys), one row per step."""
    reward_rng = reward_rng or rng
    xs, ys = [], []
    for _ in range(steps):
        x = random_unit_ball(rng, dim)
        y = float(reward_rng.standard_normal())
        policy.update(x[None], np.array([y]))
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys)


class TestArgmax:
    def test_first_maximizer_wins(self):
        assert argmax_smallest_index(np.array([1.0, 3.0, 3.0, 2.0])) == 1
        assert argmax_smallest_index(np.array([5.0])) == 0
        assert argmax_smallest_index(np.array([2.0, 2.0, 2.0])) == 0


class TestGreedyRidge:
    def test_initial_estimate_is_zero(self):
        g = GreedyRidge(3, 1.0)
        np.testing.assert_array_equal(g.ridge_estimate(), np.zeros((1, 3)))

    def test_closed_form_ridge(self, rng):
        g = GreedyRidge(3, 2.0)
        xs, ys = drive(g, rng, 3, 40)
        want = np.linalg.solve(2.0 * np.eye(3) + xs.T @ xs, xs.T @ ys)
        np.testing.assert_allclose(g.ridge_estimate()[0], want, atol=1e-9)

    def test_select_is_greedy(self, rng):
        g = GreedyRidge(2, 1.0)
        drive(g, rng, 2, 10)
        arms = random_unit_ball(rng, 2, count=6)
        sel = g.select(arms)
        assert sel.arm_index.shape == sel.model_index.shape == (1,)
        assert sel.arm_index[0] == int(np.argmax(arms @ g.ridge_estimate()[0]))
        assert sel.model_index[0] == -1


class TestEnsembleInit:
    def test_initial_sums_are_the_keyed_draws(self):
        policy, spec, stream = make_ensemble(dim=3, lam=2.0, m=5, scale=1.4)
        prefixes = seed_prefixes([stream.base_seed], TAG_INIT)
        np.testing.assert_array_equal(policy.s_vectors, initial_draws(spec, prefixes, 5, 3, 2.0))

    def test_initial_thetas_are_draws_over_lam(self):
        lam = 2.0
        policy, spec, stream = make_ensemble(dim=3, lam=lam, m=5, scale=1.4)
        w = initial_draws(spec, seed_prefixes([stream.base_seed], TAG_INIT), 5, 3, lam)[0]
        np.testing.assert_allclose(policy.thetas()[0], w / lam, atol=1e-12)
        for j in range(5):
            np.testing.assert_allclose(policy.model_theta([j])[0], w[j] / lam, atol=1e-12)

    def test_zero_scale_starts_at_zero(self):
        policy, _, _ = make_ensemble(scale=0.0)
        np.testing.assert_array_equal(policy.s_vectors, np.zeros((1, 4, 2)))

    def test_same_seed_identical_state(self):
        a, _, _ = make_ensemble(seed=9)
        b, _, _ = make_ensemble(seed=9)
        np.testing.assert_array_equal(a.s_vectors, b.s_vectors)

    @pytest.mark.parametrize("seeds", [[3], [3, 4, 5]], ids=["R1", "R3"])
    def test_s_vectors_write_through_to_the_sums(self, seeds):
        # s_vectors is an (R, m, d) view of the model-last sums; at step 0
        # and lam = 1 each estimator is its sum exactly
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
        policy = EnsembleSampling(2, 1.0, 3, spec, seeds)
        batch = len(seeds)
        policy.s_vectors[:, 1, :] = [0.5, -0.25]
        want = np.broadcast_to([0.5, -0.25], (batch, 2))
        np.testing.assert_array_equal(policy.s_vectors[:, 1, :], want)
        np.testing.assert_array_equal(policy.model_theta(np.full(batch, 1)), want)
        np.testing.assert_array_equal(policy.thetas()[:, 1, :], want)

    @pytest.mark.parametrize("seeds", [[3], [3, 4, 5]], ids=["R1", "R3"])
    def test_thetas_multiply_a_contiguous_copy_of_the_sums(self, rng, seeds):
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
        policy = EnsembleSampling(3, 1.0, 6, spec, seeds)
        batch = len(seeds)
        for _ in range(5):
            x = random_unit_ball(rng, 3, count=batch).reshape(batch, 3)
            policy.update(x, rng.standard_normal(batch))
        assert not policy.s_vectors.flags.c_contiguous
        want = np.matmul(np.array(policy.s_vectors), policy.gram.gram_inv)
        assert policy.thetas().tobytes() == want.tobytes()

    def test_invalid_args(self):
        spec = PerturbationSpec()
        with pytest.raises(ValueError):
            EnsembleSampling(2, 1.0, 0, spec, [0])
        with pytest.raises(ValueError):
            EnsembleSampling(2, 1.0, 2, spec, [0], sampler="bogus")


class TestEnsembleSelect:
    def test_single_model_always_chosen(self, rng):
        policy, _, _ = make_ensemble(m=1)
        arms = random_unit_ball(rng, 2, count=4)
        for _ in range(5):
            sel = policy.select(arms)
            assert sel.model_index[0] == 0
            policy.update(arms[sel.arm_index], np.zeros(1))

    def test_true_parameter_selects_true_best_arm(self):
        env = LinearBanditEnv.random(2, 8, NoiseModel(sigma=0.0), 1.0, 12345)
        policy, _, _ = make_ensemble(m=3, scale=0.0)
        # plant the true parameter: s = lam * theta* gives theta_j = theta*
        policy.s_vectors[:] = policy.lam * env.theta_star
        sel = policy.select(env.arms)
        assert sel.arm_index[0] == env.optimal_arm_index
        np.testing.assert_allclose(sel.theta[0], env.theta_star, atol=1e-12)

    def test_uniform_sampler_frequencies(self, rng):
        # model choice is keyed by step: 2000 replications for 20 steps
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
        policy = EnsembleSampling(2, 1.0, 8, spec, list(range(2000)))
        arms = random_unit_ball(rng, 2, count=3)
        counts = np.zeros(8)
        for _ in range(20):
            sel = policy.select(arms)
            counts += np.bincount(sel.model_index, minlength=8)
            policy.update(arms[sel.arm_index], np.zeros(2000))
        np.testing.assert_allclose(counts / 40_000, np.full(8, 1 / 8), atol=0.01)

    def test_uniform_choice_is_the_keyed_model_draw(self, rng):
        # known answer: step t's model is floor(m * u) of the top 53 bits u
        # of word 0 of the key (seed, TAG_MODEL, t), in integer arithmetic
        policy, _, _ = make_ensemble(m=5, seed=21)
        arms = random_unit_ball(rng, 2, count=3)
        for t in range(1, 80):
            word = _splitmix64(mix_key(21, TAG_MODEL, t))
            sel = policy.select(arms)
            assert sel.model_index[0] == ((word >> 11) * 5) >> 53
            policy.update(arms[sel.arm_index], np.zeros(1))

    def test_round_robin_order_and_exhaustion(self, rng):
        policy, _, _ = make_ensemble(m=3, sampler=Sampler.ROUND_ROBIN)
        arms = random_unit_ball(rng, 2, count=4)
        for expect in range(3):
            sel = policy.select(arms)
            assert sel.model_index[0] == expect
            policy.update(arms[sel.arm_index], np.zeros(1))
        with pytest.raises(InvalidStateError, match="exhausted"):
            policy.select(arms)


class TestEnsembleUpdate:
    def test_one_step_closed_form(self):
        # lam=1, zero perturbations, x=(1,0), y=3: V=diag(2,1), s=(3,0)
        policy, _, _ = make_ensemble(dim=2, lam=1.0, m=2, scale=0.0)
        policy.update(np.array([[1.0, 0.0]]), np.array([3.0]))
        np.testing.assert_allclose(policy.model_theta([0]), [[1.5, 0.0]], atol=1e-12)
        np.testing.assert_allclose(policy.model_theta([1]), [[1.5, 0.0]], atol=1e-12)

    def test_batch_least_squares_oracle(self, rng):
        # every member equals the ridge solution of its perturbed history
        dim, m, lam, steps = 4, 8, 1.5, 50
        policy, spec, stream = make_ensemble(dim=dim, lam=lam, m=m, scale=0.9)
        w = initial_draws(spec, seed_prefixes([stream.base_seed], TAG_INIT), m, dim, lam)[0]
        xs, ys = drive(policy, rng, dim, steps)
        z = np.array([stream.reward_vector(spec, m, t) for t in range(1, steps + 1)])
        v = lam * np.eye(dim) + xs.T @ xs
        for j in range(m):
            target = w[j] + xs.T @ (ys + z[:, j])
            want = np.linalg.solve(v, target)
            np.testing.assert_allclose(policy.model_theta([j])[0], want, atol=1e-8)
        np.testing.assert_allclose(policy.thetas()[:, 3], policy.model_theta([3]), atol=1e-10)

    def test_decomposition_into_ridge_plus_perturbation(self, rng):
        dim, m, lam, steps = 3, 5, 1.0, 30
        policy, spec, stream = make_ensemble(dim=dim, lam=lam, m=m, scale=1.2)
        w = initial_draws(spec, seed_prefixes([stream.base_seed], TAG_INIT), m, dim, lam)[0]
        xs, _ = drive(policy, rng, dim, steps)
        z = np.array([stream.reward_vector(spec, m, t) for t in range(1, steps + 1)])
        theta_hat = policy.ridge_estimate()
        v = lam * np.eye(dim) + xs.T @ xs
        for j in range(m):
            tilde = np.linalg.solve(v, w[j] + xs.T @ z[:, j])
            np.testing.assert_allclose(
                policy.model_theta([j])[0] - theta_hat[0], tilde, atol=1e-9
            )

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_sums_replay_from_the_per_step_stream(self, rng, family):
        # every reward perturbation is keyed by its step alone: whichever
        # arms were pulled, the sums are the initial draws plus each step's
        # reward and stream vector, across more than one block of steps
        dim, m, lam, steps = 3, 6, 1.5, 2 * DRAW_BLOCK + 5
        spec = PerturbationSpec(family, 0.8)
        stream = PerturbationStream(7)
        policy = EnsembleSampling(dim, lam, m, spec, [7])
        w = initial_draws(spec, seed_prefixes([7], TAG_INIT), m, dim, lam)[0]
        xs, ys = drive(policy, rng, dim, steps)
        z = np.array([stream.reward_vector(spec, m, t) for t in range(1, steps + 1)])
        want = w + (ys[:, None] + z).T @ xs
        np.testing.assert_allclose(policy.s_vectors[0], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_the_first_models_do_not_depend_on_the_ensemble_size(self, rng, family):
        # model j draws under (seed, j, step) alone: a larger ensemble, whose
        # blocks hold fewer steps, holds the smaller one's sums bit for bit
        spec = PerturbationSpec(family, 1.1)
        small = EnsembleSampling(2, 1.0, 3, spec, [4, 9])
        large = EnsembleSampling(2, 1.0, 700, spec, [4, 9])
        for _ in range(40):
            x = np.stack([random_unit_ball(rng, 2) for _ in range(2)])
            y = rng.standard_normal(2)
            for policy in (small, large):
                policy.update(x, y)
        assert small.s_vectors.tobytes() == large.s_vectors[:, :3].tobytes()


class TestLinPHE:
    def make(self, dim=2, lam=1.0, scale=1.0, seed=5, family="gaussian"):
        """The policy, its spec, and the ``TAG_PHE`` prefix of its seed."""
        spec = PerturbationSpec(family, scale)
        policy = LinPHE(dim, lam, spec, [seed])
        return policy, spec, seed_prefixes([seed], TAG_PHE)

    # the O(t) path: every family but gaussian re-perturbs the stored history

    def test_first_estimator_is_initial_draw_over_lam(self):
        lam = 2.0
        policy, spec, prefix = self.make(dim=3, lam=lam, scale=1.3, seed=8, family="rademacher")
        w, _ = history_draws(spec, prefix, 1, 3, 0, lam)
        np.testing.assert_allclose(policy.estimator(), w / lam, atol=1e-12)

    def test_zero_scale_equals_ridge(self, rng):
        policy, _, _ = self.make(scale=0.0)
        drive(policy, rng, 2, 25)
        np.testing.assert_allclose(
            policy.estimator(), policy.ridge_estimate(), atol=1e-12
        )

    def test_batch_formula_oracle(self, rng):
        dim, lam, steps = 3, 1.5, 40
        policy, spec, prefix = self.make(dim=dim, lam=lam, scale=0.8, seed=13, family="uniform")
        xs, ys = drive(policy, rng, dim, steps)
        got = policy.estimator()[0]
        w, z = history_draws(spec, prefix, steps + 1, dim, steps, lam)
        want = np.linalg.solve(lam * np.eye(dim) + xs.T @ xs, w[0] + xs.T @ (ys + z[0]))
        np.testing.assert_allclose(got, want, atol=1e-8)

    # the gaussian path: the history's perturbation drawn in closed form

    def test_gaussian_first_estimator_known_answer(self):
        # at V = lam I the estimator is xi / sqrt(lam), xi hashed from (seed, 1, j)
        policy, _, _ = self.make(dim=3, lam=2.0, scale=1.3, seed=8)
        np.testing.assert_allclose(
            policy.estimator(),
            [[-0.35865464197510677, -0.5679346362393916, -0.9295358057428681]],
            rtol=1e-13,
        )

    def test_gaussian_estimator_is_ridge_plus_cholesky_of_v_inverse_times_hashed_draws(self, rng):
        dim, lam, scale, steps, seed = 3, 1.5, 0.8, 40, 13
        policy, spec, _ = self.make(dim=dim, lam=lam, scale=scale, seed=seed)
        xs, ys = drive(policy, rng, dim, steps)
        got = policy.estimator()[0]
        xi = reward_draws(spec, [mix_key(seed, TAG_PHE)], range(dim), steps + 1)[0]
        v = lam * np.eye(dim) + xs.T @ xs
        chol = np.linalg.cholesky(np.linalg.inv(v))
        np.testing.assert_allclose(chol.T @ v @ chol, np.eye(dim), atol=1e-12)
        want = np.linalg.solve(v, xs.T @ ys) + chol @ xi
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_gaussian_path_keeps_no_history_and_no_generator(self, rng, monkeypatch):
        def state_bytes(policy):
            return sum(a.nbytes for a in vars(policy).values() if isinstance(a, np.ndarray))

        gaussian, _, _ = self.make(dim=3)
        rademacher, _, _ = self.make(dim=3, family="rademacher")
        sizes = {}
        for steps in (10, 200):
            for policy in (gaussian, rademacher):
                drive(policy, rng, 3, steps - policy.step)
                sizes[policy, steps] = state_bytes(policy)
        assert sizes[gaussian, 10] == sizes[gaussian, 200]
        assert sizes[rademacher, 10] < sizes[rademacher, 200]

        def no_generator(*args, **kwargs):
            raise AssertionError("the gaussian path built a Philox generator")

        monkeypatch.setattr(np.random, "Philox", no_generator)
        assert np.isfinite(gaussian.estimator()).all()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LinPHE(3, 1.0, PerturbationSpec("gaussian", 0.5), [4]),
            lambda: LinPHE(3, 1.0, PerturbationSpec("gaussian", 0.5), [4, 5]),
            lambda: LinTS(3, 1.0, 0.5, [4, 5]),
        ],
        ids=["phe", "phe-batched", "lints-batched"],
    )
    def test_gaussian_path_runs_no_eigendecomposition(self, rng, monkeypatch, make):
        # the closed form factors V^-1 by Cholesky; an eigh per step costs
        # several times as much and would come back without failing a law check
        def no_eigh(*args, **kwargs):
            raise AssertionError("the gaussian path ran np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        policy = make()
        arms = random_unit_ball(rng, 3, count=4)
        for _ in range(5):
            arm = policy.select(arms).arm_index
            policy.update(arms[arm], np.zeros(policy.batch))
        assert np.isfinite(policy.estimator()).all()

    def test_history_prior_is_the_gaussian_xi(self, rng):
        # the prior draw w of a step's O(t) history draws, over sqrt(lam), is
        # the xi that the gaussian closed form draws for that step
        dim, lam, steps = 3, 4.0, 7
        policy, spec, prefix = self.make(dim=dim, lam=lam, scale=0.9, seed=12)
        drive(policy, rng, dim, steps)
        w, _ = history_draws(spec, prefix, steps + 1, dim, steps, lam)
        want = policy.ridge_estimate()[0] + policy.gram.inverse_cholesky()[0] @ (w[0] / 2.0)
        np.testing.assert_allclose(policy.estimator()[0], want, rtol=1e-12, atol=1e-15)

    def test_gaussian_and_history_draws_share_the_covariance_s2_v_inverse(self):
        # over 20,000 seeds on one fixed history, both theta~ - theta^ of
        # the gaussian policy and the O(t) history oracle are N(0, s^2 V^-1)
        dim, lam, scale, steps, reps = 3, 1.0, 0.7, 30, 20_000
        spec = PerturbationSpec("gaussian", scale)
        policy = LinPHE(dim, lam, spec, list(range(reps)))
        # an anisotropic history: V's condition number is about 7
        xs = random_unit_ball(np.random.default_rng(21), dim, count=steps) * [1.0, 0.5, 0.1]
        ys = np.linspace(-1.0, 1.0, steps)
        for x, y in zip(xs, ys):
            policy.update(np.broadcast_to(x, (reps, dim)), np.full(reps, y))
        v = lam * np.eye(dim) + xs.T @ xs
        collapsed = policy.estimator() - policy.ridge_estimate()
        w, z = history_draws(spec, seed_prefixes(range(reps), TAG_PHE), steps + 1, dim, steps, lam)
        oracle = np.linalg.solve(v, (w + z @ xs).T).T
        # whitened by V^{1/2} / s, a N(0, s^2 V^-1) draw is standard normal
        evals, evecs = np.linalg.eigh(v)
        whiten = evecs @ np.diag(np.sqrt(evals)) @ evecs.T / scale
        for name, dev in (("collapsed", collapsed), ("history oracle", oracle)):
            white = dev @ whiten
            assert np.abs(white.mean(axis=0)).max() < 0.05, name
            assert np.abs(np.cov(white.T) - np.eye(dim)).max() < 0.05, name

    def test_fresh_draws_differ_across_steps(self, rng):
        policy, _, _ = self.make(dim=2, scale=1.0)
        drive(policy, rng, 2, 5)
        a = policy.estimator()
        b = policy.estimator()
        np.testing.assert_array_equal(a, b)  # same step: same key, same draw
        policy.update(random_unit_ball(rng, 2)[None], np.zeros(1))
        c = policy.estimator()
        assert not np.allclose(a, c)

    def test_history_growth_beyond_initial_capacity(self, rng):
        policy, _, _ = self.make(dim=2, scale=0.5, family="binomial")
        drive(policy, rng, 2, 100)  # initial buffer is 8
        assert policy.step == 100
        assert np.isfinite(policy.estimator()).all()

    def test_replay_rejects_an_empty_model_axis(self):
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
        for m in (0, -3):
            with pytest.raises(ValueError, match="n_models must be at least 1"):
                PerturbedHistoryReplay(2, 1.0, spec, [5], m)

    def test_shared_axis_exhaustion(self, rng):
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.0)
        policy = PerturbedHistoryReplay(2, 1.0, spec, [5], 2)
        arms = random_unit_ball(rng, 2, count=3)
        for _ in range(2):
            sel = policy.select(arms)
            policy.update(arms[sel.arm_index], np.zeros(1))
        with pytest.raises(InvalidStateError, match="exhausted"):
            policy.select(arms)

    def test_shared_replay_matches_round_robin_ensemble_exactly(self, rng):
        # the core equality: same seed, round-robin ensemble of size T vs
        # its lazy form's re-perturbation; identical estimators bit for bit
        horizon, dim = 12, 2
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 1.1)
        es = EnsembleSampling(dim, 1.0, horizon, spec, [77], sampler=Sampler.ROUND_ROBIN)
        phe = PerturbedHistoryReplay(dim, 1.0, spec, [77], horizon)
        arms = random_unit_ball(rng, dim, count=5)
        for t in range(1, horizon + 1):
            sel_es = es.select(arms)
            sel_phe = phe.select(arms)
            np.testing.assert_array_equal(sel_es.theta, sel_phe.theta)
            np.testing.assert_array_equal(sel_es.arm_index, sel_phe.arm_index)
            y = np.array([rng.standard_normal()])
            es.update(arms[sel_es.arm_index], y)
            phe.update(arms[sel_phe.arm_index], y)


class TestPerturbationsUseNoGenerator:
    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_no_policy_builds_a_philox_generator(self, family, monkeypatch):
        # every perturbation is a reward_draws call: with Philox gone, a
        # round-robin ensemble, perturbed-history exploration and its replay
        # of the ensemble's draws still step, and the replay still is the
        # ensemble
        def no_philox(*args, **kwargs):
            raise AssertionError("a perturbation built a Philox generator")

        monkeypatch.setattr(np.random, "Philox", no_philox)
        dim, horizon = 3, 10
        spec = PerturbationSpec(family, 0.7)
        seeds = [4, 19, 4]
        arms = random_unit_ball(np.random.default_rng(8), dim, count=5)
        ys = np.random.default_rng(9).standard_normal((horizon, len(seeds)))
        ensemble = EnsembleSampling(dim, 1.0, horizon, spec, seeds, sampler=Sampler.ROUND_ROBIN)
        replay = PerturbedHistoryReplay(dim, 1.0, spec, seeds, horizon)
        phe = LinPHE(dim, 1.0, spec, seeds)
        policies = (ensemble, replay, phe)
        for y in ys:
            sels = [p.select(arms) for p in policies]
            np.testing.assert_array_equal(sels[0].theta, sels[1].theta)
            for policy, sel in zip(policies, sels):
                policy.update(arms[sel.arm_index], y)
        assert np.isfinite(phe.estimator()).all()


class TestLazyEnsemble:
    """:class:`PerturbedHistoryReplay` is the lazy form of a round-robin
    :class:`EnsembleSampling`: the same models, held as a history."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("seeds", [[31], [31, 8, 31]], ids=["R1", "R3"])
    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_every_model_is_the_eager_ensembles_bit_for_bit(self, family, seeds, dim):
        # every model j < m at every step, not only the model t - 1 that a
        # step reads, and a different model in each replication; the replay
        # acts on the same model as the ensemble. At d = 1 the rows are
        # contiguous, where np.sum would pair them. The history buffer
        # doubles at the 9th and the 17th update, and the steps after each
        # read across it
        horizon, batch = 18, len(seeds)
        spec = PerturbationSpec(family, 0.9)
        eager = EnsembleSampling(dim, 1.5, horizon, spec, seeds, sampler=Sampler.ROUND_ROBIN)
        lazy = PerturbedHistoryReplay(dim, 1.5, spec, seeds, horizon)
        rng = np.random.default_rng(5)
        arms = random_unit_ball(rng, dim, count=6)
        for t in range(1, horizon + 1):
            for j in range(horizon):
                for model in (np.full(batch, j), (np.arange(batch) + j) % horizon):
                    assert lazy.model_theta(model).tobytes() == eager.model_theta(model).tobytes()
            sel = eager.select(arms)
            lazy_sel = lazy.select(arms)
            assert sel.model_index.tolist() == lazy_sel.model_index.tolist() == [t - 1] * batch
            assert sel.theta.tobytes() == lazy_sel.theta.tobytes()
            y = rng.standard_normal(batch)
            eager.update(arms[sel.arm_index], y)
            lazy.update(arms[sel.arm_index], y)

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec, seeds: EnsembleSampling(2, 1.0, 6, spec, seeds),
            lambda spec, seeds: EnsembleSampling(
                2, 1.0, 6, spec, seeds, sampler=Sampler.ROUND_ROBIN
            ),
            lambda spec, seeds: PerturbedHistoryReplay(2, 1.0, spec, seeds, 6),
            lambda spec, seeds: LinPHE(2, 1.0, spec, seeds),
            lambda spec, seeds: LinUCB(2, 1.0, bonus=0.5, batch=len(seeds)),
            lambda spec, seeds: GreedyRidge(2, 1.0, batch=len(seeds)),
        ],
        ids=["uniform", "round-robin", "replay", "phe", "linucb", "greedy"],
    )
    def test_estimator_is_the_one_select_acts_on(self, rng, make):
        spec = PerturbationSpec(PerturbationFamily.UNIFORM, 1.2)
        seeds = [2, 40, 7]
        policy = make(spec, seeds)
        arms = random_unit_ball(rng, 2, count=4)
        for _ in range(6):
            theta = policy.estimator()
            sel = policy.select(arms)
            assert theta.tobytes() == sel.theta.tobytes()
            policy.update(arms[sel.arm_index], rng.standard_normal(3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda spec, seeds: EnsembleSampling(2, 1.0, 6, spec, seeds),
            lambda spec, seeds: PerturbedHistoryReplay(2, 1.0, spec, seeds, 6),
        ],
        ids=["uniform", "replay"],
    )
    def test_select_does_not_recheck_its_samplers_model_index(self, rng, monkeypatch, make):
        # select and estimator read the sampler's model through the estimator
        # core that the replay overrides; only model_theta checks an index
        spec = PerturbationSpec(PerturbationFamily.GAUSSIAN, 0.7)
        policy = make(spec, [2, 40, 7])
        arms = random_unit_ball(rng, 2, count=4)
        rewards = rng.standard_normal((6, 3))
        thetas = []
        for y in rewards:
            sel = policy.select(arms)
            thetas.append(policy.model_theta(sel.model_index))
            policy.update(arms[sel.arm_index], y)

        def refused(self, model):
            raise AssertionError("model_theta called")

        monkeypatch.setattr(EnsembleSampling, "model_theta", refused)
        again = make(spec, [2, 40, 7])
        for theta, y in zip(thetas, rewards):
            sel = again.select(arms)
            assert sel.theta.tobytes() == again.estimator().tobytes() == theta.tobytes()
            again.update(arms[sel.arm_index], y)

    def test_the_replay_keeps_no_perturbed_sums(self):
        # so a monitor tracking the ensemble fraction reports none for it
        env = LinearBanditEnv.random(2, 4, NoiseModel(sigma=0.5), 1.0, 12345)
        params = ConfidenceParams(0.5, 1.0, 1.0, 2, 8, 0.1)
        replay = PerturbedHistoryReplay(2, 1.0, PerturbationSpec(), [6], 8)
        with pytest.raises(AttributeError, match="keeps no perturbed sums"):
            replay.s_vectors
        with pytest.raises(AttributeError, match="keeps no perturbed sums"):
            replay.thetas()
        monitor = StepMonitor(env, params, track_ensemble_fraction=True)
        noise = env.noise.draws([6])
        for t in range(1, 9):
            sel = replay.select(env.arms)
            x, mean = env.pull(sel.arm_index)
            monitor.observe(replay, sel, x)
            replay.update(x, mean + noise.at(t)[:, 0])
        monitor.flush()
        assert monitor.counters()["checks"].tolist() == [8]
        assert "min_ensemble_fraction" not in monitor.counters()

    def test_the_replay_history_grows_with_the_steps_not_with_m(self, rng):
        # only the initial rows are O(m); the history doubles from 8 rows
        replay = PerturbedHistoryReplay(3, 1.0, PerturbationSpec(), [4, 9], 100_000)
        assert replay._xs.shape == (2, 8, 3) and replay._ys.shape == (2, 8)
        arms = random_unit_ball(rng, 3, count=5)
        for _ in range(17):
            sel = replay.select(arms)
            replay.update(arms[sel.arm_index], rng.standard_normal(2))
        assert replay._xs.shape == (2, 32, 3) and replay._ys.shape == (2, 32)

    def test_the_replay_reads_one_model_per_replication(self):
        replay = PerturbedHistoryReplay(2, 1.0, PerturbationSpec(), [1, 2, 3], 4)
        assert replay.model_theta(np.array([0, 1, 0])).shape == (3, 2)
        # a negative index names no model: after a step, both forms refuse
        # it, where the eager sums would read model m - 1 from the end
        eager = EnsembleSampling(
            2, 1.0, 4, PerturbationSpec(), [1, 2, 3], sampler=Sampler.ROUND_ROBIN
        )
        arms = np.eye(2)
        for policy in (eager, replay):
            policy.update(arms[policy.select(arms).arm_index], np.ones(3))
            with pytest.raises(ValueError, match="model index -1 is negative"):
                policy.model_theta(np.array([0, -1, 0]))


def ks_two_sample_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """P-value of the two-sample Kolmogorov-Smirnov test that ``a`` and
    ``b`` have one law: the largest gap between their empirical CDFs, over
    the effective ``n1 n2 / (n1 + n2)`` (:func:`kolmogorov_pvalue`)."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / len(b)
    return kolmogorov_pvalue(np.abs(cdf_a - cdf_b).max(), len(a) * len(b) / (len(a) + len(b)))


class TestLinPHEHasTheReplaysLaw:
    """At a fixed history, LinPHE's fresh perturbations and the m = T
    replay's model t - 1 give estimators of one law."""

    #: false-fail probability of each test, Bonferroni over its checks: 3
    #: coordinate means and 6 covariance entries for each of 5 families, and
    #: one projection's law for each of the 4 non-gaussian families
    FALSE_FAIL = 1e-6
    CHECKS = 5 * (3 + 6)
    KS_CHECKS = 4

    @staticmethod
    def replayed(family: str, steps: int, n: int, scale: float = 0.8) -> tuple:
        """LinPHE and the m = T replay, n replications each, after one fixed
        history of ``steps`` rows; the replay's perturbations at ``scale``."""
        dim, lam = 3, 2.0
        history = np.random.default_rng(2024)
        xs = random_unit_ball(history, dim, count=steps).reshape(steps, dim)
        ys = history.standard_normal(steps)
        phe = LinPHE(dim, lam, PerturbationSpec(family, 0.8), list(range(n)))
        spec = PerturbationSpec(family, scale)
        replay = PerturbedHistoryReplay(dim, lam, spec, list(range(n, 2 * n)), steps + 1)
        for policy in (phe, replay):
            for x, y in zip(xs, ys):
                policy.update(np.broadcast_to(x, (n, dim)), np.full(n, y))
        return phe, replay

    @staticmethod
    def z_scores(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Two-sample z-scores of the column means of ``a`` and ``b``."""
        se = np.sqrt(a.var(axis=0, ddof=1) / len(a) + b.var(axis=0, ddof=1) / len(b))
        return (a.mean(axis=0) - b.mean(axis=0)) / se

    @staticmethod
    def centred_products(theta: np.ndarray) -> np.ndarray:
        """``(n, 6)`` products of centred coordinates, one column per entry
        ``(i, k)``, ``i <= k``, of the 3 by 3 covariance."""
        c = theta - theta.mean(axis=0)
        i, k = np.triu_indices(theta.shape[1])
        return c[:, i] * c[:, k]

    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_step_ten_estimators_share_mean_and_covariance(self, family):
        limit = NormalDist().inv_cdf(1 - self.FALSE_FAIL / self.CHECKS / 2)
        assert 5.58 < limit < 5.60
        phe, replay = self.replayed(family, 9, 20_000)
        a, b = phe.estimator(), replay.estimator()
        np.testing.assert_array_equal(phe.ridge_estimate(), replay.ridge_estimate())
        z = np.concatenate(
            [self.z_scores(a, b), self.z_scores(self.centred_products(a), self.centred_products(b))]
        )
        assert np.abs(z).max() <= limit, z

    #: a fixed unit direction, the x* of the projection x*^T theta
    X_STAR = np.array([0.6, -0.48, 0.64])

    @pytest.mark.parametrize(
        "family", [f for f in PerturbationFamily.ALL if f != PerturbationFamily.GAUSSIAN]
    )
    def test_step_41_projections_have_one_law(self, family):
        # a second history length, 40 rows: the whole law of the projection
        phe, replay = self.replayed(family, 40, 20_000)
        a, b = phe.estimator() @ self.X_STAR, replay.estimator() @ self.X_STAR
        assert ks_two_sample_pvalue(a, b) >= self.FALSE_FAIL / self.KS_CHECKS

    def test_the_projection_test_rejects_another_scale(self):
        # not vacuous: the replay's perturbations at 1.5 times LinPHE's
        phe, replay = self.replayed(PerturbationFamily.UNIFORM, 40, 20_000, scale=1.2)
        a, b = phe.estimator() @ self.X_STAR, replay.estimator() @ self.X_STAR
        assert ks_two_sample_pvalue(a, b) < 1e-12


class TestLinUCB:
    def test_requires_exactly_one_radius_source(self):
        params = ConfidenceParams(1.0, 1.0, 1.0, 2, 10, 0.1)
        with pytest.raises(ValueError):
            LinUCB(2, 1.0)
        with pytest.raises(ValueError):
            LinUCB(2, 1.0, bonus=1.0, params=params)
        # the bonus is a confidence radius: zero is greedy, and a negative or
        # non-finite one has no meaning
        for bonus in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match=f"bonus must be non-negative .*, got {bonus}"):
                LinUCB(2, 1.0, bonus=bonus)

    def test_zero_bonus_equals_greedy(self, rng):
        ucb = LinUCB(3, 1.0, bonus=0.0)
        greedy = GreedyRidge(3, 1.0)
        arms = random_unit_ball(rng, 3, count=7)
        for _ in range(30):
            a, b = ucb.select(arms), greedy.select(arms)
            np.testing.assert_array_equal(a.arm_index, b.arm_index)
            y = np.array([rng.standard_normal()])
            ucb.update(arms[a.arm_index], y)
            greedy.update(arms[b.arm_index], y)

    def test_initial_choice_maximizes_width(self, rng):
        # at V = I and a zero estimate the score is bonus * ||x||
        ucb = LinUCB(2, 1.0, bonus=1.0)
        arms = random_unit_ball(rng, 2, count=9)
        sel = ucb.select(arms)
        assert sel.arm_index[0] == int(np.argmax(np.linalg.norm(arms, axis=1)))

    def test_score_oracle(self, rng):
        ucb = LinUCB(3, 2.0, bonus=0.7)
        drive(ucb, rng, 3, 25)
        arms = random_unit_ball(rng, 3, count=11)
        v_inv = np.linalg.inv(ucb.gram.gram[0])
        theta = ucb.ridge_estimate()[0]
        scores = arms @ theta + 0.7 * np.sqrt(np.einsum("kd,de,ke->k", arms, v_inv, arms))
        assert ucb.select(arms).arm_index[0] == int(np.argmax(scores))

    def test_adaptive_bonus_follows_confidence_radius(self, rng):
        params = ConfidenceParams(1.0, 1.0, 1.0, 2, 100, 0.1)
        ucb = LinUCB(2, 1.0, params=params)
        assert ucb.current_bonus() == pytest.approx(beta(params, 0))
        drive(ucb, rng, 2, 10)
        assert ucb.current_bonus() == pytest.approx(beta(params, 10))


class TestLinTS:
    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            LinTS(2, 1.0, -1.0, [0])

    def test_zero_scale_equals_greedy(self, rng):
        ts = LinTS(3, 1.0, 0.0, [1])
        greedy = GreedyRidge(3, 1.0)
        arms = random_unit_ball(rng, 3, count=6)
        for _ in range(20):
            a, b = ts.select(arms), greedy.select(arms)
            np.testing.assert_array_equal(a.arm_index, b.arm_index)
            np.testing.assert_allclose(a.theta, b.theta, atol=1e-12)
            y = np.array([rng.standard_normal()])
            ts.update(arms[a.arm_index], y)
            greedy.update(arms[b.arm_index], y)

    def test_sample_norm_equals_noise_norm(self, rng):
        # ||theta - theta_hat||_V equals ||xi||_2: verify by replaying the
        # keyed draw to recover xi
        ts = LinTS(3, 1.5, 0.8, [42])
        prefixes = seed_prefixes([42], TAG_PHE)
        drive(ts, rng, 3, 30)
        for _ in range(10):
            t = ts.step + 1
            theta = ts.estimator()
            xi = reward_draws(PerturbationSpec("gaussian", 0.8), prefixes, range(3), t)[0]
            dev = (theta - ts.ridge_estimate())[0]
            got = np.sqrt(dev @ ts.gram.gram[0] @ dev)
            assert got == pytest.approx(np.linalg.norm(xi), abs=1e-9)
            drive(ts, rng, 3, 1)

    def test_posterior_coordinate_std(self):
        # at V = lam I the sampled deviation has std scale/sqrt(lam)
        lam, scale = 4.0, 1.0
        # xi is keyed by step: 20,000 replications at step 1
        ts = LinTS(2, lam, scale, list(range(20_000)))
        devs = ts.estimator()
        assert np.std(devs) == pytest.approx(scale / np.sqrt(lam), rel=0.03)


class TestZeroPerturbationCollapse:
    def test_all_policies_match_greedy_without_noise(self):
        env = LinearBanditEnv.random(2, 6, NoiseModel(sigma=0.0), 1.0, 12345)
        policies = [
            GreedyRidge(2, 1.0),
            EnsembleSampling(2, 1.0, 3, ZERO, [17]),
            LinPHE(2, 1.0, ZERO, [17]),
            LinUCB(2, 1.0, bonus=0.0),
            LinTS(2, 1.0, 0.0, [17]),
        ]
        noise = env.noise.draws([17])
        sequences = []
        for policy in policies:
            seq = []
            for t in range(1, 31):
                sel = policy.select(env.arms)
                x, mean = env.pull(sel.arm_index)
                policy.update(x, mean + noise.at(t)[:, 0])
                seq.append(int(sel.arm_index[0]))
            sequences.append(seq)
        for seq in sequences[1:]:
            assert seq == sequences[0]
