import importlib
import math
import operator

import numpy as np
import pytest

import linens
from linens import _kernels_py as kernels
from linens.linalg import NORM_SLACK, REINVERT_PERIOD, GramState, Metric

from conftest import random_unit_ball


class TestInit:
    def test_identity(self):
        st = GramState(2, 1.0)
        np.testing.assert_array_equal(st.gram, [np.eye(2)])
        np.testing.assert_array_equal(st.gram_inv, [np.eye(2)])
        assert st.step_count == 0

    def test_scalar_inverse(self):
        st = GramState(1, 4.0)
        assert st.gram[0, 0, 0] == 4.0
        assert st.gram_inv[0, 0, 0] == 0.25

    def test_diagonal_inverse(self):
        st = GramState(3, 0.5)
        np.testing.assert_allclose(st.gram, [0.5 * np.eye(3)])
        np.testing.assert_allclose(st.gram_inv, [2.0 * np.eye(3)])

    @pytest.mark.parametrize(
        "dim,lam", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -0.5), (2, np.nan), (2, np.inf)]
    )
    def test_invalid_args(self, dim, lam):
        with pytest.raises(ValueError):
            GramState(dim, lam)

    @pytest.mark.parametrize("batch", [0, -1, 2.5, 2.0, "2"])
    def test_batch_must_be_a_positive_integer(self, batch):
        # checked as dim is: a float batch, even a whole one, is rejected
        with pytest.raises(ValueError, match="batch must be a positive integer"):
            GramState(2, 1.0, batch)

    def test_a_lone_replication_is_a_batch_of_one(self):
        st = GramState(3, 1.0)
        assert st.batch == 1
        assert st.gram.shape == (1, 3, 3)
        assert GramState(3, 1.0, np.int64(4)).gram.shape == (4, 3, 3)


class TestUpdate:
    def test_axis_aligned(self):
        st = GramState(2, 1.0)
        st.update(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(st.gram, [np.diag([2.0, 1.0])])
        np.testing.assert_allclose(st.gram_inv, [np.diag([0.5, 1.0])])
        assert st.step_count == 1

    def test_against_direct_inverse(self):
        st = GramState(2, 1.0)
        st.update(np.array([[0.6, 0.8]]))
        np.testing.assert_allclose(st.gram_inv, np.linalg.inv(st.gram), atol=1e-10)

    def test_hundred_random_updates(self, rng):
        st = GramState(5, 1.0)
        for _ in range(100):
            st.update(random_unit_ball(rng, 5)[None])
        assert st.step_count == 100
        np.testing.assert_allclose(st.gram_inv[0] @ st.gram[0], np.eye(5), atol=1e-8)

    def test_gram_symmetric(self, rng):
        st = GramState(4, 2.0)
        for _ in range(50):
            st.update(random_unit_ball(rng, 4)[None])
        np.testing.assert_allclose(st.gram[0], st.gram[0].T, atol=1e-10)

    def test_eigenvalues_at_least_lambda(self, rng):
        st = GramState(3, 0.7)
        for _ in range(30):
            st.update(random_unit_ball(rng, 3)[None])
        assert np.linalg.eigvalsh(st.gram[0]).min() >= 0.7 - 1e-12

    def test_norm_violation(self):
        st = GramState(2, 1.0)
        with pytest.raises(ValueError, match=r"\|\|x\|\|"):
            st.update(np.array([[1.0, 0.5]]))

    @pytest.mark.parametrize("batch", [1, 3], ids=["R1", "R3"])
    def test_norm_bound_is_exact_at_the_slack(self, batch):
        # sqrt(fl(a * a)) is a, so a row (a, 0, 0) has norm exactly a: the
        # bound itself passes and the next float above it fails, alone or
        # between in-range rows; a NaN row fails too
        edge = 1.0 + NORM_SLACK
        assert math.sqrt(edge * edge) == edge
        for a, ok in ((edge, True), (np.nextafter(edge, 2.0), False), (np.nan, False)):
            st = GramState(3, 1.0, batch)
            row = [a, 0.0, 0.0]
            x = np.array([row] if batch == 1 else [[0.6, 0.0, 0.0], row, [0.0, 0.5, 0.5]])
            if ok:
                st.update(x)
                assert st.step_count == 1
            else:
                with pytest.raises(ValueError, match=r"\|\|x\|\|"):
                    st.update(x)
                assert st.step_count == 0
                np.testing.assert_array_equal(st.gram, np.broadcast_to(np.eye(3), st.gram.shape))
                np.testing.assert_array_equal(st.gram_inv, st.gram)

    def test_dimension_mismatch(self):
        st = GramState(2, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            st.update(np.array([[1.0, 0.0, 0.0]]))

    def test_zero_vector_counts_a_step(self):
        st = GramState(2, 1.0)
        st.update(np.zeros((1, 2)))
        assert st.step_count == 1
        np.testing.assert_array_equal(st.gram, [np.eye(2)])

    def test_long_run_drift_with_reinversion(self, rng):
        # crosses several re-inversion periods
        st = GramState(8, 1.0)
        for _ in range(3000):
            st.update(random_unit_ball(rng, 8)[None])
        assert st.inverse_drift() <= 1e-8

    def test_drift_before_each_reinversion_on_an_ill_conditioned_state(self, rng, monkeypatch):
        # lam = 1e-3, d = 8, arms along one axis: the Gram matrix's condition
        # number passes 10^6, and the Sherman-Morrison inverse still drifts
        # less than 1e-10 from it just before each re-inversion
        drifts = []
        reinvert = GramState.reinvert

        def measured(state):
            drifts.append(state.inverse_drift())
            reinvert(state)

        monkeypatch.setattr(GramState, "reinvert", measured)
        batch, dim = 16, 8
        st = GramState(dim, 1e-3, batch=batch)
        for _ in range(4 * REINVERT_PERIOD):
            x = np.zeros((batch, dim))
            x[:, 0] = rng.uniform(0.5, 1.0, batch)
            x[:, 1:] = 1e-4 * rng.standard_normal((batch, dim - 1))
            st.update(x / np.maximum(1.0, np.linalg.norm(x, axis=1))[:, None])
        assert len(drifts) == 4
        assert max(drifts) <= 1e-10
        assert np.linalg.cond(st.gram).min() > 1e6


class TestWeightedNorm:
    def test_diagonal_case(self):
        st = GramState(2, 1.0)
        st.update(np.array([[1.0, 0.0]]))
        got = st.weighted_norm(np.array([[1.0, 0.0]]), Metric.GRAM_INV)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector(self, rng):
        st = GramState(3, 2.0)
        st.update(random_unit_ball(rng, 3)[None])
        assert st.weighted_norm(np.zeros((1, 3)), Metric.GRAM)[0] == 0.0
        assert st.weighted_norm(np.zeros((1, 3)), Metric.GRAM_INV)[0] == 0.0

    def test_against_long_double_oracle(self, rng):
        st = GramState(6, 1.5)
        for _ in range(40):
            st.update(random_unit_ball(rng, 6)[None])
        for _ in range(10):
            v = rng.standard_normal(6)
            for metric, mat in ((Metric.GRAM, st.gram[0]), (Metric.GRAM_INV, st.gram_inv[0])):
                vl = v.astype(np.longdouble)
                ml = mat.astype(np.longdouble)
                want = float(np.sqrt(vl @ ml @ vl))
                assert st.weighted_norm(v[None], metric)[0] == pytest.approx(want, abs=1e-10)

    def test_inverse_norm_max_eigenvalue_bound(self, rng):
        lam = 2.0
        st = GramState(4, lam)
        for _ in range(60):
            st.update(random_unit_ball(rng, 4)[None])
        for _ in range(20):
            x = rng.standard_normal(4)
            width = st.weighted_norm(x[None], Metric.GRAM_INV)[0]
            assert width <= np.linalg.norm(x) / np.sqrt(lam) + 1e-12


class TestSolve:
    def test_identity(self):
        st = GramState(2, 1.0)
        np.testing.assert_array_equal(st.solve(np.array([[3.0, -2.0]])), [[3.0, -2.0]])

    def test_diagonal(self):
        st = GramState(2, 1.0)
        st.update(np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(st.solve(np.array([[2.0, 3.0]])), [[1.0, 3.0]])

    def test_against_pivoted_solve(self, rng):
        st = GramState(5, 1.0)
        for _ in range(80):
            st.update(random_unit_ball(rng, 5)[None])
        b = rng.standard_normal(5)
        np.testing.assert_allclose(st.solve(b[None])[0], np.linalg.solve(st.gram[0], b), atol=1e-9)

    def test_residual_contract(self, rng):
        st = GramState(4, 1.0)
        for _ in range(200):
            st.update(random_unit_ball(rng, 4)[None])
        b = rng.standard_normal(4)
        res = np.linalg.norm(st.gram[0] @ st.solve(b[None])[0] - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))

    @pytest.mark.parametrize(
        "shape", [(1, 2), (3,), (2, 3)], ids=["dim", "no-batch-axis", "batch"]
    )
    def test_dimension_mismatch(self, shape):
        # a vector without its batch axis is rejected as a wrong one is
        with pytest.raises(ValueError, match="dimension"):
            GramState(3, 1.0).solve(np.ones(shape))


class TestInverseCholesky:
    def test_lower_factor_of_the_inverse_across_both_reinversions(self, rng):
        st = GramState(4, 1.0)
        for _ in range(2 * REINVERT_PERIOD + 52):
            st.update(random_unit_ball(rng, 4)[None])
            chol = st.inverse_cholesky()[0]
            np.testing.assert_array_equal(chol, np.tril(chol))
            np.testing.assert_allclose(chol @ chol.T, st.gram_inv[0], rtol=1e-12)
        assert st.step_count == 2100

    def test_a_batch_factors_each_replication_as_it_would_alone(self, rng):
        batched = GramState(3, 1.5, batch=3)
        alone = [GramState(3, 1.5) for _ in range(3)]
        for _ in range(60):
            xs = random_unit_ball(rng, 3, count=3)
            batched.update(xs)
            for st, x in zip(alone, xs):
                st.update(x[None])
            want = np.concatenate([st.inverse_cholesky() for st in alone])
            np.testing.assert_array_equal(batched.inverse_cholesky(), want)


def test_benchmark_reads_the_one_kernel_module():
    # perfbench traces linens.backend.kernels and records HAVE_COMPILED_KERNELS
    assert linens.backend.kernels is linens._kernels_py
    assert linens.HAVE_COMPILED_KERNELS is False


def test_benchmark_reads_these_names():
    # perfbench/run.py reads its per-layer metrics under these names, and its
    # child process patches cli.load_config; tier-1 does not collect perfbench,
    # so without this a rename would only show there, as a KeyError
    names = (
        "envs.RegretLedger.record",
        "envs.LinearBanditEnv.sample_reward",
        "harness.aggregate",
        "harness.emit_outputs",
        "config.load_config",
        "cli.load_config",
        "policies.LinPHE.estimator",
        "diagnostics.StepMonitor.observe",
        "linalg.GramState.update",
        "linalg.GramState.weighted_norm",
        "linalg.GramState.solve",
        "linalg.GramState.reinvert",
        "backend.kernels.rank1_update",
        "backend.kernels.quad_form",
        "backend.kernels.accumulate_perturbed",
        "perturb.PerturbationStream.reward_vector",
        "perturb.PerturbationSpec.sample",
        "perturb.keyed_generator",
    )
    for name in names:
        module, _, attr = name.partition(".")
        owner = importlib.import_module(f"linens.{module}")
        assert callable(operator.attrgetter(attr)(owner)), name


@pytest.mark.parametrize("batch", [(1,), (3,)], ids=["R1", "R3"])
class TestKernels:
    """The per-step kernels against closed forms, for an ``(R, ...)``
    batch, a lone replication's batch of one among them."""

    def test_accumulate_perturbed_is_outer_product(self, rng, batch):
        # the sums are model-last, (d, m): column j gains x * yz[j]
        s = np.zeros(batch + (5, 16))
        x = rng.standard_normal(batch + (5,))
        yz = rng.standard_normal(batch + (16,))
        kernels.accumulate_perturbed(s, x, yz)
        for i in np.ndindex(batch):
            np.testing.assert_array_equal(s[i], np.outer(x[i], yz[i]))
            np.testing.assert_array_equal(s[i].T, np.outer(yz[i], x[i]))

    def test_quad_form(self, rng, batch):
        a = rng.standard_normal(batch + (4, 4))
        mat = np.matmul(a, a.swapaxes(-1, -2)) + np.eye(4)
        v = rng.standard_normal(batch + (4,))
        got = kernels.quad_form(mat, v)
        assert got.shape == batch
        for i in np.ndindex(batch):
            assert got[i] == pytest.approx(v[i] @ mat[i] @ v[i], rel=1e-12)

    def test_rank1_update_keeps_the_inverse(self, rng, batch):
        identity = np.broadcast_to(np.eye(4), batch + (4, 4))
        gram, gram_inv, want = identity.copy(), identity.copy(), identity.copy()
        for _ in range(50):
            x = random_unit_ball(rng, 4, count=int(np.prod(batch))).reshape(batch + (4,))
            kernels.rank1_update(gram, gram_inv, x)
            for i in np.ndindex(batch):
                want[i] += np.outer(x[i], x[i])
        np.testing.assert_allclose(gram, want, atol=1e-12)
        np.testing.assert_allclose(np.matmul(gram, gram_inv), identity, atol=1e-8)
