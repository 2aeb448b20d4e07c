import numpy as np
import pytest

import linens
from linens import _kernels_py as kernels
from linens.linalg import GramState, Metric

from conftest import random_unit_ball


class TestInit:
    def test_identity(self):
        st = GramState(2, 1.0)
        np.testing.assert_array_equal(st.gram, np.eye(2))
        np.testing.assert_array_equal(st.gram_inv, np.eye(2))
        assert st.step_count == 0

    def test_scalar_inverse(self):
        st = GramState(1, 4.0)
        assert st.gram[0, 0] == 4.0
        assert st.gram_inv[0, 0] == 0.25

    def test_diagonal_inverse(self):
        st = GramState(3, 0.5)
        np.testing.assert_allclose(st.gram, 0.5 * np.eye(3))
        np.testing.assert_allclose(st.gram_inv, 2.0 * np.eye(3))

    @pytest.mark.parametrize("dim,lam", [(0, 1.0), (-1, 1.0), (2, 0.0), (2, -0.5)])
    def test_invalid_args(self, dim, lam):
        with pytest.raises(ValueError):
            GramState(dim, lam)


class TestUpdate:
    def test_axis_aligned(self):
        st = GramState(2, 1.0)
        st.update(np.array([1.0, 0.0]))
        np.testing.assert_allclose(st.gram, np.diag([2.0, 1.0]))
        np.testing.assert_allclose(st.gram_inv, np.diag([0.5, 1.0]))
        assert st.step_count == 1

    def test_against_direct_inverse(self):
        st = GramState(2, 1.0)
        st.update(np.array([0.6, 0.8]))
        np.testing.assert_allclose(st.gram_inv, np.linalg.inv(st.gram), atol=1e-10)

    def test_hundred_random_updates(self, rng):
        st = GramState(5, 1.0)
        for _ in range(100):
            st.update(random_unit_ball(rng, 5))
        assert st.step_count == 100
        np.testing.assert_allclose(st.gram_inv @ st.gram, np.eye(5), atol=1e-8)

    def test_gram_symmetric(self, rng):
        st = GramState(4, 2.0)
        for _ in range(50):
            st.update(random_unit_ball(rng, 4))
        np.testing.assert_allclose(st.gram, st.gram.T, atol=1e-10)

    def test_eigenvalues_at_least_lambda(self, rng):
        st = GramState(3, 0.7)
        for _ in range(30):
            st.update(random_unit_ball(rng, 3))
        assert np.linalg.eigvalsh(st.gram).min() >= 0.7 - 1e-12

    def test_norm_violation(self):
        st = GramState(2, 1.0)
        with pytest.raises(ValueError, match=r"\|\|x\|\|"):
            st.update(np.array([1.0, 0.5]))

    def test_dimension_mismatch(self):
        st = GramState(2, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            st.update(np.array([1.0, 0.0, 0.0]))

    def test_zero_vector_counts_a_step(self):
        st = GramState(2, 1.0)
        st.update(np.zeros(2))
        assert st.step_count == 1
        np.testing.assert_array_equal(st.gram, np.eye(2))

    def test_long_run_drift_with_reinversion(self, rng):
        # crosses several re-inversion periods
        st = GramState(8, 1.0)
        for _ in range(3000):
            st.update(random_unit_ball(rng, 8))
        assert st.inverse_drift() <= 1e-8


class TestWeightedNorm:
    def test_diagonal_case(self):
        st = GramState(2, 1.0)
        st.update(np.array([1.0, 0.0]))
        got = st.weighted_norm(np.array([1.0, 0.0]), Metric.GRAM_INV)
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_vector(self, rng):
        st = GramState(3, 2.0)
        st.update(random_unit_ball(rng, 3))
        assert st.weighted_norm(np.zeros(3), Metric.GRAM) == 0.0
        assert st.weighted_norm(np.zeros(3), Metric.GRAM_INV) == 0.0

    def test_against_long_double_oracle(self, rng):
        st = GramState(6, 1.5)
        for _ in range(40):
            st.update(random_unit_ball(rng, 6))
        for _ in range(10):
            v = rng.standard_normal(6)
            for metric, mat in ((Metric.GRAM, st.gram), (Metric.GRAM_INV, st.gram_inv)):
                vl = v.astype(np.longdouble)
                ml = mat.astype(np.longdouble)
                want = float(np.sqrt(vl @ ml @ vl))
                assert st.weighted_norm(v, metric) == pytest.approx(want, abs=1e-10)

    def test_inverse_norm_max_eigenvalue_bound(self, rng):
        lam = 2.0
        st = GramState(4, lam)
        for _ in range(60):
            st.update(random_unit_ball(rng, 4))
        for _ in range(20):
            x = rng.standard_normal(4)
            assert st.weighted_norm(x, Metric.GRAM_INV) <= np.linalg.norm(x) / np.sqrt(lam) + 1e-12


class TestSolve:
    def test_identity(self):
        st = GramState(2, 1.0)
        np.testing.assert_array_equal(st.solve(np.array([3.0, -2.0])), [3.0, -2.0])

    def test_diagonal(self):
        st = GramState(2, 1.0)
        st.update(np.array([1.0, 0.0]))
        np.testing.assert_allclose(st.solve(np.array([2.0, 3.0])), [1.0, 3.0])

    def test_against_pivoted_solve(self, rng):
        st = GramState(5, 1.0)
        for _ in range(80):
            st.update(random_unit_ball(rng, 5))
        b = rng.standard_normal(5)
        np.testing.assert_allclose(st.solve(b), np.linalg.solve(st.gram, b), atol=1e-9)

    def test_residual_contract(self, rng):
        st = GramState(4, 1.0)
        for _ in range(200):
            st.update(random_unit_ball(rng, 4))
        b = rng.standard_normal(4)
        res = np.linalg.norm(st.gram @ st.solve(b) - b)
        assert res <= 1e-8 * (1.0 + np.linalg.norm(b))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GramState(3, 1.0).solve(np.ones(2))


def test_benchmark_reads_the_one_kernel_module():
    # perfbench traces linens.backend.kernels and records HAVE_COMPILED_KERNELS
    assert linens.backend.kernels is linens._kernels_py
    assert linens.HAVE_COMPILED_KERNELS is False


@pytest.mark.parametrize("batch", [(), (3,)], ids=["unbatched", "batched"])
class TestKernels:
    """The per-step kernels against closed forms, for one replication and
    for an ``(R, ...)`` batch."""

    def test_accumulate_perturbed_is_outer_product(self, rng, batch):
        s = np.zeros(batch + (16, 5))
        x = rng.standard_normal(batch + (5,))
        yz = rng.standard_normal(batch + (16,))
        kernels.accumulate_perturbed(s, x, yz)
        for i in np.ndindex(batch):
            np.testing.assert_array_equal(s[i], np.outer(yz[i], x[i]))

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
