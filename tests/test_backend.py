import os
import subprocess
import sys

import numpy as np
import pytest

from linens import backend
from linens import _kernels_py as pure

from conftest import random_unit_ball

@pytest.fixture
def compiled():
    # only the agreement tests need the extension; selection runs without it
    return pytest.importorskip("linens._kernels", reason="compiled extension not built")


@pytest.fixture
def spd_state(rng):
    gram = np.eye(4) + 0.0
    inv = np.eye(4) + 0.0
    for _ in range(30):
        x = random_unit_ball(rng, 4)
        pure.rank1_update(gram, inv, x)
    return gram, inv


class TestBackendSelection:
    def test_flag_is_boolean_and_matches_module(self):
        assert isinstance(backend.HAVE_COMPILED_KERNELS, bool)
        assert backend.HAVE_COMPILED_KERNELS == backend.kernels.IS_COMPILED

    def test_force_pure_env_var(self):
        out = subprocess.run(
            [sys.executable, "-c", "import linens; print(linens.HAVE_COMPILED_KERNELS)"],
            env={**os.environ, "LINENS_FORCE_PURE": "1"},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"


class TestBackendAgreement:
    def test_rank1_update_matches(self, rng, spd_state, compiled):
        gram_a, inv_a = (m.copy() for m in spd_state)
        gram_b, inv_b = (m.copy() for m in spd_state)
        for _ in range(50):
            x = np.ascontiguousarray(random_unit_ball(rng, 4))
            pure.rank1_update(gram_a, inv_a, x)
            compiled.rank1_update(gram_b, inv_b, x)
        np.testing.assert_allclose(gram_a, gram_b, atol=1e-12)
        np.testing.assert_allclose(inv_a, inv_b, atol=1e-12)
        # both stay true inverses
        np.testing.assert_allclose(gram_b @ inv_b, np.eye(4), atol=1e-8)

    def test_quad_form_matches(self, rng, spd_state, compiled):
        gram, _ = spd_state
        for _ in range(20):
            v = np.ascontiguousarray(rng.standard_normal(4))
            a = pure.quad_form(gram, v)
            b = compiled.quad_form(gram, v)
            assert a == pytest.approx(b, rel=1e-12)
            assert b == pytest.approx(float(v @ gram @ v), rel=1e-10)

    def test_accumulate_perturbed_matches(self, rng, compiled):
        s_a = rng.standard_normal((16, 5))
        s_b = s_a.copy()
        for _ in range(30):
            x = np.ascontiguousarray(random_unit_ball(rng, 5))
            yz = np.ascontiguousarray(rng.standard_normal(16))
            pure.accumulate_perturbed(s_a, x, yz)
            compiled.accumulate_perturbed(s_b, x, yz)
        np.testing.assert_allclose(s_a, s_b, atol=1e-12)

    def test_accumulate_closed_form(self, rng, compiled):
        s = np.zeros((3, 2))
        x = np.array([0.5, -0.25])
        yz = np.array([1.0, 2.0, -4.0])
        compiled.accumulate_perturbed(s, x, yz)
        np.testing.assert_allclose(s, np.outer(yz, x), atol=1e-15)
