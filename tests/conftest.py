import math

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_unit_ball(rng, dim, count=1, radius=1.0):
    """Random points in the radius-ball of R^dim."""
    v = rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius * rng.uniform(0.0, 1.0, size=count) ** (1.0 / dim)
    out = v * r[:, None]
    return out[0] if count == 1 else out


def kolmogorov_pvalue(d: float, n: float) -> float:
    """P-value of a Kolmogorov-Smirnov statistic ``d`` over ``n``
    observations (two samples: their effective ``n1 n2 / (n1 + n2)``):
    Kolmogorov's limiting law ``2 sum (-1)^(k-1) exp(-2 k^2 t^2)`` at
    Stephens' (1970) finite-n statistic ``t = (sqrt(n) + 0.12 + 0.11 /
    sqrt(n)) d``."""
    t = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    tail = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * t * t) for k in range(1, 101))
    return min(1.0, max(0.0, tail))
