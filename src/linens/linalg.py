"""Incremental regularized least-squares state.

:class:`GramState` maintains the regularized Gram matrix
``V_t = lambda * I + sum_i x_i x_i^T`` together with its inverse under
rank-1 updates. The inverse is kept current with the Sherman-Morrison
identity (O(d^2) per step) and re-derived from scratch every
``REINVERT_PERIOD`` updates to keep drift bounded.

Arrays carry a leading ``(R,)`` batch axis for the R replications stepped
in lockstep; a lone replication is a batch of one. Each batched operation
is the serial numpy call with the batch axis in front: stacked ``np.matmul``,
batched ``np.linalg.inv`` or ``np.linalg.cholesky``, or an ``einsum`` whose
serial subscripts gain a leading ``...`` (the widths of
:meth:`linens.policies.LinUCB.select` and the monitor's ensemble fraction).
Numpy evaluates each item by item through the serial call's kernel, so a
replication's numbers do not depend on the batch it runs in. What is not
used is another form in place of the one a value is defined by (``einsum``
for a matrix product, ``(a * b).sum`` for a dot, a matrix product against
transposed arms, or ``np.linalg.norm`` along an axis): those may round
differently. Storage order is free where no value depends on it: an
ensemble keeps its perturbed sums model-last, ``(..., d, m)``, so the
per-step update of every sum runs along the m models, and hands a matrix
product a contiguous ``(..., m, d)`` copy, the operand layout of its
definition.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from . import _kernels_py as kernels

#: Updates between full re-inversions of the Gram matrix.
REINVERT_PERIOD = 1024

#: Smallest ``lam`` accepted: the inverse starts at ``I / lam``, and its
#: Sherman-Morrison updates lose positive definiteness at 1e-16 and overflow
#: at 1e-200. Every policy ran cleanly down to 1e-14, two decades lower.
MIN_LAMBDA = 1e-12

#: Slack allowed on the norm preconditions: unit-ball update vectors and
#: arms, and the parameter bound of an environment.
NORM_SLACK = 1e-9


def dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis, one per batch item (the BLAS dot
    of the 1-d ``a @ b``)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def matvec(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``mat @ v`` per batch item (the BLAS gemv of the 2-d by 1-d product);
    a 2-d ``mat`` serves every item."""
    return np.matmul(mat, v[..., :, None])[..., 0]


def pick(a: np.ndarray, index, core_ndim: int) -> np.ndarray:
    """``a[index]`` for each batch item. ``a`` is one ``core_ndim``-d array
    that serves every item, and is indexed directly, or has the ``(R,)``
    batch shape of ``index`` in front."""
    if a.ndim == core_ndim:
        return a[index]
    return a[np.arange(len(index)), index]


def weighted_norm(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``sqrt(v^T mat v)`` per batch item, clipped at zero from below; any
    leading axes of ``mat`` and ``v`` broadcast together."""
    return np.sqrt(np.maximum(kernels.quad_form(mat, v), 0.0))


class Metric(Enum):
    """Which matrix weights a quadratic form."""

    GRAM = "gram"
    GRAM_INV = "gram_inv"


class GramState:
    """Regularized Gram matrix and its inverse under rank-1 updates.

    Parameters
    ----------
    dim : int
        Ambient dimension ``d`` (>= 1).
    lam : float
        Regularization strength (>= ``MIN_LAMBDA``, finite); the state starts at ``lam * I``.
    batch : int, optional
        Replications stepped together (>= 1, default 1): ``gram`` is
        ``(batch, d, d)`` and vectors are ``(batch, d)``.
    """

    __slots__ = ("dim", "lam", "gram", "gram_inv", "step_count")

    def __init__(self, dim: int, lam: float, batch: int = 1):
        for name, value in (("dim", dim), ("batch", batch)):
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not MIN_LAMBDA <= lam < np.inf:
            raise ValueError(f"lam must be at least {MIN_LAMBDA} and finite, got {lam}")
        self.dim = int(dim)
        self.lam = float(lam)
        shape = (int(batch), self.dim, self.dim)
        self.gram = np.broadcast_to(np.eye(self.dim) * self.lam, shape).copy()
        self.gram_inv = np.broadcast_to(np.eye(self.dim) / self.lam, shape).copy()
        self.step_count = 0

    @property
    def batch(self) -> int:
        return len(self.gram)

    def _check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64, order="C")
        if v.shape != self.gram.shape[:-1]:
            raise ValueError(
                f"expected vector of dimension {self.dim} per replication, got shape {v.shape}"
            )
        return v

    def update(self, x: np.ndarray) -> None:
        """Apply the rank-1 update ``V += x x^T`` and maintain the inverse.

        ``x`` must have 2-norm at most 1 (up to slack); the zero vector is
        allowed and still counts as a step. One reduction checks the whole
        batch: ``sqrt`` is monotone, so the largest norm is the root of the
        largest ``x . x``.
        """
        x = self._check_vector(x)
        norm = math.sqrt(dot(x, x).max())
        # a NaN row makes the max NaN, and every comparison with NaN is false
        if not norm <= 1.0 + NORM_SLACK:
            raise ValueError(f"update vector must satisfy ||x|| <= 1, got ||x|| = {norm}")
        kernels.rank1_update(self.gram, self.gram_inv, x)
        self.step_count += 1
        if self.step_count % REINVERT_PERIOD == 0:
            self.reinvert()

    def reinvert(self) -> None:
        """Recompute the inverse directly from the Gram matrix."""
        inv = np.linalg.inv(self.gram)
        self.gram_inv = np.ascontiguousarray((inv + inv.swapaxes(-1, -2)) / 2.0)

    def weighted_norm(self, v: np.ndarray, metric: Metric = Metric.GRAM) -> np.ndarray:
        """Return ``sqrt(v^T M v)`` with ``M`` the Gram matrix or its inverse,
        one per replication."""
        v = self._check_vector(v)
        mat = self.gram if metric is Metric.GRAM else self.gram_inv
        return weighted_norm(mat, v)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return ``V^{-1} b`` using the maintained inverse."""
        return matvec(self.gram_inv, self._check_vector(b))

    def inverse_cholesky(self) -> np.ndarray:
        """``L``, the lower-triangular Cholesky factor of the maintained
        inverse, ``L L^T = V^{-1}``: ``L xi`` with ``xi ~ N(0, s^2 I)`` is a
        draw from ``N(0, s^2 V^{-1})``. ``np.linalg.cholesky`` factors each
        batch item on its own, so a replication's factor does not depend on
        its batch."""
        return np.linalg.cholesky(self.gram_inv)

    def inverse_drift(self) -> float:
        """Max absolute entry of ``gram @ gram_inv - I`` over the batch
        (consistency check)."""
        return float(np.max(np.abs(self.gram @ self.gram_inv - np.eye(self.dim))))
