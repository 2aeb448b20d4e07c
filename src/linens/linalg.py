"""Incremental regularized least-squares state.

:class:`GramState` maintains the regularized Gram matrix
``V_t = lambda * I + sum_i x_i x_i^T`` together with its inverse under
rank-1 updates. The inverse is kept current with the Sherman-Morrison
identity (O(d^2) per step) and re-derived from scratch every
``REINVERT_PERIOD`` updates to keep drift bounded.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .backend import kernels

#: Updates between full re-inversions of the Gram matrix.
REINVERT_PERIOD = 1024

#: Absolute tolerance for the ``gram @ gram_inv == I`` consistency check.
INVERSE_TOL = 1e-8

#: Slack allowed on the unit-norm precondition of update vectors.
NORM_SLACK = 1e-9


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
        Regularization strength (> 0); the state starts at ``lam * I``.
    """

    __slots__ = ("dim", "lam", "gram", "gram_inv", "step_count")

    def __init__(self, dim: int, lam: float):
        if not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        if not lam > 0:
            raise ValueError(f"lam must be positive, got {lam!r}")
        self.dim = int(dim)
        self.lam = float(lam)
        self.gram = np.eye(self.dim) * self.lam
        self.gram_inv = np.eye(self.dim) / self.lam
        self.step_count = 0

    def _check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"expected vector of dimension {self.dim}, got shape {v.shape}")
        return np.ascontiguousarray(v)

    def update(self, x: np.ndarray) -> None:
        """Apply the rank-1 update ``V += x x^T`` and maintain the inverse.

        ``x`` must have 2-norm at most 1 (up to slack); the zero vector is
        allowed and still counts as a step.
        """
        x = self._check_vector(x)
        norm = float(np.linalg.norm(x))
        if norm > 1.0 + NORM_SLACK:
            raise ValueError(f"update vector must satisfy ||x|| <= 1, got ||x|| = {norm}")
        kernels.rank1_update(self.gram, self.gram_inv, x)
        self.step_count += 1
        if self.step_count % REINVERT_PERIOD == 0:
            self.reinvert()

    def reinvert(self) -> None:
        """Recompute the inverse directly from the Gram matrix."""
        inv = np.linalg.inv(self.gram)
        self.gram_inv = np.ascontiguousarray((inv + inv.T) / 2.0)

    def weighted_norm(self, v: np.ndarray, metric: Metric = Metric.GRAM) -> float:
        """Return ``sqrt(v^T M v)`` with ``M`` the Gram matrix or its inverse."""
        v = self._check_vector(v)
        mat = self.gram if metric is Metric.GRAM else self.gram_inv
        return float(np.sqrt(max(kernels.quad_form(mat, v), 0.0)))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return ``V^{-1} b`` using the maintained inverse."""
        b = self._check_vector(b)
        return self.gram_inv @ b

    def inverse_drift(self) -> float:
        """Max absolute entry of ``gram @ gram_inv - I`` (consistency check)."""
        return float(np.max(np.abs(self.gram @ self.gram_inv - np.eye(self.dim))))
