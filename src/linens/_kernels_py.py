"""Numpy implementations of the per-step simulation kernels.

Every argument carries a leading batch shape, ``()`` for one replication
or ``(R,)`` for R replications stepped in lockstep. A batched call is the
serial numpy call with the batch axis in front (stacked ``np.matmul``,
broadcast elementwise products), which numpy evaluates item by item through
the serial kernel, so each replication gets the same bits in any batch.
"""

from __future__ import annotations

import numpy as np


def rank1_update(gram: np.ndarray, gram_inv: np.ndarray, x: np.ndarray) -> None:
    """In-place rank-1 update of a Gram matrix and its inverse.

    ``gram`` gains ``x x^T``; ``gram_inv`` is corrected with the rank-1
    inverse identity so it stays the inverse of ``gram``.
    """
    col, row = x[..., :, None], x[..., None, :]
    gram += col * row
    u = np.matmul(gram_inv, col)
    denom = 1.0 + np.matmul(row, u)
    gram_inv -= (u * u.swapaxes(-1, -2)) / denom


def quad_form(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Return ``v^T mat v``."""
    return np.matmul(v[..., None, :], np.matmul(mat, v[..., :, None]))[..., 0, 0]


def accumulate_perturbed(s: np.ndarray, x: np.ndarray, yz: np.ndarray) -> None:
    """Add ``x * yz[j]`` to column ``j`` of ``s``, for every column.

    ``s`` holds an ensemble's sums model-last, ``(d, m)`` per replication,
    so the inner loop of the in-place add runs over the m models. Each
    entry gains the one product ``x[k] * yz[j]``, the bits of the
    model-first ``yz[j] * x[k]``."""
    s += x[..., :, None] * yz[..., None, :]
