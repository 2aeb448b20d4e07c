"""Arm-selection policies.

All policies share the same interaction surface: ``select(arms)`` returns
the chosen arm (plus the estimator used, for diagnostics), and
``update(arm_index, x, y)`` folds one observation into the state.
Argmax ties are broken toward the smallest arm index everywhere, which
makes the cross-policy equality tests exact.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .backend import kernels
from .linalg import GramState
from .perturb import (
    ConfidenceParams,
    Keying,
    PerturbationSpec,
    PerturbationStream,
    beta,
)


class InvalidStateError(RuntimeError):
    """A policy was driven outside its valid operating regime."""


class Sampler:
    """Ensemble-index distribution."""

    UNIFORM = "uniform"
    ROUND_ROBIN = "round_robin"

    ALL = (UNIFORM, ROUND_ROBIN)


class Selection(NamedTuple):
    arm_index: int
    model_index: int  # -1 for non-ensemble policies
    theta: np.ndarray  # estimator the arm was greedy against


def argmax_smallest_index(values: np.ndarray) -> int:
    # np.argmax returns the first maximizer, i.e. the smallest index
    return int(np.argmax(values))


class _RidgeBase:
    """Shared ridge backbone: Gram state plus the unperturbed reward sum.

    The unperturbed sum is maintained alongside any perturbed state so the
    estimator's decomposition into ridge fit + perturbation is observable
    without re-solves.
    """

    def __init__(self, dim: int, lam: float):
        self.gram = GramState(dim, lam)
        self.reward_sum = np.zeros(dim)

    @property
    def dim(self) -> int:
        return self.gram.dim

    @property
    def lam(self) -> float:
        return self.gram.lam

    @property
    def step(self) -> int:
        return self.gram.step_count

    def ridge_estimate(self) -> np.ndarray:
        """The unperturbed ridge estimator."""
        return self.gram.solve(self.reward_sum)

    def _observe(self, x: np.ndarray, y: float) -> None:
        self.gram.update(x)
        self.reward_sum += y * x


class GreedyRidge(_RidgeBase):
    """Plays the argmax of the plain ridge estimator; the reference policy
    for the zero-perturbation collapse checks."""

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.ridge_estimate()
        return Selection(argmax_smallest_index(arms @ theta), -1, theta)

    def update(self, arm_index: int, x: np.ndarray, y: float) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class EnsembleSampling(_RidgeBase):
    """Linear ensemble sampling.

    Maintains ``n_models`` perturbed running sums over one shared Gram
    state. Each step samples a model index, acts greedily on that model's
    estimator, then updates every model's sum with the observed reward
    plus a fresh keyed reward perturbation.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        n_models: int,
        spec: PerturbationSpec,
        stream: PerturbationStream,
        sampler: str = Sampler.UNIFORM,
        model_rng: np.random.Generator | None = None,
    ):
        super().__init__(dim, lam)
        if n_models < 1:
            raise ValueError("n_models must be at least 1")
        if sampler not in Sampler.ALL:
            raise ValueError(f"unknown sampler {sampler!r}")
        if sampler == Sampler.UNIFORM and model_rng is None:
            raise ValueError("uniform sampling requires a model_rng")
        self.n_models = int(n_models)
        self.spec = spec
        self.stream = stream
        self.sampler = sampler
        self.model_rng = model_rng
        self.s_vectors = stream.initial_matrix(spec, n_models, dim, lam)
        self.arm_counts: dict[int, int] = {}

    def thetas(self) -> np.ndarray:
        """All ensemble estimators, shape (n_models, dim)."""
        return self.s_vectors @ self.gram.gram_inv

    def model_theta(self, model: int) -> np.ndarray:
        return self.gram.solve(np.ascontiguousarray(self.s_vectors[model]))

    def select(self, arms: np.ndarray) -> Selection:
        t = self.step + 1
        if self.sampler == Sampler.ROUND_ROBIN:
            if t > self.n_models:
                raise InvalidStateError(
                    f"round-robin sampling exhausted: step {t} > ensemble size {self.n_models}"
                )
            j = t - 1
        else:
            j = int(self.model_rng.integers(self.n_models))
        theta = self.model_theta(j)
        return Selection(argmax_smallest_index(arms @ theta), j, theta)

    def update(self, arm_index: int, x: np.ndarray, y: float) -> None:
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        t = self.step + 1
        if self.stream.keying == Keying.BY_STEP:
            key = (t,)
        else:
            count = self.arm_counts.get(arm_index, 0) + 1
            self.arm_counts[arm_index] = count
            key = (arm_index, count)
        z = self.stream.reward_vector(self.spec, self.n_models, *key)
        self.gram.update(x)
        kernels.accumulate_perturbed(self.s_vectors, x, y + z)
        self.reward_sum += y * x


class LinPHE(_RidgeBase):
    """Linear perturbed-history exploration.

    At each step the entire observed history is re-perturbed with fresh
    draws and the arm is chosen greedily on the resulting estimator.

    With ``shared_model_axis = m`` set, the fresh draws at step ``t`` are
    read from model ``t - 1`` of an m-model keyed stream instead of an
    independent per-step key. Against an ensemble run on the same stream
    with round-robin model choice, this reproduces the ensemble's draws
    exactly and the two policies become the same algorithm. Each step's
    m-vector of reward perturbations is drawn once, in ``update``, and
    kept, so a replay of T steps costs O(T) draws and O(T * m) floats.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        spec: PerturbationSpec,
        stream: PerturbationStream,
        shared_model_axis: int | None = None,
    ):
        super().__init__(dim, lam)
        if shared_model_axis is not None:
            if shared_model_axis < 1:
                raise ValueError("shared_model_axis must be at least 1")
            if stream.keying != Keying.BY_STEP:
                raise ValueError("shared-stream replay requires by-step keying")
        self.spec = spec
        self.stream = stream
        self.shared_model_axis = shared_model_axis
        self._initial_cache: np.ndarray | None = None
        self._xs = np.empty((8, dim))
        self._ys = np.empty(8)
        # row i: the shared stream's reward vector of step i + 1
        self._zs = None if shared_model_axis is None else np.empty((8, shared_model_axis))

    @property
    def history_length(self) -> int:
        return self.step

    def _grow(self) -> None:
        if self.step == self._xs.shape[0]:
            self._xs = np.concatenate([self._xs, np.empty_like(self._xs)])
            self._ys = np.concatenate([self._ys, np.empty_like(self._ys)])
            if self._zs is not None:
                self._zs = np.concatenate([self._zs, np.empty_like(self._zs)])

    def estimator(self, t: int) -> np.ndarray:
        """The freshly perturbed estimator for step ``t``."""
        if t != self.step + 1:
            raise InvalidStateError(
                f"step {t} inconsistent with history length {self.step}"
            )
        n = self.step
        if self.shared_model_axis is not None:
            m = self.shared_model_axis
            if t > m:
                raise InvalidStateError(
                    f"shared-stream replay exhausted: step {t} > model axis {m}"
                )
            if self._initial_cache is None:
                self._initial_cache = self.stream.initial_matrix(
                    self.spec, m, self.dim, self.lam
                )
            # accumulate in step order with the ensemble's exact draws so
            # the float operations match the incremental path bit for bit:
            # add.accumulate adds the rows one after another, where a sum
            # or a matrix product would pair them
            terms = self._xs[:n] * (self._ys[:n] + self._zs[:n, t - 1])[:, None]
            s = np.add.accumulate(np.vstack([self._initial_cache[t - 1], terms]))[-1]
        else:
            w, z = self.stream.history_perturbation(self.spec, t, self.dim, n, self.lam)
            s = w + self._xs[:n].T @ (self._ys[:n] + z)
        return self.gram.solve(np.ascontiguousarray(s))

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.estimator(self.step + 1)
        return Selection(argmax_smallest_index(arms @ theta), -1, theta)

    def update(self, arm_index: int, x: np.ndarray, y: float) -> None:
        x = np.asarray(x, dtype=np.float64)
        self._grow()
        self._xs[self.step] = x
        self._ys[self.step] = y
        if self._zs is not None:
            self._zs[self.step] = self.stream.reward_vector(
                self.spec, self.shared_model_axis, self.step + 1
            )
        self._observe(x, y)


class LinUCB(_RidgeBase):
    """Optimism in the face of uncertainty: greedy on the ridge estimate
    plus a width bonus in the inverse-Gram norm.

    The bonus radius is either a fixed number or, when ``params`` is
    given, the ridge confidence radius evaluated at the current step.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        bonus: float | None = None,
        params: ConfidenceParams | None = None,
    ):
        super().__init__(dim, lam)
        if (bonus is None) == (params is None):
            raise ValueError("provide exactly one of bonus or params")
        self.bonus = bonus
        self.params = params

    def current_bonus(self) -> float:
        if self.bonus is not None:
            return self.bonus
        return beta(self.params, self.step)

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.ridge_estimate()
        widths = np.sqrt(
            np.maximum(np.einsum("kd,de,ke->k", arms, self.gram.gram_inv, arms), 0.0)
        )
        scores = arms @ theta + self.current_bonus() * widths
        return Selection(argmax_smallest_index(scores), -1, theta)

    def update(self, arm_index: int, x: np.ndarray, y: float) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class LinTS(_RidgeBase):
    """Gaussian linear Thompson sampling: greedy on
    ``ridge + V^{-1/2} xi`` with ``xi ~ N(0, scale^2 I)``.

    ``V^{-1/2}`` comes from a symmetric eigendecomposition each step.
    """

    def __init__(self, dim: int, lam: float, scale: float, rng: np.random.Generator):
        super().__init__(dim, lam)
        if scale < 0:
            raise ValueError("scale must be non-negative")
        self.scale = scale
        self.rng = rng

    def sample_estimator(self) -> np.ndarray:
        evals, evecs = np.linalg.eigh(self.gram.gram)
        inv_half = (evecs / np.sqrt(evals)) @ evecs.T
        xi = self.scale * self.rng.standard_normal(self.dim)
        return self.ridge_estimate() + inv_half @ xi

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.sample_estimator()
        return Selection(argmax_smallest_index(arms @ theta), -1, theta)

    def update(self, arm_index: int, x: np.ndarray, y: float) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)
