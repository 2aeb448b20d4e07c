"""Arm-selection policies.

All policies share the same interaction surface: ``select(arms)`` returns
the chosen arm (plus the estimator used, for diagnostics), and
``update(x, y)`` folds the pulled arm's vector and its reward into the state.
Argmax ties are broken toward the smallest arm index everywhere, which
makes the cross-policy equality tests exact.

A policy steps a batch of R replications in lockstep: it is given a list
of R per-replication seeds (or ``batch=R`` when it draws nothing), and a
lone replication is a batch of one. Every array has a leading axis of
length R, and ``select``/``update`` take and return one arm, reward and
estimator per replication; see :mod:`linens.linalg` for why each
replication's numbers are the same bits in any batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels_py as kernels
from .linalg import GramState, matvec
from .perturb import (
    TAG_INIT,
    TAG_MODEL,
    TAG_PHE,
    TAG_REWARD,
    ConfidenceParams,
    ModelChoice,
    PerturbationFamily,
    PerturbationSpec,
    StepDraws,
    beta,
    history_draws,
    initial_draws,
    reward_draws,
    seed_prefixes,
)


class InvalidStateError(RuntimeError):
    """A policy was driven outside its valid operating regime."""


class Sampler:
    """Ensemble-index distribution."""

    UNIFORM = "uniform"
    ROUND_ROBIN = "round_robin"

    ALL = (UNIFORM, ROUND_ROBIN)


class Selection(NamedTuple):
    arm_index: np.ndarray  # (R,)
    model_index: np.ndarray  # (R,); -1 for non-ensemble policies
    theta: np.ndarray  # (R, d): the estimator the arm was greedy against


def argmax_smallest_index(values: np.ndarray) -> np.ndarray:
    # argmax returns the first maximizer, i.e. the smallest index
    return values.argmax(axis=-1)


class _RidgeBase:
    """Shared ridge backbone: Gram state plus the unperturbed reward sum.

    The unperturbed sum is maintained alongside any perturbed state so the
    estimator's decomposition into ridge fit + perturbation is observable
    without re-solves.
    """

    def __init__(self, dim: int, lam: float, batch: int = 1):
        self.gram = GramState(dim, lam, batch)
        self.reward_sum = np.zeros((self.batch, dim))
        # the observed rows, (R, n, d) and (R, n), of a policy that replays
        # its history: it sets them to 8-row buffers, which double when full
        self._xs = self._ys = None
        # the model index of every selection of a policy without models
        self._no_model = np.broadcast_to(np.int64(-1), (self.batch,))

    @property
    def dim(self) -> int:
        return self.gram.dim

    @property
    def lam(self) -> float:
        return self.gram.lam

    @property
    def step(self) -> int:
        return self.gram.step_count

    @property
    def batch(self) -> int:
        return self.gram.batch

    def _selection(self, scores: np.ndarray, theta: np.ndarray, model=None) -> Selection:
        """The argmax of ``scores``, for the estimator ``theta`` of
        ``model``: one index per replication, or none (-1)."""
        if model is None:
            model = self._no_model
        return Selection(argmax_smallest_index(scores), model, theta)

    def ridge_estimate(self) -> np.ndarray:
        """The unperturbed ridge estimator."""
        return self.gram.solve(self.reward_sum)

    def estimator(self) -> np.ndarray:
        """The estimator that :meth:`select` acts on: the ridge estimate,
        which the ensembles and perturbed-history exploration override."""
        return self.ridge_estimate()

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.estimator()
        return self._selection(matvec(arms, theta), theta)

    def update(self, x: np.ndarray, y) -> None:
        """Record one step: the history (if kept), Gram state and reward sum."""
        x = np.asarray(x, dtype=np.float64)
        if self._xs is not None:
            n = self.step
            if n == self._xs.shape[-2]:
                self._xs = np.concatenate([self._xs, np.empty_like(self._xs)], axis=-2)
                self._ys = np.concatenate([self._ys, np.empty_like(self._ys)], axis=-1)
            self._xs[..., n, :] = x
            self._ys[..., n] = y
        self.gram.update(x)
        self.reward_sum += np.asarray(y)[..., None] * x


class GreedyRidge(_RidgeBase):
    """Plays the argmax of the plain ridge estimator; the reference policy
    for the zero-perturbation collapse checks."""


class EnsembleSampling(_RidgeBase):
    """Linear ensemble sampling.

    Maintains ``n_models`` perturbed running sums over one shared Gram
    state, stored model-last, ``(d, n_models)`` per replication, so that
    each step's update of every sum runs along the models;
    :attr:`s_vectors` is their ``(n_models, d)`` view. Each sum starts at
    its model's keyed initial perturbation. Each step picks a model, in
    turn (``Sampler.ROUND_ROBIN``, for at most ``n_models`` steps) or by a
    :class:`~linens.perturb.ModelChoice` draw under each seed's
    ``TAG_MODEL`` prefix, acts greedily on its :meth:`estimator`, then
    updates every sum with the observed reward plus a fresh keyed reward
    perturbation. Every draw is one :func:`~linens.perturb.reward_draws`
    call for the batch: the initial matrices at construction
    (:func:`~linens.perturb.initial_draws`), and the reward perturbations,
    keyed by step, per block of steps (:class:`~linens.perturb.StepDraws`,
    at most ``DRAW_VALUES`` values). Each replication draws under the
    prefixes of its seed (:func:`~linens.perturb.seed_prefixes`), one per
    replication in ``seeds``. The lazy form is
    :class:`PerturbedHistoryReplay`.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        n_models: int,
        spec: PerturbationSpec,
        seeds: list[int],
        sampler: str = Sampler.UNIFORM,
    ):
        super().__init__(dim, lam, len(seeds))
        if n_models < 1:
            raise ValueError("n_models must be at least 1")
        if sampler not in Sampler.ALL:
            raise ValueError(f"unknown sampler {sampler!r}: must be one of {Sampler.ALL}")
        self.n_models = int(n_models)
        self.spec = spec
        self.sampler = sampler
        self._models = None
        if sampler == Sampler.UNIFORM:
            self._models = StepDraws(
                ModelChoice(self.n_models), seed_prefixes(seeds, TAG_MODEL), np.arange(1)
            )
        w = initial_draws(spec, seed_prefixes(seeds, TAG_INIT), n_models, dim, lam)
        self._sums = np.ascontiguousarray(w.swapaxes(-1, -2))
        self._rows = np.arange(self.batch)
        self._prefixes = seed_prefixes(seeds, TAG_REWARD)
        self._rewards = StepDraws(spec, self._prefixes, np.arange(self.n_models))

    @property
    def s_vectors(self) -> np.ndarray:
        """The perturbed sums, shape (n_models, dim) per replication: a
        writable view of the model-last storage."""
        return self._sums.swapaxes(-1, -2)

    def thetas(self) -> np.ndarray:
        """All ensemble estimators, shape (n_models, dim) per replication;
        the product takes a contiguous copy of the sums."""
        return np.matmul(np.ascontiguousarray(self.s_vectors), self.gram.gram_inv)

    def model_theta(self, model) -> np.ndarray:
        """The estimator of ``model``, one index per replication; a
        negative index is refused, as :func:`~linens.perturb.reward_draws`
        refuses it, rather than read from the end."""
        low = np.asarray(model).min()
        if low < 0:
            raise ValueError(f"model index {low} is negative")
        return self._model_theta(model)

    def _model_theta(self, model) -> np.ndarray:
        """:meth:`model_theta` without the index check, for the indices the
        policy's own sampler made (:meth:`_model_index`); the one estimator
        rule that a lazy form overrides."""
        return self.gram.solve(self._sums[self._rows, :, model])

    def _model_index(self) -> np.ndarray:
        """Step ``t = step + 1``'s model, one index per replication."""
        t = self.step + 1
        if self.sampler == Sampler.UNIFORM:
            return self._models.at(t)[..., 0]
        if t > self.n_models:
            raise InvalidStateError(
                f"round-robin sampling exhausted: step {t} > ensemble size {self.n_models}"
            )
        return np.broadcast_to(t - 1, (self.batch,))

    def estimator(self) -> np.ndarray:
        return self._model_theta(self._model_index())

    def select(self, arms: np.ndarray) -> Selection:
        j = self._model_index()
        theta = self._model_theta(j)
        return self._selection(matvec(arms, theta), theta, j)

    def update(self, x: np.ndarray, y) -> None:
        x = np.asarray(x, dtype=np.float64, order="C")
        super().update(x, y)
        z = self._rewards.at(self.step)
        kernels.accumulate_perturbed(self._sums, x, np.asarray(y)[..., None] + z)


class PerturbedHistoryReplay(EnsembleSampling):
    """The lazy form of a round-robin :class:`EnsembleSampling` of ``m``
    models: LinPHE is linear ensemble sampling with m = T.

    It keeps the history instead of the sums, and rebuilds a model's sum
    from its initial row and the ensemble's draws for it, so at step ``t``
    it acts on model ``t - 1``'s estimator, the ensemble's bit for bit.
    The history is the buffer that :meth:`_RidgeBase.update` records, so
    it grows with the steps taken, not with ``m``.
    """

    def __init__(self, dim: int, lam: float, spec: PerturbationSpec, seeds: list[int], m: int):
        super().__init__(dim, lam, m, spec, seeds, sampler=Sampler.ROUND_ROBIN)
        self._xs = np.empty((self.batch, 8, dim))
        self._ys = np.empty((self.batch, 8))

    @property
    def s_vectors(self) -> np.ndarray:
        raise AttributeError("the lazy ensemble keeps no perturbed sums")

    def _model_theta(self, model) -> np.ndarray:
        """The estimator of ``model``, one index per replication; its
        initial row is the constructor's sum, which is never updated."""
        n = self.step
        # each replication's model's perturbation of each step so far, as the ensemble drew it
        models, steps = np.reshape(model, (-1, 1, 1)), np.arange(1, n + 1)
        z = reward_draws(self.spec, self._prefixes[:, None], models, steps)[..., 0]
        # accumulate in step order with the ensemble's exact draws so
        # the float operations match the incremental path bit for bit:
        # add.accumulate adds the rows one after another, where a sum
        # or a matrix product would pair them
        terms = self._xs[..., :n, :] * (self._ys[..., :n] + z)[..., None]
        rows = np.concatenate([self._sums[self._rows, :, model][:, None], terms], axis=-2)
        s = np.add.accumulate(rows, axis=-2)[..., -1, :]
        return self.gram.solve(np.ascontiguousarray(s))

    # the base update records the history; there are no perturbed sums to update
    update = _RidgeBase.update


class LinPHE(_RidgeBase):
    """Linear perturbed-history exploration.

    At each step the entire observed history is re-perturbed with fresh
    draws and the arm is chosen greedily on the resulting estimator
    ``V^{-1} (w + X^T (y + z))``, with prior perturbation ``w`` (standard
    deviation ``sqrt(lam) * scale`` per coordinate) and one reward
    perturbation ``z_i`` (scale ``scale``) per history row.

    For the gaussian family the re-perturbation has a closed form:
    ``w + X^T z ~ N(0, scale^2 V)``, so the estimator is distributed as
    ``ridge + L xi`` with ``xi ~ N(0, scale^2 I)`` and any ``L`` with
    ``L L^T = V^{-1}``, Thompson sampling's draw. The policy draws exactly
    that with ``L`` the Cholesky factor of the maintained inverse
    (:meth:`~linens.linalg.GramState.inverse_cholesky`), at a cost per step
    that does not grow with ``t`` and with no stored history: ``xi`` is
    ``d`` values of :func:`~linens.perturb.reward_draws` under each seed's
    ``TAG_PHE`` prefix and the key ``t``, drawn for the batch in one call
    per block of steps (:class:`~linens.perturb.StepDraws`, whose block
    length is bounded by ``DRAW_VALUES`` values). The other families' sums
    are not of their family, so they re-perturb the O(t) history, which
    :meth:`_RidgeBase.update` records, with
    :func:`~linens.perturb.history_draws`, one call per step for the batch,
    whose first ``d`` values are that same ``xi``. Its estimator has the
    law of the m = T ensemble's lazy form, :class:`PerturbedHistoryReplay`.
    """

    def __init__(self, dim: int, lam: float, spec: PerturbationSpec, seeds: list[int]):
        super().__init__(dim, lam, len(seeds))
        self.spec = spec
        self._prefixes = seed_prefixes(seeds, TAG_PHE)
        # the history is kept only where it is re-perturbed: the gaussian
        # family draws the perturbation of the whole history in closed form
        if spec.family == PerturbationFamily.GAUSSIAN:
            self._xi = StepDraws(spec, self._prefixes, np.arange(dim))
        else:
            self._xs = np.empty((self.batch, 8, dim))
            self._ys = np.empty((self.batch, 8))

    def estimator(self) -> np.ndarray:
        """The freshly perturbed estimator for step ``t = step + 1``."""
        t = self.step + 1
        if self._xs is None:
            return self.ridge_estimate() + matvec(self.gram.inverse_cholesky(), self._xi.at(t))
        n = self.step
        w, z = history_draws(self.spec, self._prefixes, t, self.dim, n, self.lam)
        s = w + matvec(np.swapaxes(self._xs[..., :n, :], -1, -2), self._ys[..., :n] + z)
        return self.gram.solve(np.ascontiguousarray(s))


class LinUCB(_RidgeBase):
    """Optimism in the face of uncertainty: greedy on the ridge estimate
    plus a width bonus in the inverse-Gram norm.

    The bonus radius is either a fixed non-negative number or, when
    ``params`` is given, the ridge confidence radius evaluated at the
    current step.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        bonus: float | None = None,
        params: ConfidenceParams | None = None,
        batch: int = 1,
    ):
        super().__init__(dim, lam, batch)
        if (bonus is None) == (params is None):
            raise ValueError("provide exactly one of bonus or params")
        if bonus is not None and not 0 <= bonus < np.inf:
            raise ValueError(f"bonus must be non-negative and finite, got {bonus}")
        self.bonus = bonus
        self.params = params

    def current_bonus(self) -> float:
        if self.bonus is not None:
            return self.bonus
        return beta(self.params, self.step)

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.ridge_estimate()
        widths = np.sqrt(
            np.maximum(
                np.einsum("...kd,...de,...ke->...k", arms, self.gram.gram_inv, arms), 0.0
            )
        )
        scores = matvec(arms, theta) + self.current_bonus() * widths
        return self._selection(scores, theta)


class LinTS(LinPHE):
    """Gaussian linear Thompson sampling: greedy on a draw from
    ``N(ridge, scale^2 V^{-1})`` (Agrawal & Goyal, ICML 2013), taken as
    ``ridge + L xi`` with ``L L^T = V^{-1}`` and ``xi ~ N(0, scale^2 I)``.

    That is gaussian perturbed-history exploration's closed form, so LinTS
    is :class:`LinPHE` with a gaussian spec at ``scale``: the same
    ``TAG_PHE`` draw of ``d`` models per step, under its own scale rule.
    """

    def __init__(self, dim: int, lam: float, scale: float, seeds: list[int]):
        super().__init__(dim, lam, PerturbationSpec(PerturbationFamily.GAUSSIAN, scale), seeds)
