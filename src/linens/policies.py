"""Arm-selection policies.

All policies share the same interaction surface: ``select(arms)`` returns
the chosen arm (plus the estimator used, for diagnostics), and
``update(arm_index, x, y)`` folds one observation into the state.
Argmax ties are broken toward the smallest arm index everywhere, which
makes the cross-policy equality tests exact.

A policy steps one replication, or a batch of R replications in lockstep
when it is given a list of R per-replication seeds (or ``batch=R``
when it draws nothing). Batched, every array gains a leading axis of
length R and ``select``/``update`` take and return one arm, reward and
estimator per replication; see :mod:`linens.linalg` for why each
replication's numbers are the same bits in any batch.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _kernels_py as kernels
from .linalg import GramState, matvec, unwrap
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


class Keying:
    """How an ensemble keys its reward perturbations: by step, or by the
    chosen arm and its pull count."""

    BY_STEP = "by_step"
    BY_ARM_COUNT = "by_arm_count"

    ALL = (BY_STEP, BY_ARM_COUNT)


class Selection(NamedTuple):
    arm_index: int  # an (R,) array when batched
    model_index: int  # -1 for non-ensemble policies
    theta: np.ndarray  # estimator the arm was greedy against


def argmax_smallest_index(values: np.ndarray):
    # np.argmax returns the first maximizer, i.e. the smallest index
    return unwrap(np.argmax(values, axis=-1))


def _per_replication(seed) -> tuple[list, int | None]:
    """A list or tuple holds one seed per replication of a batch; anything
    else is the one seed of an unbatched policy."""
    if isinstance(seed, (list, tuple)):
        return list(seed), len(seed)
    return [seed], None


class _RidgeBase:
    """Shared ridge backbone: Gram state plus the unperturbed reward sum.

    The unperturbed sum is maintained alongside any perturbed state so the
    estimator's decomposition into ridge fit + perturbation is observable
    without re-solves.
    """

    def __init__(self, dim: int, lam: float, batch: int | None = None):
        self.gram = GramState(dim, lam, batch)
        self.reward_sum = np.zeros(self.batch_shape + (dim,))
        # the model index of every selection of a policy without models
        self._no_model = np.broadcast_to(np.int64(-1), self.batch_shape)

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
    def batch_shape(self) -> tuple:
        return self.gram.batch_shape

    def _selection(self, scores: np.ndarray, theta: np.ndarray, model=None) -> Selection:
        """The argmax of ``scores``, for the estimator ``theta`` of
        ``model``: one index per replication, or none (-1)."""
        if model is None:
            model = self._no_model
        return Selection(argmax_smallest_index(scores), unwrap(model), theta)

    def ridge_estimate(self) -> np.ndarray:
        """The unperturbed ridge estimator."""
        return self.gram.solve(self.reward_sum)

    def estimator(self) -> np.ndarray:
        """The estimator that :meth:`select` is greedy on: the ridge
        estimate, which the perturbed-history policies override."""
        return self.ridge_estimate()

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.estimator()
        return self._selection(matvec(arms, theta), theta)

    def _observe(self, x: np.ndarray, y) -> None:
        self.gram.update(x)
        self.reward_sum += np.asarray(y)[..., None] * x

    def update(self, arm_index, x: np.ndarray, y) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class GreedyRidge(_RidgeBase):
    """Plays the argmax of the plain ridge estimator; the reference policy
    for the zero-perturbation collapse checks."""


class EnsembleSampling(_RidgeBase):
    """Linear ensemble sampling.

    Maintains ``n_models`` perturbed running sums over one shared Gram
    state, stored model-last, ``(d, n_models)`` per replication, so that
    each step's update of every sum runs along the models;
    :attr:`s_vectors` is their ``(n_models, d)`` view. Each sum starts at
    its model's keyed initial perturbation. Each
    step samples a model index, acts greedily on that model's estimator,
    then updates every model's sum with the observed reward plus a fresh
    keyed reward perturbation. Both draws are
    :func:`~linens.perturb.reward_draws` calls for every model and
    replication of the batch: the initial matrices in one call at
    construction (:func:`~linens.perturb.initial_draws`), and the reward
    perturbations keyed by step in one call per block of steps
    (:class:`~linens.perturb.StepDraws`, whose block length is bounded
    by ``DRAW_VALUES`` values). Each replication draws under the prefixes
    of its seed (:func:`~linens.perturb.seed_prefixes`): ``seed`` is an
    int, or a list of R ints for a batch. ``keying`` says what keys a reward
    perturbation: the step (``Keying.BY_STEP``), or the chosen arm and its
    pull count (``Keying.BY_ARM_COUNT``). Keys by ``(arm, count)`` depend
    on the pulls, so that keying draws one call per step. Uniform model
    choice is a :class:`~linens.perturb.ModelChoice` draw under each
    seed's ``TAG_MODEL`` prefix, keyed by step in the same blocks.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        n_models: int,
        spec: PerturbationSpec,
        seed: int | list[int],
        sampler: str = Sampler.UNIFORM,
        keying: str = Keying.BY_STEP,
    ):
        seeds, batch = _per_replication(seed)
        super().__init__(dim, lam, batch)
        if n_models < 1:
            raise ValueError("n_models must be at least 1")
        if sampler not in Sampler.ALL:
            raise ValueError(f"unknown sampler {sampler!r}: must be one of {Sampler.ALL}")
        if keying not in Keying.ALL:
            raise ValueError(f"unknown keying {keying!r}: must be one of {Keying.ALL}")
        self.n_models = int(n_models)
        self.spec = spec
        self.keying = keying
        self.sampler = sampler
        self._models = None
        if sampler == Sampler.UNIFORM:
            self._models = StepDraws(
                ModelChoice(self.n_models),
                seed_prefixes(seeds, TAG_MODEL),
                range(1),
                batched=batch is not None,
            )
        w = initial_draws(spec, seed_prefixes(seeds, TAG_INIT), n_models, dim, lam)
        w = w.reshape(self.batch_shape + (n_models, dim))
        self._sums = np.ascontiguousarray(w.swapaxes(-1, -2))
        self._rows = np.arange(len(seeds))
        self._prefixes = seed_prefixes(seeds, TAG_REWARD)
        self._rewards = None
        if keying == Keying.BY_STEP:
            self._rewards = StepDraws(
                spec, self._prefixes, range(self.n_models), batched=batch is not None
            )
        # (R, arms seen so far): pulls of each arm, for by-arm-count keys
        self._arm_counts = np.zeros((len(seeds), 0), dtype=np.int64)

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
        """The estimator of ``model``, one index per replication."""
        if self._sums.ndim == 2:
            return self.gram.solve(self._sums[:, model])
        return self.gram.solve(self._sums[self._rows, :, model])

    def select(self, arms: np.ndarray) -> Selection:
        t = self.step + 1
        if self.sampler == Sampler.ROUND_ROBIN:
            if t > self.n_models:
                raise InvalidStateError(
                    f"round-robin sampling exhausted: step {t} > ensemble size {self.n_models}"
                )
            j = np.broadcast_to(t - 1, self.batch_shape)
        else:
            j = self._models.at(t)[..., 0]
        theta = self.model_theta(j)
        return self._selection(matvec(arms, theta), theta, j)

    def _reward_draws(self, arm_index) -> np.ndarray:
        """This step's reward perturbations; under by-arm-count keying,
        counts the pull of ``arm_index`` and keys each replication by it."""
        if self._rewards is not None:
            return self._rewards.at(self.step + 1)
        arms = np.broadcast_to(arm_index, self.batch_shape).reshape(-1)
        seen = self._arm_counts.shape[1]
        if arms.max() >= seen:
            self._arm_counts = np.pad(self._arm_counts, ((0, 0), (0, arms.max() + 1 - seen)))
        rows = np.arange(len(arms))
        self._arm_counts[rows, arms] += 1
        z = reward_draws(
            self.spec, self._prefixes, range(self.n_models), arms, self._arm_counts[rows, arms]
        )
        return z.reshape(self.batch_shape + (self.n_models,))

    def update(self, arm_index, x: np.ndarray, y) -> None:
        x = np.asarray(x, dtype=np.float64, order="C")
        z = self._reward_draws(arm_index)
        self._observe(x, y)
        kernels.accumulate_perturbed(self._sums, x, np.asarray(y)[..., None] + z)


class PerturbedHistoryReplay(_RidgeBase):
    """Perturbed-history exploration on an m-model ensemble's draws: LinPHE
    is linear ensemble sampling with ensemble size m = T.

    At step ``t`` it re-perturbs the history with model ``t - 1``'s
    ``TAG_INIT`` row and ``TAG_REWARD`` perturbations, drawn by the calls of
    a ``Keying.BY_STEP`` :class:`EnsembleSampling` on the same seed. Against
    that ensemble with round-robin model choice, its estimators are the
    ensemble's bit for bit. It selects at most m steps.
    """

    def __init__(self, dim: int, lam: float, spec: PerturbationSpec, seed: int | list[int], m: int):
        seeds, batch = _per_replication(seed)
        super().__init__(dim, lam, batch)
        if m < 1:
            raise ValueError("m must be at least 1")
        self.m = int(m)
        self.spec = spec
        w = initial_draws(spec, seed_prefixes(seeds, TAG_INIT), m, dim, lam)
        self._initial = w.reshape(self.batch_shape + (m, dim))
        self._prefixes = seed_prefixes(seeds, TAG_REWARD)
        self._xs = np.empty(self.batch_shape + (m, dim))
        self._ys = np.empty(self.batch_shape + (m,))

    def estimator(self) -> np.ndarray:
        """Ensemble model ``t - 1``'s estimator at step ``t = step + 1``."""
        t = self.step + 1
        if t > self.m:
            raise InvalidStateError(
                f"shared-stream replay exhausted: step {t} > model axis {self.m}"
            )
        # model t - 1's perturbation of each step so far, as the
        # ensemble drew it
        z = reward_draws(
            self.spec, self._prefixes[:, None], range(t - 1, t), np.arange(1, t)
        ).reshape(self.batch_shape + (t - 1,))
        # accumulate in step order with the ensemble's exact draws so
        # the float operations match the incremental path bit for bit:
        # add.accumulate adds the rows one after another, where a sum
        # or a matrix product would pair them
        terms = self._xs[..., : t - 1, :] * (self._ys[..., : t - 1] + z)[..., None]
        rows = np.concatenate([self._initial[..., t - 1 : t, :], terms], axis=-2)
        s = np.add.accumulate(rows, axis=-2)[..., -1, :]
        return self.gram.solve(np.ascontiguousarray(s))

    def update(self, arm_index, x: np.ndarray, y) -> None:
        x = np.asarray(x, dtype=np.float64)
        self._xs[..., self.step, :] = x
        self._ys[..., self.step] = y
        self._observe(x, y)


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
    are not of their family, so they re-perturb the O(t) history with
    :func:`~linens.perturb.history_draws`, one call per step for the batch,
    whose first ``d`` values are that same ``xi``. On the draws of an
    m = T ensemble, LinPHE is :class:`PerturbedHistoryReplay`.
    """

    def __init__(self, dim: int, lam: float, spec: PerturbationSpec, seed: int | list[int]):
        seeds, batch = _per_replication(seed)
        super().__init__(dim, lam, batch)
        self.spec = spec
        self._prefixes = seed_prefixes(seeds, TAG_PHE)
        # the history is kept only where it is re-perturbed: the gaussian
        # family draws the perturbation of the whole history in closed form
        self._xs = self._ys = None
        if spec.family == PerturbationFamily.GAUSSIAN:
            self._xi = StepDraws(spec, self._prefixes, range(dim), batched=batch is not None)
        else:
            self._xs = np.empty(self.batch_shape + (8, dim))
            self._ys = np.empty(self.batch_shape + (8,))

    def _grow(self) -> None:
        if self.step == self._xs.shape[-2]:
            self._xs = np.concatenate([self._xs, np.empty_like(self._xs)], axis=-2)
            self._ys = np.concatenate([self._ys, np.empty_like(self._ys)], axis=-1)

    def estimator(self) -> np.ndarray:
        """The freshly perturbed estimator for step ``t = step + 1``."""
        t = self.step + 1
        if self._xs is None:
            return self.ridge_estimate() + matvec(self.gram.inverse_cholesky(), self._xi.at(t))
        n = self.step
        w, z = history_draws(self.spec, self._prefixes, t, self.dim, n, self.lam)
        w = w.reshape(self.batch_shape + (self.dim,))
        z = z.reshape(self.batch_shape + (n,))
        s = w + matvec(np.swapaxes(self._xs[..., :n, :], -1, -2), self._ys[..., :n] + z)
        return self.gram.solve(np.ascontiguousarray(s))

    def update(self, arm_index, x: np.ndarray, y) -> None:
        x = np.asarray(x, dtype=np.float64)
        if self._xs is not None:
            self._grow()
            self._xs[..., self.step, :] = x
            self._ys[..., self.step] = y
        self._observe(x, y)


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
        batch: int | None = None,
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

    def __init__(self, dim: int, lam: float, scale: float, seed: int | list[int]):
        super().__init__(dim, lam, PerturbationSpec(PerturbationFamily.GAUSSIAN, scale), seed)
