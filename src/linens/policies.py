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
from .linalg import GramState, matvec, pick, unwrap
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

    def _selection(self, scores: np.ndarray, theta: np.ndarray, model=-1) -> Selection:
        """The argmax of ``scores``, for the estimator ``theta`` of ``model``."""
        if np.shape(model) != self.batch_shape:
            model = np.full(self.batch_shape, model)
        return Selection(argmax_smallest_index(scores), unwrap(np.asarray(model)), theta)

    def ridge_estimate(self) -> np.ndarray:
        """The unperturbed ridge estimator."""
        return self.gram.solve(self.reward_sum)

    def _observe(self, x: np.ndarray, y) -> None:
        self.gram.update(x)
        self.reward_sum += np.asarray(y)[..., None] * x

    def update(self, arm_index, x: np.ndarray, y) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class GreedyRidge(_RidgeBase):
    """Plays the argmax of the plain ridge estimator; the reference policy
    for the zero-perturbation collapse checks."""

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.ridge_estimate()
        return self._selection(matvec(arms, theta), theta)


class EnsembleSampling(_RidgeBase):
    """Linear ensemble sampling.

    Maintains ``n_models`` perturbed running sums over one shared Gram
    state. Each sum starts at its model's keyed initial perturbation. Each
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
        self.s_vectors = w.reshape(self.batch_shape + (n_models, dim))
        self._prefixes = seed_prefixes(seeds, TAG_REWARD)
        self._rewards = None
        if keying == Keying.BY_STEP:
            self._rewards = StepDraws(
                spec, self._prefixes, range(self.n_models), batched=batch is not None
            )
        # (R, arms seen so far): pulls of each arm, for by-arm-count keys
        self._arm_counts = np.zeros((len(seeds), 0), dtype=np.int64)

    def thetas(self) -> np.ndarray:
        """All ensemble estimators, shape (n_models, dim) per replication."""
        return np.matmul(self.s_vectors, self.gram.gram_inv)

    def model_theta(self, model) -> np.ndarray:
        return self.gram.solve(pick(self.s_vectors, model, 2))

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
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        z = self._reward_draws(arm_index)
        self._observe(x, y)
        kernels.accumulate_perturbed(self.s_vectors, x, np.asarray(y)[..., None] + z)


class LinPHE(_RidgeBase):
    """Linear perturbed-history exploration.

    At each step the entire observed history is re-perturbed with fresh
    draws and the arm is chosen greedily on the resulting estimator
    ``V^{-1} (w + X^T (y + z))``, with prior perturbation ``w`` (standard
    deviation ``sqrt(lam) * scale`` per coordinate) and one reward
    perturbation ``z_i`` (scale ``scale``) per history row.

    For the gaussian family the re-perturbation has a closed form:
    ``w + X^T z ~ N(0, scale^2 V)``, so the estimator is distributed as
    ``ridge + V^{-1/2} xi`` with ``xi ~ N(0, scale^2 I)``, Thompson
    sampling's draw. The policy draws exactly that, in O(d^2) per step and
    with no stored history: ``xi`` is ``d`` values of
    :func:`~linens.perturb.reward_draws` under each seed's ``TAG_PHE``
    prefix and the key ``t``, drawn for the batch in one call per block of
    steps (:class:`~linens.perturb.StepDraws`, whose block length is
    bounded by ``DRAW_VALUES`` values). The other families' sums are not of
    their family, so they re-perturb the O(t) history with
    :func:`~linens.perturb.history_draws`, one call per step for the batch,
    whose first ``d`` values are that same ``xi``.

    With ``shared_model_axis = m`` set, the fresh draws at step ``t`` are
    read from model ``t - 1`` of an m-model ensemble's reward draws instead
    of an independent per-step key, keyed by step as a ``Keying.BY_STEP``
    ensemble keys them. Against such an ensemble run on the same seed
    with round-robin model choice, this reproduces the ensemble's draws
    exactly and the two policies become the same algorithm. The initial
    matrix is drawn at construction by the ensemble's own call, and the
    reward perturbations of steps ``1..t-1`` are hashed afresh at step
    ``t`` by the ensemble's own :func:`~linens.perturb.reward_draws`, one
    call for the batch, so the replay keeps no reward draws; it does keep
    the history, for every family.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        spec: PerturbationSpec,
        seed: int | list[int],
        shared_model_axis: int | None = None,
    ):
        seeds, batch = _per_replication(seed)
        super().__init__(dim, lam, batch)
        if shared_model_axis is not None and shared_model_axis < 1:
            raise ValueError("shared_model_axis must be at least 1")
        self.spec = spec
        self.shared_model_axis = shared_model_axis
        if shared_model_axis is None:
            # each step's own draws
            self._prefixes = seed_prefixes(seeds, TAG_PHE)
            if spec.family == PerturbationFamily.GAUSSIAN:
                self._xi = StepDraws(spec, self._prefixes, range(dim), batched=batch is not None)
        else:
            # the ensemble's draws, replayed
            m = shared_model_axis
            w = initial_draws(spec, seed_prefixes(seeds, TAG_INIT), m, dim, lam)
            self._initial = w.reshape(self.batch_shape + (m, dim))
            self._prefixes = seed_prefixes(seeds, TAG_REWARD)
        # the history is kept only where it is re-perturbed: the gaussian
        # family draws the perturbation of the whole history in closed form
        self._xs = self._ys = None
        if shared_model_axis is not None or spec.family != PerturbationFamily.GAUSSIAN:
            # a shared-axis replay selects at most m steps, so m rows suffice
            rows = 8 if shared_model_axis is None else shared_model_axis
            self._xs = np.empty(self.batch_shape + (rows, dim))
            self._ys = np.empty(self.batch_shape + (rows,))

    def _grow(self) -> None:
        if self.step == self._xs.shape[-2]:
            self._xs = np.concatenate([self._xs, np.empty_like(self._xs)], axis=-2)
            self._ys = np.concatenate([self._ys, np.empty_like(self._ys)], axis=-1)

    def estimator(self, t: int) -> np.ndarray:
        """The freshly perturbed estimator for step ``t``."""
        if t != self.step + 1:
            raise InvalidStateError(
                f"step {t} inconsistent with history length {self.step}"
            )
        if self._xs is None:
            xi = self._xi.at(t)
            return self.ridge_estimate() + matvec(self.gram.inverse_sqrt(), xi)
        n = self.step
        xs, ys = self._xs[..., :n, :], self._ys[..., :n]
        if self.shared_model_axis is not None:
            m = self.shared_model_axis
            if t > m:
                raise InvalidStateError(
                    f"shared-stream replay exhausted: step {t} > model axis {m}"
                )
            # model t - 1's perturbation of each step so far, as the
            # ensemble drew it
            z = reward_draws(
                self.spec, self._prefixes[:, None], range(t - 1, t), np.arange(1, t)
            ).reshape(self.batch_shape + (n,))
            # accumulate in step order with the ensemble's exact draws so
            # the float operations match the incremental path bit for bit:
            # add.accumulate adds the rows one after another, where a sum
            # or a matrix product would pair them
            terms = xs * (ys + z)[..., None]
            rows = np.concatenate([self._initial[..., t - 1 : t, :], terms], axis=-2)
            s = np.add.accumulate(rows, axis=-2)[..., -1, :]
        else:
            w, z = history_draws(self.spec, self._prefixes, t, self.dim, n, self.lam)
            w = w.reshape(self.batch_shape + (self.dim,))
            z = z.reshape(self.batch_shape + (n,))
            s = w + matvec(np.swapaxes(xs, -1, -2), ys + z)
        return self.gram.solve(np.ascontiguousarray(s))

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.estimator(self.step + 1)
        return self._selection(matvec(arms, theta), theta)

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
    """Gaussian linear Thompson sampling: greedy on
    ``ridge + V^{-1/2} xi`` with ``xi ~ N(0, scale^2 I)`` (Agrawal & Goyal,
    ICML 2013).

    That is gaussian perturbed-history exploration's closed form, so LinTS
    is :class:`LinPHE` with a gaussian spec at ``scale``: the same
    ``TAG_PHE`` draw of ``d`` models per step, under its own scale rule.
    """

    def __init__(self, dim: int, lam: float, scale: float, seed: int | list[int]):
        super().__init__(dim, lam, PerturbationSpec(PerturbationFamily.GAUSSIAN, scale), seed)
