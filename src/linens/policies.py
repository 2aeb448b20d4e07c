"""Arm-selection policies.

All policies share the same interaction surface: ``select(arms)`` returns
the chosen arm (plus the estimator used, for diagnostics), and
``update(arm_index, x, y)`` folds one observation into the state.
Argmax ties are broken toward the smallest arm index everywhere, which
makes the cross-policy equality tests exact.

A policy steps one replication, or a batch of R replications in lockstep
when it is given a list of R per-replication streams or generators (or
``batch=R`` when it has none). Batched, every array gains a leading axis of
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
    ConfidenceParams,
    Keying,
    PerturbationSpec,
    PerturbationStream,
    StepDraws,
    beta,
    reward_draws,
)


class InvalidStateError(RuntimeError):
    """A policy was driven outside its valid operating regime."""


class Sampler:
    """Ensemble-index distribution."""

    UNIFORM = "uniform"
    ROUND_ROBIN = "round_robin"

    ALL = (UNIFORM, ROUND_ROBIN)


class Selection(NamedTuple):
    arm_index: int  # an (R,) array when batched
    model_index: int  # -1 for non-ensemble policies
    theta: np.ndarray  # estimator the arm was greedy against


def argmax_smallest_index(values: np.ndarray):
    # np.argmax returns the first maximizer, i.e. the smallest index
    return unwrap(np.argmax(values, axis=-1))


def _per_replication(items) -> tuple[list, int | None]:
    """A list or tuple holds one item per replication of a batch; anything
    else is the one item of an unbatched policy."""
    if isinstance(items, (list, tuple)):
        return list(items), len(items)
    return [items], None


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

    def _stacked(self, values: list) -> np.ndarray:
        """Per-replication values stacked into the batch shape."""
        return np.stack(values).reshape(self.batch_shape + np.shape(values[0]))

    def _selection(self, scores: np.ndarray, theta: np.ndarray, model=-1) -> Selection:
        """The argmax of ``scores``, for the estimator ``theta`` of ``model``."""
        model = unwrap(np.broadcast_to(model, self.batch_shape))
        return Selection(argmax_smallest_index(scores), model, theta)

    def ridge_estimate(self) -> np.ndarray:
        """The unperturbed ridge estimator."""
        return self.gram.solve(self.reward_sum)

    def _observe(self, x: np.ndarray, y) -> None:
        self.gram.update(x)
        self.reward_sum += np.asarray(y)[..., None] * x


class GreedyRidge(_RidgeBase):
    """Plays the argmax of the plain ridge estimator; the reference policy
    for the zero-perturbation collapse checks."""

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.ridge_estimate()
        return self._selection(matvec(arms, theta), theta)

    def update(self, arm_index, x: np.ndarray, y) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class EnsembleSampling(_RidgeBase):
    """Linear ensemble sampling.

    Maintains ``n_models`` perturbed running sums over one shared Gram
    state. Each step samples a model index, acts greedily on that model's
    estimator, then updates every model's sum with the observed reward
    plus a fresh keyed reward perturbation; one
    :func:`~linens.perturb.reward_draws` call draws them for every model
    and replication of the batch.

    Uniform model choice reads ``model_rng`` ahead in blocks (see
    :class:`~linens.perturb.StepDraws`), so the generator must be the
    policy's own.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        n_models: int,
        spec: PerturbationSpec,
        stream: PerturbationStream | list[PerturbationStream],
        sampler: str = Sampler.UNIFORM,
        model_rng: np.random.Generator | list | None = None,
    ):
        streams, batch = _per_replication(stream)
        super().__init__(dim, lam, batch)
        if n_models < 1:
            raise ValueError("n_models must be at least 1")
        if sampler not in Sampler.ALL:
            raise ValueError(f"unknown sampler {sampler!r}")
        if sampler == Sampler.UNIFORM and model_rng is None:
            raise ValueError("uniform sampling requires a model_rng")
        if len({s.keying for s in streams}) != 1:
            raise ValueError("the streams of a batch must share one keying")
        self.n_models = int(n_models)
        self.spec = spec
        self.keying = streams[0].keying
        self.sampler = sampler
        self._models = None
        if sampler == Sampler.UNIFORM:
            rngs, _ = _per_replication(model_rng)
            self._models = StepDraws(
                rngs, lambda g, n: g.integers(self.n_models, size=n), batch is not None
            )
        self.s_vectors = self._stacked(
            [s.initial_matrix(spec, n_models, dim, lam) for s in streams]
        )
        self._prefixes = np.array([s.reward_prefix for s in streams], dtype=np.uint64)
        # (R, arms seen so far): pulls of each arm, for by-arm-count keys
        self._arm_counts = np.zeros((len(streams), 0), dtype=np.int64)

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
            j = self._models.next()
        theta = self.model_theta(j)
        return self._selection(matvec(arms, theta), theta, j)

    def _reward_key(self, arm_index) -> tuple:
        """This step's reward key per replication; under by-arm-count
        keying, counts the pull of ``arm_index``."""
        if self.keying == Keying.BY_STEP:
            return (self.step + 1,)
        arms = np.broadcast_to(arm_index, self.batch_shape).reshape(-1)
        seen = self._arm_counts.shape[1]
        if arms.max() >= seen:
            self._arm_counts = np.pad(self._arm_counts, ((0, 0), (0, arms.max() + 1 - seen)))
        rows = np.arange(len(arms))
        self._arm_counts[rows, arms] += 1
        return arms, self._arm_counts[rows, arms]

    def update(self, arm_index, x: np.ndarray, y) -> None:
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        z = reward_draws(
            self.spec, self._prefixes, range(self.n_models), *self._reward_key(arm_index)
        )
        self.gram.update(x)
        y = np.asarray(y)
        yz = y[..., None] + z.reshape(self.batch_shape + (self.n_models,))
        kernels.accumulate_perturbed(self.s_vectors, x, yz)
        self.reward_sum += y[..., None] * x


class LinPHE(_RidgeBase):
    """Linear perturbed-history exploration.

    At each step the entire observed history is re-perturbed with fresh
    draws and the arm is chosen greedily on the resulting estimator.

    With ``shared_model_axis = m`` set, the fresh draws at step ``t`` are
    read from model ``t - 1`` of an m-model keyed stream instead of an
    independent per-step key. Against an ensemble run on the same stream
    with round-robin model choice, this reproduces the ensemble's draws
    exactly and the two policies become the same algorithm. The reward
    perturbations of steps ``1..t-1`` are hashed afresh at step ``t`` by
    the ensemble's own :func:`~linens.perturb.reward_draws`, one call for
    the batch, so the replay keeps no draws.
    """

    def __init__(
        self,
        dim: int,
        lam: float,
        spec: PerturbationSpec,
        stream: PerturbationStream | list[PerturbationStream],
        shared_model_axis: int | None = None,
    ):
        streams, batch = _per_replication(stream)
        super().__init__(dim, lam, batch)
        if shared_model_axis is not None:
            if shared_model_axis < 1:
                raise ValueError("shared_model_axis must be at least 1")
            if any(s.keying != Keying.BY_STEP for s in streams):
                raise ValueError("shared-stream replay requires by-step keying")
        self.spec = spec
        self.streams = streams
        self.shared_model_axis = shared_model_axis
        self._initial_cache: np.ndarray | None = None
        self._prefixes = np.array([s.reward_prefix for s in streams], dtype=np.uint64)
        shape = self.batch_shape
        # a shared-axis replay selects at most m steps, so m rows suffice
        rows = 8 if shared_model_axis is None else shared_model_axis
        self._xs = np.empty(shape + (rows, dim))
        self._ys = np.empty(shape + (rows,))

    @property
    def history_length(self) -> int:
        return self.step

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
        n = self.step
        xs, ys = self._xs[..., :n, :], self._ys[..., :n]
        if self.shared_model_axis is not None:
            m = self.shared_model_axis
            if t > m:
                raise InvalidStateError(
                    f"shared-stream replay exhausted: step {t} > model axis {m}"
                )
            if self._initial_cache is None:
                self._initial_cache = self._stacked(
                    [s.initial_matrix(self.spec, m, self.dim, self.lam) for s in self.streams]
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
            rows = np.concatenate([self._initial_cache[..., t - 1 : t, :], terms], axis=-2)
            s = np.add.accumulate(rows, axis=-2)[..., -1, :]
        else:
            draws = [
                s.history_perturbation(self.spec, t, self.dim, n, self.lam)
                for s in self.streams
            ]
            w = self._stacked([d[0] for d in draws])
            z = self._stacked([d[1] for d in draws])
            s = w + matvec(np.swapaxes(xs, -1, -2), ys + z)
        return self.gram.solve(np.ascontiguousarray(s))

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.estimator(self.step + 1)
        return self._selection(matvec(arms, theta), theta)

    def update(self, arm_index, x: np.ndarray, y) -> None:
        x = np.asarray(x, dtype=np.float64)
        self._grow()
        self._xs[..., self.step, :] = x
        self._ys[..., self.step] = y
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
        batch: int | None = None,
    ):
        super().__init__(dim, lam, batch)
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
            np.maximum(
                np.einsum("...kd,...de,...ke->...k", arms, self.gram.gram_inv, arms), 0.0
            )
        )
        scores = matvec(arms, theta) + self.current_bonus() * widths
        return self._selection(scores, theta)

    def update(self, arm_index, x: np.ndarray, y) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)


class LinTS(_RidgeBase):
    """Gaussian linear Thompson sampling: greedy on
    ``ridge + V^{-1/2} xi`` with ``xi ~ N(0, scale^2 I)``.

    ``V^{-1/2}`` comes from a symmetric eigendecomposition each step. The
    ``xi`` draws read ``rng`` ahead in blocks, so it must be the policy's
    own generator.
    """

    def __init__(
        self, dim: int, lam: float, scale: float, rng: np.random.Generator | list
    ):
        rngs, batch = _per_replication(rng)
        super().__init__(dim, lam, batch)
        if scale < 0:
            raise ValueError("scale must be non-negative")
        self.scale = scale
        self._xi = StepDraws(
            rngs, lambda g, n: g.standard_normal((n, self.dim)), batch is not None
        )

    def sample_estimator(self) -> np.ndarray:
        evals, evecs = np.linalg.eigh(self.gram.gram)
        inv_half = np.matmul(evecs / np.sqrt(evals)[..., None, :], np.swapaxes(evecs, -1, -2))
        xi = self.scale * self._xi.next()
        return self.ridge_estimate() + matvec(inv_half, xi)

    def select(self, arms: np.ndarray) -> Selection:
        theta = self.sample_estimator()
        return self._selection(matvec(arms, theta), theta)

    def update(self, arm_index, x: np.ndarray, y) -> None:
        self._observe(np.asarray(x, dtype=np.float64), y)
