"""Perturbation calibration and keyed random streams.

This module holds the confidence-radius formulas, the perturbation
distribution families with their anti-concentration floors, the
ensemble-size rule, and keyed draws in which every value is a pure
function of ``(base_seed, structured key)``. Purity makes draws
replayable and order-independent, which the round-robin-ensemble /
perturbed-history equivalence test relies on.

Every perturbation (the initial matrices, the reward perturbations, and
perturbed-history exploration's draws, closed-form or O(t)) comes from
:func:`reward_draws`, a splitmix64 counter hash in numpy ``uint64`` that
draws a whole batch of replications in one call. Draws keyed by step are
made one call per block of steps (:meth:`StepDraws.keyed`), with the
block length bounded by ``DRAW_VALUES`` values. Only the long-lived
sequential streams (observation noise, uniform model choice, Thompson
sampling's draws, the random environment) come from keyed Philox
generators, read a block of steps at a time by the same reader.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# stream purpose tags (first component of every key)
TAG_INIT = 0xA1
TAG_REWARD = 0xA2
TAG_NOISE = 0xA3
TAG_POLICY = 0xA4
TAG_ENV = 0xA5
TAG_PHE = 0xA6
TAG_REPLICATION = 0xA7


def _splitmix64(z: int) -> int:
    """One round of the splitmix64 mixing function."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(h: int, parts) -> int:
    for p in parts:
        h = _splitmix64(h ^ _splitmix64(p & _MASK64))
    return h


def mix_key(base_seed: int, *parts: int) -> int:
    """Deterministically mix a base seed with integer key parts."""
    return _fold(_splitmix64(base_seed & _MASK64), parts)


def keyed_generator(base_seed: int, *parts: int) -> np.random.Generator:
    """Counter-based generator that is a pure function of its key.

    The key parts are folded into a 128-bit Philox key via splitmix64, so
    identical keys reproduce identical streams across runs and processes.
    """
    h = mix_key(base_seed, *parts)
    key = np.array([h, _splitmix64(h)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ConfidenceParams:
    """Inputs to the confidence radii: noise level, regularization,
    parameter bound, dimension, horizon, and failure probability."""

    sigma: float
    lam: float
    s_bound: float
    dim: int
    horizon: int
    delta: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.s_bound <= 0:
            raise ValueError("s_bound must be positive")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0 < self.delta <= 1:
            raise ValueError("delta must lie in (0, 1]")


def beta(params: ConfidenceParams, t: int) -> float:
    """Confidence radius of the ridge estimator after ``t`` steps."""
    if t < 0:
        raise ValueError("t must be non-negative")
    log_term = params.dim * math.log1p(t / (params.dim * params.lam))
    return params.sigma * math.sqrt(log_term + 2.0 * math.log(1.0 / params.delta)) + math.sqrt(
        params.lam
    ) * params.s_bound


def gamma_tilde(params: ConfidenceParams) -> float:
    """Horizon-level confidence radius of the perturbation component."""
    d, t_hor = params.dim, params.horizon
    log_ratio = math.log(2.0 * t_hor / params.delta)
    inner = (
        math.sqrt(d * math.log1p(t_hor / (d * params.lam)) + 2.0 * log_ratio)
        + math.sqrt(d)
        + math.sqrt(2.0 * log_ratio)
    )
    return beta(params, t_hor) * inner


def gamma(params: ConfidenceParams) -> float:
    """Horizon-level confidence radius of the perturbed estimator."""
    return gamma_tilde(params) + beta(params, params.horizon)


def p_n() -> float:
    """Upper-tail probability P(z >= 1) of a standard normal."""
    return 0.5 * math.erfc(1.0 / math.sqrt(2.0))


def ensemble_size(params: ConfidenceParams, arm_count: int) -> int:
    """Ensemble size sufficient for the regret guarantee, clamped at 1."""
    if arm_count < 1:
        raise ValueError("arm_count must be at least 1")
    pn = p_n()
    raw = (8.0 / pn**2) * (
        arm_count * math.log(params.horizon) + math.log(1.0 / params.delta)
    )
    return max(1, math.ceil(raw))


class PerturbationFamily:
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    RADEMACHER = "rademacher"
    SPHERICAL = "spherical"
    BINOMIAL = "binomial"

    ALL = (GAUSSIAN, UNIFORM, RADEMACHER, SPHERICAL, BINOMIAL)


def _sample_normalized(family: str, rng: np.random.Generator, size) -> np.ndarray:
    """Draw from the family normalized to be symmetric, 1-sub-Gaussian,
    with variance at least 1/2.

    gaussian:   N(0, 1)
    uniform:    Unif[-sqrt(3), sqrt(3)]          (variance 1, proxy 1)
    rademacher: +/- 1                            (variance 1, proxy 1)
    spherical:  sqrt(2) * cos(2*pi*U)            (circle coordinate; variance 1)
    binomial:   Binomial(2, 1/2) - 1             (variance 1/2, proxy <= 1)
    """
    if family == PerturbationFamily.GAUSSIAN:
        return rng.standard_normal(size)
    if family == PerturbationFamily.UNIFORM:
        bound = math.sqrt(3.0)
        return rng.uniform(-bound, bound, size=size)
    if family == PerturbationFamily.RADEMACHER:
        return 2.0 * rng.integers(0, 2, size=size) - 1.0
    if family == PerturbationFamily.SPHERICAL:
        return math.sqrt(2.0) * np.cos(2.0 * math.pi * rng.random(size))
    if family == PerturbationFamily.BINOMIAL:
        return rng.binomial(2, 0.5, size=size) - 1.0
    raise ValueError(f"unknown perturbation family {family!r}")


@dataclass(frozen=True)
class PerturbationSpec:
    """A perturbation distribution: family plus per-coordinate scale.

    ``anti_conc_threshold`` and ``anti_conc_floor`` give the guaranteed
    directional anti-concentration P(u^T Z >= threshold * ||u||) >= floor.
    The Gaussian floor is the standard-normal upper tail at 1; the other
    families, normalized to 1-sub-Gaussian with variance >= 1/2, carry
    the generic floor 0.01 at threshold scale/3.
    """

    family: str = PerturbationFamily.GAUSSIAN
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in PerturbationFamily.ALL:
            raise ValueError(f"unknown perturbation family {self.family!r}")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")

    @property
    def anti_conc_threshold(self) -> float:
        if self.family == PerturbationFamily.GAUSSIAN:
            return self.scale
        return self.scale / 3.0

    @property
    def anti_conc_floor(self) -> float:
        if self.family == PerturbationFamily.GAUSSIAN:
            return p_n()
        return 0.01

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return self.scale * _sample_normalized(self.family, rng, size)


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_UNIT = 2.0**-53  # one step of a 53-bit uniform


def _mix(z: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` of every word of a ``uint64`` array, in place."""
    z += np.uint64(_GAMMA)
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    return z


def _fold_array(h: np.ndarray, part) -> np.ndarray:
    """:func:`_fold` of one key part, an integer or an integer array, into
    an array of hashes."""
    if np.ndim(part) == 0:
        return _mix(h ^ np.uint64(_splitmix64(int(part) & _MASK64)))
    return _mix(h ^ _mix(np.asarray(part).astype(np.uint64)))


def _counter_offsets(models: range) -> np.ndarray:
    """``(len(models), 2)`` offsets ``c * gamma`` of counters ``c = 2j``
    and ``2j + 1`` of each model j: splitmix64 started at ``h`` gives
    ``_mix(h + c * gamma)`` as its output ``c``."""
    counters = np.arange(2 * models.start, 2 * models.stop, dtype=np.uint64)
    return counters.reshape(-1, 2) * np.uint64(_GAMMA)  # wraps mod 2^64


def reward_draws(spec: PerturbationSpec, prefixes, models: range, *key) -> np.ndarray:
    """Perturbations of ``models`` under one key per replication.

    ``prefixes`` holds each replication's ``mix_key(stream_seed, tag)``,
    and the tag says what a "model" is: ``TAG_REWARD``, keyed by step or
    ``(arm, count)``, for reward perturbations, where model j is ensemble
    member j; ``TAG_INIT``, with no key, for initial matrices, where model
    ``j*dim + c`` is coordinate c of member j (:func:`initial_draws`);
    ``TAG_PHE``, keyed by step, for a perturbed-history step, where models
    ``0..dim-1`` are the prior's coordinates and model ``dim + i`` is
    history row i (:func:`history_draws`). Each key part is an integer or
    an integer array, and all of them broadcast together. The key is
    folded into the prefix with :func:`mix_key`'s rule, then model j reads
    counters ``2j`` and ``2j + 1`` of a splitmix64 sequence started at the
    folded hash, so each value is a pure function of
    ``(stream_seed, j, key)``: independent of the other models asked for,
    of the batch, and of its position in either. The words map onto the
    family elementwise: gaussian by Box-Muller, uniform from the top 53
    bits, rademacher from one bit, spherical as ``sqrt(2) cos(2 pi U)``,
    binomial as the sum of two bits minus 1. Returns shape
    ``broadcast(prefixes, *key) + (len(models),)``.
    """
    h = np.array(prefixes, dtype=np.uint64)
    for part in key:
        h = _fold_array(h, part)
    family = spec.family
    words = 2 if family == PerturbationFamily.GAUSSIAN else 1
    w = _mix(h[..., None, None] + _counter_offsets(models)[:, :words])
    a = w[..., 0]
    if family == PerturbationFamily.GAUSSIAN:
        # Box-Muller on (0, 1] x [0, 1): the log never sees 0
        radius = np.sqrt(-2.0 * np.log(((a >> 11) + 1) * _UNIT))
        z = radius * np.cos((w[..., 1] >> 11) * (2.0 * math.pi * _UNIT))
    elif family == PerturbationFamily.UNIFORM:
        z = (a >> 11) * (2.0 * math.sqrt(3.0) * _UNIT) - math.sqrt(3.0)
    elif family == PerturbationFamily.RADEMACHER:
        z = 2.0 * (a >> 63) - 1.0
    elif family == PerturbationFamily.SPHERICAL:
        z = math.sqrt(2.0) * np.cos((a >> 11) * (2.0 * math.pi * _UNIT))
    else:  # binomial: PerturbationSpec admits no other family
        z = (a >> 63) + ((a >> 62) & 1) - 1.0
    return spec.scale * z


def stream_prefixes(streams, tag: int) -> np.ndarray:
    """``(R,)`` prefixes ``mix_key(stream.base_seed, tag)`` of R streams,
    for drawing under ``tag`` with :func:`reward_draws`."""
    return np.array([mix_key(s.base_seed, tag) for s in streams], dtype=np.uint64)


def initial_draws(
    spec: PerturbationSpec, prefixes, n_models: int, dim: int, lam: float
) -> np.ndarray:
    """``(R, n_models, dim)`` initial perturbations under R ``TAG_INIT``
    prefixes, with per-coordinate standard-deviation target
    ``sqrt(lam) * scale``. Row j reads models ``j*dim .. j*dim + dim - 1``,
    so it is a pure function of ``(stream_seed, j)`` whatever ``n_models``
    is."""
    z = reward_draws(spec, prefixes, range(n_models * dim))
    return math.sqrt(lam) * z.reshape(z.shape[:-1] + (n_models, dim))


def history_draws(
    spec: PerturbationSpec, prefixes, step: int, dim: int, n_rows: int, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed-history draws of ``step`` under R ``TAG_PHE`` prefixes:
    the ``(R, dim)`` prior perturbation ``w`` with standard-deviation target
    ``sqrt(lam) * scale``, and ``(R, n_rows)`` reward perturbations ``z``,
    one per history row. ``w / sqrt(lam)`` is the gaussian closed form's
    ``xi`` of the same step."""
    z = reward_draws(spec, prefixes, range(dim + n_rows), step)
    return math.sqrt(lam) * z[..., :dim], z[..., dim:]


class Keying:
    """How reward perturbations are keyed in a stream."""

    BY_STEP = "by_step"
    BY_ARM_COUNT = "by_arm_count"

    ALL = (BY_STEP, BY_ARM_COUNT)


class PerturbationStream:
    """Keyed source of one replication's perturbation draws.

    Every draw is a pure function of ``(base_seed, key)``: a batch of one
    of :func:`reward_draws` under the prefix ``mix_key(base_seed, tag)``.
    Batched policies stack those prefixes over their streams with
    :func:`stream_prefixes` and draw for all their replications in one
    call, so each method here is the case of one replication and serves
    as their oracle. Reward perturbations for all models come as one
    vector per key; model ``j`` owns component ``j``, so a draw depends
    only on ``(base_seed, j, key)`` regardless of the ensemble size. The
    stream holds no generator.
    """

    def __init__(self, base_seed: int, keying: str = Keying.BY_STEP):
        if keying not in Keying.ALL:
            raise ValueError(f"unknown keying mode {keying!r}")
        self.base_seed = int(base_seed)
        self.keying = keying

    def initial_matrix(
        self, spec: PerturbationSpec, n_models: int, dim: int, lam: float
    ) -> np.ndarray:
        """(n_models, dim) matrix of initial perturbations; per-coordinate
        standard-deviation target is ``sqrt(lam) * scale``."""
        return initial_draws(spec, stream_prefixes([self], TAG_INIT), n_models, dim, lam)[0]

    def _reward_key(self, key: tuple) -> tuple:
        if self.keying == Keying.BY_STEP:
            if len(key) != 1:
                raise ValueError("by-step keying expects a single step key")
        else:
            if len(key) != 2:
                raise ValueError("by-arm-count keying expects an (arm, count) key")
        return key

    def reward_vector(self, spec: PerturbationSpec, n_models: int, *key: int) -> np.ndarray:
        """(n_models,) vector of reward perturbations for one key."""
        parts = self._reward_key(key)
        prefixes = stream_prefixes([self], TAG_REWARD)
        return reward_draws(spec, prefixes, range(n_models), *parts)[0]

    def reward_perturbation(self, spec: PerturbationSpec, model: int, *key: int) -> float:
        """Reward perturbation of one model for one key."""
        return float(self.reward_vector(spec, model + 1, *key)[model])

    def history_perturbation(
        self, spec: PerturbationSpec, step: int, dim: int, n_rows: int, lam: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh perturbed-history draws for ``step``: the (dim,) prior
        perturbation with standard-deviation target ``sqrt(lam) * scale``
        and one reward perturbation per history row (:func:`history_draws`).

        Unshared perturbed-history exploration draws these for the
        non-gaussian families. A gaussian policy needs only their sum
        ``w + X^T z ~ N(0, scale^2 V)`` and draws it in closed form from
        ``w / sqrt(lam)`` alone (see :class:`~linens.policies.LinPHE`);
        these draws stay its test oracle."""
        w, z = history_draws(spec, stream_prefixes([self], TAG_PHE), step, dim, n_rows, lam)
        return w[0], z[0]


#: Most steps that a :class:`StepDraws` draws at a time.
DRAW_BLOCK = 64

#: Most values (over all steps, replications and models) in one block of a
#: :class:`StepDraws`; wide steps get shorter blocks, so memory stays flat.
DRAW_VALUES = 2**14


class StepDraws:
    """Per-step values of a batch, read a block of consecutive steps at a time.

    ``fill(first_step, n)`` returns the ``(n, R, ...)`` values of steps
    ``first_step .. first_step + n - 1``. A block holds
    ``max(1, min(DRAW_BLOCK, DRAW_VALUES // values_per_step))`` steps.
    :meth:`next` reads the steps in order from step 1, and :meth:`at` reads
    any step of a keyed fill. ``batched`` keeps the leading replication
    axis; without it the batch is one replication and has no such axis.
    Build one with :meth:`generators` or :meth:`keyed`.
    """

    def __init__(self, fill, values_per_step: int, batched: bool = True):
        self._fill = fill
        self._steps = max(1, min(DRAW_BLOCK, DRAW_VALUES // values_per_step))
        self._batched = batched
        self._block = np.empty((0,))
        self._first = 1  # the step of the block's first row
        self._step = 0  # the last step next() returned

    @classmethod
    def generators(cls, rngs: list, draw, width: int = 1, batched: bool = True):
        """Values from long-lived generators, one per replication:
        ``draw(rng, n)`` returns ``n`` steps of ``width`` values each. A
        generator fills a sized draw value by value, so a block yields
        exactly what one call per step would. The generators are read ahead
        and must not be shared, and the steps must be read with :meth:`next`."""

        def fill(first_step: int, n: int) -> np.ndarray:
            return np.stack([draw(g, n) for g in rngs], axis=1)

        return cls(fill, len(rngs) * width, batched)

    @classmethod
    def keyed(cls, spec: PerturbationSpec, prefixes, models: range, batched: bool = True):
        """:func:`reward_draws` of ``models`` keyed by step: one call per
        block of steps, whose row for step t is the same bits as the call
        keyed by t alone."""

        def fill(first_step: int, n: int) -> np.ndarray:
            steps = np.arange(first_step, first_step + n)[:, None]
            return reward_draws(spec, prefixes, models, steps)

        return cls(fill, len(prefixes) * len(models), batched)

    def at(self, step: int) -> np.ndarray:
        """The values of ``step``."""
        i = step - self._first
        if not 0 <= i < len(self._block):
            self._block = self._fill(step, self._steps)
            self._first, i = step, 0
        values = self._block[i]
        return values if self._batched else values[0]

    def next(self) -> np.ndarray:
        """The values of the step after the one last read by ``next``."""
        self._step += 1
        return self.at(self._step)
