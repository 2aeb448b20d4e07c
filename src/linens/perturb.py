"""Perturbation calibration and keyed random draws.

This module holds the confidence-radius formulas, the perturbation
distribution families with their anti-concentration floors, the
ensemble-size rule, and keyed draws in which every value is a pure
function of ``(base_seed, structured key)``. Purity makes draws
replayable and order-independent, which the round-robin-ensemble /
perturbed-history equivalence test relies on.

Every random value (the random instances, the initial matrices, the
reward perturbations, perturbed-history exploration's and Thompson
sampling's draws, the reward noise and uniform model choice) comes from
:func:`reward_draws`, a splitmix64 counter hash in numpy ``uint64`` that
draws a whole batch of replications in one call. Draws keyed by step are
made one call per block of steps (:class:`StepDraws`), with the block
length bounded by ``DRAW_VALUES`` values. No draw uses ``numpy.random``;
:func:`keyed_generator` is kept only as a public helper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# purpose tags (first component of every key)
TAG_INIT = 0xA1
TAG_REWARD = 0xA2
TAG_NOISE = 0xA3
TAG_ENV = 0xA5
TAG_PHE = 0xA6
TAG_REPLICATION = 0xA7
TAG_MODEL = 0xA8


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
    """Counter-based Philox generator that is a pure function of its key.

    No linens draw uses it: every random value is a :func:`reward_draws`
    hash. It stays a public helper because the benchmark under
    ``perfbench/`` traces it by name. The key parts are folded into a
    128-bit Philox key via splitmix64, so identical keys reproduce
    identical streams across runs and processes.
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
        # each rule fails on NaN: every comparison with NaN is false
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.s_bound < math.inf:
            raise ValueError(f"s_bound must be positive and finite, got {self.s_bound}")
        if not self.dim >= 1:
            raise ValueError(f"dim must be at least 1, got {self.dim}")
        if not self.horizon >= 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not 0 < self.delta <= 1:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")


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
            raise ValueError(
                f"perturbation family must be one of {PerturbationFamily.ALL}, got {self.family!r}"
            )
        if not 0 <= self.scale < math.inf:
            raise ValueError(f"scale must be non-negative and finite, got {self.scale}")

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

    @property
    def words(self) -> int:
        """64-bit hash words per value: Box-Muller takes two."""
        return 2 if self.family == PerturbationFamily.GAUSSIAN else 1

    def values(self, w: np.ndarray) -> np.ndarray:
        """The family at this scale from ``(..., words)`` hash words.

        Each family is normalized to be symmetric, 1-sub-Gaussian, with
        variance at least 1/2: gaussian N(0, 1) by Box-Muller; uniform on
        [-sqrt(3), sqrt(3)] from the top 53 bits; rademacher +/- 1 from one
        bit; spherical ``sqrt(2) cos(2 pi U)``, a circle coordinate;
        binomial Binomial(2, 1/2) - 1, the sum of two bits minus 1.
        """
        family = self.family
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
        else:  # binomial: __post_init__ admits no other family
            z = (a >> 63) + ((a >> 62) & 1) - 1.0
        return self.scale * z

    def sample(self, seed: int, size) -> np.ndarray:
        """``size`` values under the ``TAG_INIT`` prefix of ``seed``: the
        flattened initial perturbations of that seed at ``lam = 1``
        (:func:`initial_draws`)."""
        count = math.prod(np.atleast_1d(size))
        return reward_draws(self, seed_prefixes([seed], TAG_INIT), np.arange(count)).reshape(size)


class UnitUniform:
    """The 53-bit unit uniform ``u`` in the top bits of one word, on
    [0, 1) in steps of ``2**-53``, as a law of :func:`reward_draws`."""

    words = 1

    @staticmethod
    def values(w: np.ndarray) -> np.ndarray:
        return (w[..., 0] >> 11) * _UNIT


@dataclass(frozen=True)
class ModelChoice:
    """Uniform choice of one of ``n_models`` models, as a law of
    :func:`reward_draws`: ``floor(u * n_models)`` of the 53-bit uniform
    ``u`` of :class:`UnitUniform`, capped at ``n_models - 1`` so that no
    rounding of the product can reach ``n_models``. Its bias is at most
    ``n_models / 2**53``."""

    n_models: int
    words = 1

    def values(self, w: np.ndarray) -> np.ndarray:
        u = UnitUniform.values(w)
        return np.minimum((u * self.n_models).astype(np.int64), self.n_models - 1)


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


def _counter_offsets(models, words: int) -> np.ndarray:
    """``models.shape + (words,)`` offsets ``(2j + c) * gamma`` of each
    model index j in the integer array ``models`` (``words`` is 1 or 2):
    splitmix64 started at ``h`` gives ``_mix(h + k * gamma)`` as its output
    ``k``."""
    j = np.asarray(models, dtype=np.uint64)[..., None]
    return (2 * j + np.arange(words, dtype=np.uint64)) * np.uint64(_GAMMA)  # wraps mod 2^64


def reward_draws(spec, prefixes, models, *key) -> np.ndarray:
    """Values of ``models`` under one key per replication.

    ``spec`` is the law the hash words map onto: a
    :class:`PerturbationSpec` (:meth:`PerturbationSpec.values`), a
    :class:`ModelChoice` or a :class:`UnitUniform`. ``prefixes`` holds each
    replication's :func:`seed_prefixes` under a tag, and the tag says what
    a "model" is: ``TAG_REWARD``, keyed by step, for reward perturbations,
    where model j is ensemble member j; ``TAG_INIT``, with no key, for
    initial matrices, where model ``j*dim + c`` is coordinate c of member j
    (:func:`initial_draws`); ``TAG_PHE``, keyed by step, for a
    perturbed-history step, where models ``0..dim-1`` are the prior's
    coordinates and model ``dim + i`` is history row i
    (:func:`history_draws`); ``TAG_NOISE`` and ``TAG_MODEL``, keyed by
    step, for the reward noise and uniform model choice, one model each;
    ``TAG_ENV``, with no key, for a random instance's coordinates and
    uniforms (:meth:`~linens.envs.LinearBanditEnv.random`).
    Each key part is an integer or an integer array, and all of them
    broadcast together. The key is folded into the prefix with
    :func:`mix_key`'s rule, then model j reads counters ``2j`` and
    ``2j + 1`` of a splitmix64 sequence started at the folded hash, so each
    value is a pure function of ``(seed, j, key)``: independent of
    the other models asked for, of the batch, and of its position in
    either. ``models`` is an integer array of model indices (a ``range`` is
    the array it spells), and the result has shape ``broadcast(key_shape +
    (1,), models.shape)``, ``key_shape = broadcast(prefixes, *key)``: a 1-d
    ``models`` gives every replication the same models, an ``(R, 1)`` one
    model per replication, and ``(R, 1, 1)`` that with a step axis.
    """
    h = np.array(prefixes, dtype=np.uint64)
    for part in key:
        h = _fold_array(h, part)
    return spec.values(_mix(h[..., None, None] + _counter_offsets(models, spec.words)))


def seed_prefixes(seeds, tag: int) -> np.ndarray:
    """``(R,)`` prefixes ``mix_key(seed, tag)`` of R replications' seeds
    (mod 2^64), for drawing under ``tag`` with :func:`reward_draws`; the one
    place a prefix is spelled."""
    h = np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)
    return _fold_array(_mix(h), tag)


def initial_draws(
    spec: PerturbationSpec, prefixes, n_models: int, dim: int, lam: float
) -> np.ndarray:
    """``(R, n_models, dim)`` initial perturbations under R ``TAG_INIT``
    prefixes, with per-coordinate standard-deviation target
    ``sqrt(lam) * scale``. Row j reads models ``j*dim .. j*dim + dim - 1``,
    so it is a pure function of ``(seed, j)`` whatever ``n_models``
    is."""
    z = reward_draws(spec, prefixes, np.arange(n_models * dim))
    return math.sqrt(lam) * z.reshape(z.shape[:-1] + (n_models, dim))


def history_draws(
    spec: PerturbationSpec, prefixes, step: int, dim: int, n_rows: int, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Perturbed-history draws of ``step`` under R ``TAG_PHE`` prefixes:
    the ``(R, dim)`` prior perturbation ``w`` with standard-deviation target
    ``sqrt(lam) * scale``, and ``(R, n_rows)`` reward perturbations ``z``,
    one per history row. :class:`~linens.policies.LinPHE` draws these for
    the non-gaussian families; a gaussian policy needs only their sum
    ``w + X^T z ~ N(0, scale^2 V)`` and draws it in closed form from
    ``w / sqrt(lam)``, its ``xi`` of the same step."""
    z = reward_draws(spec, prefixes, np.arange(dim + n_rows), step)
    return math.sqrt(lam) * z[..., :dim], z[..., dim:]


class PerturbationStream:
    """One replication's reward perturbations: the batch of one of the
    reward-perturbation call that the policies make for a batch of seeds.

    The policies take their seeds directly and draw under
    :func:`seed_prefixes`; this class only holds a ``base_seed`` for the
    tests. Model ``j`` owns component ``j``, so a draw depends only on
    ``(base_seed, j, step)`` regardless of the ensemble size. The benchmark
    under ``perfbench/`` traces :meth:`reward_vector` by name.
    """

    def __init__(self, base_seed: int):
        self.base_seed = int(base_seed)

    def reward_vector(self, spec: PerturbationSpec, n_models: int, step: int) -> np.ndarray:
        """(n_models,) vector of reward perturbations of ``step``."""
        prefixes = seed_prefixes([self.base_seed], TAG_REWARD)
        return reward_draws(spec, prefixes, np.arange(n_models), step)[0]


#: Most steps that a :class:`StepDraws` draws at a time.
DRAW_BLOCK = 64

#: Most values (over all steps, replications and models) in one block of a
#: :class:`StepDraws`; wide steps get shorter blocks, so memory stays flat.
DRAW_VALUES = 2**14


def block_steps(values_per_step: int) -> int:
    """Steps in one block of ``values_per_step`` values each: at most
    ``DRAW_BLOCK``, within ``DRAW_VALUES`` values, and at least one."""
    return max(1, min(DRAW_BLOCK, DRAW_VALUES // values_per_step))


class StepDraws:
    """:func:`reward_draws` of ``models`` under ``spec`` and ``prefixes``,
    keyed by step and read a block of consecutive steps at a time.

    A block is one call keyed by an ``(n, 1)`` array of consecutive steps,
    whose row for step t is the same bits as the call keyed by t alone; it
    holds :func:`block_steps` of one step's values, ``(R, 1)`` broadcast
    with ``models``, and :meth:`at` reads any step, in any order.
    """

    def __init__(self, spec, prefixes, models):
        self._spec, self._prefixes, self._models = spec, prefixes, np.asarray(models)
        self._steps = block_steps(np.broadcast(np.reshape(prefixes, (-1, 1)), self._models).size)
        self._block = np.empty((0,))
        self._first = 1  # the step of the block's first row

    def at(self, step: int) -> np.ndarray:
        """The values of ``step``, shape ``broadcast((R, 1), models.shape)``."""
        i = step - self._first
        if not 0 <= i < len(self._block):
            steps = np.arange(step, step + self._steps)[:, None]
            self._block = reward_draws(self._spec, self._prefixes, self._models, steps)
            self._first, i = step, 0
        return self._block[i]
