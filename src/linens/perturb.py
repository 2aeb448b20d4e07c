"""Perturbation calibration and keyed random streams.

This module holds the confidence-radius formulas, the perturbation
distribution families with their anti-concentration floors, the
ensemble-size rule, and keyed draws in which every value is a pure
function of ``(base_seed, structured key)``. Purity makes draws
replayable and order-independent, which the round-robin-ensemble /
perturbed-history equivalence test relies on.

Reward perturbations come from :func:`reward_draws`, a splitmix64
counter hash in numpy ``uint64`` that draws a whole batch of replications
and models in one call. Everything else (initial matrices, unshared
perturbed-history draws, long-lived streams) comes from keyed Philox
generators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_ZERO4 = (0, 0, 0, 0)

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


def _philox_key(h: int) -> tuple[int, int]:
    """The 128-bit Philox key of a mixed hash, as two 64-bit words."""
    return h, _splitmix64(h)


def keyed_generator(base_seed: int, *parts: int) -> np.random.Generator:
    """Counter-based generator that is a pure function of its key.

    The key parts are folded into a 128-bit Philox key via splitmix64, so
    identical keys reproduce identical streams across runs and processes.
    """
    key = np.array(_philox_key(mix_key(base_seed, *parts)), dtype=np.uint64)
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


@functools.lru_cache(maxsize=256)
def _counter_offsets(models: range) -> np.ndarray:
    """``(len(models), 2)`` offsets ``c * gamma`` of counters ``c = 2j``
    and ``2j + 1`` of each model j: splitmix64 started at ``h`` gives
    ``_mix(h + c * gamma)`` as its output ``c``."""
    offsets = np.array(
        [[(2 * j + w) * _GAMMA & _MASK64 for w in (0, 1)] for j in models],
        dtype=np.uint64,
    ).reshape(len(models), 2)
    offsets.flags.writeable = False
    return offsets


def reward_draws(spec: PerturbationSpec, prefixes, models: range, *key) -> np.ndarray:
    """Reward perturbations of ``models`` under one key per replication.

    ``prefixes`` holds each replication's ``mix_key(stream_seed,
    TAG_REWARD)``; each key part is an integer or an integer array, and
    all of them broadcast together. The key is folded into the prefix with
    :func:`mix_key`'s rule, then model j reads counters ``2j`` and
    ``2j + 1`` of a splitmix64 sequence started at the folded hash, so each
    value is a pure function of ``(stream_seed, j, key)``: independent of
    the other models asked for, of the batch, and of its position in
    either. The words map onto the family elementwise: gaussian by
    Box-Muller, uniform from the top 53 bits, rademacher from one bit,
    spherical as ``sqrt(2) cos(2 pi U)``, binomial as the sum of two bits
    minus 1. Returns shape ``broadcast(prefixes, *key) + (len(models),)``.
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


class Keying:
    """How reward perturbations are keyed in a stream."""

    BY_STEP = "by_step"
    BY_ARM_COUNT = "by_arm_count"

    ALL = (BY_STEP, BY_ARM_COUNT)


class PerturbationStream:
    """Keyed source of perturbation draws shared by an ensemble.

    Every draw is a pure function of ``(base_seed, key)``. Reward
    perturbations for all models are produced as one vector per key by
    :func:`reward_draws`, of which :meth:`reward_vector` is the case of
    one replication; model ``j`` owns component ``j``, so a draw depends
    only on ``(base_seed, j, key)`` regardless of the ensemble size.
    ``reward_prefix`` is the stream's part of that hash, which batched
    policies stack to draw for all their replications in one call.

    The initial matrix and the perturbed-history draws come from one
    Philox generator owned by the stream and reset to counter 0 under each
    new key, which draws exactly what a fresh
    ``keyed_generator(base_seed, tag, *key)`` would at a tenth of its cost.
    That generator never leaves the stream; :meth:`generator` hands out
    fresh, independent generators for long-lived uses.
    """

    def __init__(self, base_seed: int, keying: str = Keying.BY_STEP):
        if keying not in Keying.ALL:
            raise ValueError(f"unknown keying mode {keying!r}")
        self.base_seed = int(base_seed)
        self.keying = keying
        self.reward_prefix = mix_key(self.base_seed, TAG_REWARD)
        self._bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        self._rng = np.random.Generator(self._bitgen)
        self._prefix: dict[int, int] = {}  # tag -> mix_key(base_seed, tag)

    def generator(self, *parts: int) -> np.random.Generator:
        return keyed_generator(self.base_seed, *parts)

    def _keyed(self, tag: int, *parts: int) -> np.random.Generator:
        """The stream's own generator, reset to the fresh state of
        ``keyed_generator(base_seed, tag, *parts)``."""
        h = self._prefix.get(tag)
        if h is None:
            h = self._prefix[tag] = mix_key(self.base_seed, tag)
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO4, "key": _philox_key(_fold(h, parts))},
            "buffer": _ZERO4,
            "buffer_pos": 4,  # buffer exhausted: the next draw computes block 0
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._rng

    def initial_matrix(
        self, spec: PerturbationSpec, n_models: int, dim: int, lam: float
    ) -> np.ndarray:
        """(n_models, dim) matrix of initial perturbations; per-coordinate
        standard-deviation target is ``sqrt(lam) * scale``."""
        return math.sqrt(lam) * spec.sample(self._keyed(TAG_INIT), (n_models, dim))

    def initial_vector(
        self, spec: PerturbationSpec, model: int, dim: int, lam: float
    ) -> np.ndarray:
        """Initial perturbation of one model (row ``model`` of the matrix)."""
        return self.initial_matrix(spec, model + 1, dim, lam)[model]

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
        return reward_draws(spec, [self.reward_prefix], range(n_models), *parts)[0]

    def reward_perturbation(self, spec: PerturbationSpec, model: int, *key: int) -> float:
        """Reward perturbation of one model for one key."""
        parts = self._reward_key(key)
        models = range(model, model + 1)
        return float(reward_draws(spec, [self.reward_prefix], models, *parts)[0, 0])

    def history_perturbation(
        self, spec: PerturbationSpec, step: int, dim: int, n_rows: int, lam: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fresh perturbed-history draws for ``step``: the (dim,) prior
        perturbation with standard-deviation target ``sqrt(lam) * scale``,
        then one reward perturbation per history row, in that order from
        the key ``(TAG_PHE, step)``."""
        rng = self._keyed(TAG_PHE, step)
        w = math.sqrt(lam) * spec.sample(rng, dim)
        return w, spec.sample(rng, n_rows)


#: Steps that a :class:`StepDraws` draws from its generators at a time.
DRAW_BLOCK = 64


class StepDraws:
    """Per-step values from long-lived generators, one per replication.

    ``draw(rng, n)`` returns ``n`` steps' values from one generator. They
    are drawn ``DRAW_BLOCK`` steps at a time; a generator fills a sized
    draw value by value, so :meth:`next` yields exactly what one call per
    step would. The generators are read ahead and must not be shared.
    ``batched`` keeps the leading replication axis; without it there is
    one generator and no such axis.
    """

    def __init__(self, rngs: list, draw, batched: bool = True):
        self._rngs = rngs
        self._draw = draw
        self._batched = batched
        self._block = np.empty((0,))
        self._pos = 0

    def next(self) -> np.ndarray:
        if self._pos == len(self._block):
            self._block = np.stack([self._draw(g, DRAW_BLOCK) for g in self._rngs], axis=1)
            self._pos = 0
        values = self._block[self._pos]
        self._pos += 1
        return values if self._batched else values[0]
