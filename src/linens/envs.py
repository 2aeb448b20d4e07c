"""Finite-arm stochastic linear bandit environment.

The environment holds the hidden parameter and generates noisy linear
rewards; policies never see the hidden parameter. Regret is scored
against the true optimal arm.

One instance can serve every replication of a lockstep batch, or each
replication can have its own: the arrays then carry a leading batch axis,
``(R, K, d)`` arms and so on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NORM_SLACK, matvec, pick
from .perturb import TAG_ENV, TAG_NOISE, PerturbationSpec, StepDraws, UnitUniform
from .perturb import reward_draws, seed_prefixes


class NoiseFamily:
    GAUSSIAN = "gaussian"
    UNIFORM = "uniform"
    RADEMACHER = "rademacher"

    ALL = (GAUSSIAN, UNIFORM, RADEMACHER)


@dataclass(frozen=True)
class NoiseModel:
    """A sigma-sub-Gaussian reward-noise distribution.

    ``gaussian`` is N(0, sigma^2); ``uniform`` is Unif[-sigma, sigma]
    (variance sigma^2/3, proxy sigma); ``rademacher`` is +/- sigma with
    equal probability. Each is a perturbation family times a scale
    (:attr:`spec`), drawn by :func:`~linens.perturb.reward_draws` under a
    replication's ``TAG_NOISE`` prefix of its seed, keyed by step, one
    model: the noise of step t is a pure function of ``(seed, t)``.
    """

    family: str = NoiseFamily.GAUSSIAN
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in NoiseFamily.ALL:
            raise ValueError(f"noise family must be one of {NoiseFamily.ALL}, got {self.family!r}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")

    @property
    def spec(self) -> PerturbationSpec:
        """The noise as a normalized family at a scale: sigma, or for the
        uniform family, whose extreme value is -sqrt(3), the largest scale
        at most sigma / sqrt(3) that keeps ``scale * sqrt(3) <= sigma`` in
        floating point."""
        scale = self.sigma
        if self.family == NoiseFamily.UNIFORM:
            scale /= math.sqrt(3.0)
            while scale * math.sqrt(3.0) > self.sigma:
                scale = math.nextafter(scale, 0.0)
        return PerturbationSpec(self.family, scale)

    def draws(self, seeds) -> StepDraws:
        """The noise of one stream per replication, read by step: ``at(t)``
        holds each replication's noise of step t as model 0."""
        return StepDraws(self.spec, seed_prefixes(seeds, TAG_NOISE), np.arange(1))


class LinearBanditEnv:
    """Fixed arm set, hidden parameter, and noisy linear rewards.

    All arms must lie in the unit ball and the hidden parameter's norm
    must not exceed ``param_bound``. Arms of shape ``(R, K, d)`` with a
    ``(R, d)`` parameter hold R instances, one per replication of a batch.
    """

    def __init__(
        self,
        arms: np.ndarray,
        theta_star: np.ndarray,
        noise: NoiseModel,
        param_bound: float,
    ):
        arms = np.atleast_2d(np.asarray(arms, dtype=np.float64))
        theta_star = np.asarray(theta_star, dtype=np.float64)
        if arms.ndim not in (2, 3) or arms.shape[-2] < 1:
            raise ValueError("arms must be a non-empty (K, d) array")
        if theta_star.shape != arms.shape[:-2] + arms.shape[-1:]:
            shapes = f"theta_star has shape {theta_star.shape}, arms {arms.shape}"
            raise ValueError(f"theta_star dimension must match the arms: {shapes}")
        if not 0 < param_bound < math.inf:
            raise ValueError(f"param_bound must be positive and finite, got {param_bound}")
        # hypot squares nothing, so a huge entry cannot overflow; a norm past
        # float64 reads inf, and a NaN norm fails each check too
        with np.errstate(over="ignore"):
            norms = np.hypot.reduce(arms, axis=-1)
            norm = np.max(np.hypot.reduce(theta_star, axis=-1))
        if not np.all(norms <= 1.0 + NORM_SLACK):
            raise ValueError(f"every arm must satisfy ||x|| <= 1, got ||x|| = {np.max(norms)}")
        if not norm <= param_bound + NORM_SLACK:
            raise ValueError(f"||theta_star|| must not exceed param_bound, got {norm}")
        self.arms = arms
        self.theta_star = theta_star
        self.noise = noise
        self.param_bound = float(param_bound)
        self.dim = arms.shape[-1]
        self.arm_count = arms.shape[-2]
        self._means = matvec(arms, theta_star)
        # ties broken toward the smallest index (argmax returns the first max);
        # numpy scalars for one shared instance, (R,) arrays for stacked ones
        self.optimal_arm_index = np.argmax(self._means, axis=-1)
        self.optimal_value = pick(self._means, self.optimal_arm_index, 1)

    def pull(self, arm_index):
        """The arm vectors at ``arm_index`` and their mean rewards, one per
        replication. One reduction checks the range: ``min`` catches a
        negative index, and the gather itself one at or past K."""
        try:
            if np.asarray(arm_index).min() < 0:
                raise IndexError
            return pick(self.arms, arm_index, 2), pick(self._means, arm_index, 1)
        except IndexError:
            message = f"arm index {arm_index} out of range [0, {self.arm_count})"
            raise ValueError(message) from None

    def sample_reward(self, arm_index: int, seed: int, step):
        """Mean reward of the arm plus the noise of ``step`` of stream
        ``seed``; an array of steps gives the rewards of each."""
        prefixes = seed_prefixes([seed], TAG_NOISE)
        noise = reward_draws(self.noise.spec, prefixes, np.arange(1), step)
        return self.pull(arm_index)[1] + noise.reshape(np.shape(step))

    @classmethod
    def random(
        cls,
        dim: int,
        arm_count: int,
        noise: NoiseModel,
        param_bound: float,
        seeds,
    ) -> "LinearBanditEnv":
        """Random instances, each a pure function of its seed: one
        ``(K, d)`` instance for an integer seed, or ``(R, K, d)`` stacked
        ones for a sequence of R seeds.

        Arms are uniform in the unit ball: a gaussian direction times a
        radius ``u ** (1 / d)``. The hidden parameter is a gaussian
        direction of norm ``param_bound * (0.5 + 0.5 u)``. Each seed's
        values are one :func:`~linens.perturb.reward_draws` batch under
        its ``TAG_ENV`` prefix: models ``0 .. (K + 1) d - 1`` are the
        directions' standard gaussian coordinates, arms first, and the next
        K + 1 models are the uniforms ``u`` of :class:`UnitUniform`, radii
        first.
        """
        one = np.ndim(seeds) == 0
        prefixes = seed_prefixes([seeds] if one else seeds, TAG_ENV)
        coords = (arm_count + 1) * dim
        z = reward_draws(PerturbationSpec(), prefixes, np.arange(coords))
        u = reward_draws(UnitUniform(), prefixes, np.arange(coords, coords + arm_count + 1))
        directions = z.reshape(-1, arm_count + 1, dim)
        directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
        arms = directions[:, :-1] * u[:, :-1, None] ** (1.0 / dim)
        theta_star = directions[:, -1] * (param_bound * (0.5 + 0.5 * u[:, -1:]))
        if one:
            arms, theta_star = arms[0], theta_star[0]
        return cls(arms, theta_star, noise, param_bound)


@dataclass
class RegretLedger:
    """Cumulative regret of each replication of a batch, scored a block of
    steps at a time: ``record`` takes the ``(R, n)`` mean rewards of n
    consecutive steps' pulls, or the ``(R,)`` ones of one step, and
    ``cumulative`` carries the sums from one block to the next. The trace
    writer scores each replication's derivation blocks through one ledger
    (:func:`linens.harness.derived_rows`), so its running sums are those of
    one call over all the steps."""

    env: LinearBanditEnv
    cumulative: float = 0.0

    def record(self, mean_reward):
        """Add the regret of pulling arms of ``mean_reward``; returns each
        step's gap and running sum, in the shape of ``mean_reward``. The
        sums are ``add.accumulate`` seeded with the carried cumulative, one
        step after another: the bits of ``cumulative + gap`` step by step."""
        mean = np.asarray(mean_reward)
        block = mean.reshape(len(mean), -1)
        gap = np.reshape(self.env.optimal_value, (-1, 1)) - block
        cum = gap.copy()
        cum[:, 0] += self.cumulative
        np.add.accumulate(cum, axis=1, out=cum)
        self.cumulative = cum[:, -1].copy()
        return gap.reshape(mean.shape), cum.reshape(mean.shape)
