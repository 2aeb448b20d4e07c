"""Finite-arm stochastic linear bandit environment.

The environment holds the hidden parameter and generates noisy linear
rewards; policies never see the hidden parameter. Regret is scored
against the true optimal arm.

One instance can serve every replication of a lockstep batch, or
:meth:`LinearBanditEnv.stack` can give each replication its own: the
arrays then carry a leading batch axis, ``(R, K, d)`` arms and so on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import NORM_SLACK, matvec, pick, unwrap
from .perturb import TAG_NOISE, PerturbationSpec, StepDraws, reward_draws, seed_prefixes


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
        return StepDraws(self.spec, seed_prefixes(seeds, TAG_NOISE), range(1))

    def at(self, seed: int, steps):
        """The noise of stream ``seed`` at ``steps``, an integer or an
        integer array, in the shape of ``steps``."""
        z = reward_draws(self.spec, seed_prefixes([seed], TAG_NOISE), range(1), np.ravel(steps))
        return z.reshape(np.shape(steps))

    def sample(self, seed: int, size) -> np.ndarray:
        """The noise of steps ``1, 2, ...`` of stream ``seed``, ``size``
        values in all."""
        return self.at(seed, np.arange(1, math.prod(np.atleast_1d(size)) + 1)).reshape(size)


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
            raise ValueError("theta_star dimension must match the arms")
        if not 0 < param_bound < math.inf:
            raise ValueError(f"param_bound must be positive and finite, got {param_bound}")
        # a NaN norm fails each check too
        norms = np.linalg.norm(arms, axis=-1)
        if not np.all(norms <= 1.0 + NORM_SLACK):
            raise ValueError(f"every arm must satisfy ||x|| <= 1, got ||x|| = {np.max(norms)}")
        norm = np.max(np.linalg.norm(theta_star, axis=-1))
        if not norm <= param_bound + NORM_SLACK:
            raise ValueError(f"||theta_star|| must not exceed param_bound, got {norm}")
        self.arms = arms
        self.theta_star = theta_star
        self.noise = noise
        self.param_bound = float(param_bound)
        self.dim = arms.shape[-1]
        self.arm_count = arms.shape[-2]
        self._means = matvec(arms, theta_star)
        # ties broken toward the smallest index (argmax returns the first max)
        self.optimal_arm_index = unwrap(np.argmax(self._means, axis=-1))
        self.optimal_value = unwrap(pick(self._means, self.optimal_arm_index, 1))

    @classmethod
    def stack(cls, envs: list["LinearBanditEnv"]) -> "LinearBanditEnv":
        """One instance per replication of a batch, in the order given."""
        return cls(
            np.stack([e.arms for e in envs]),
            np.stack([e.theta_star for e in envs]),
            envs[0].noise,
            envs[0].param_bound,
        )

    def arm(self, arm_index):
        """The arm vectors at ``arm_index``, one per replication."""
        self._check_index(arm_index)
        return pick(self.arms, arm_index, 2)

    def pull(self, arm_index):
        """The arm vectors at ``arm_index`` and their mean rewards, one per
        replication, behind one index check."""
        self._check_index(arm_index)
        return pick(self.arms, arm_index, 2), unwrap(pick(self._means, arm_index, 1))

    def mean_reward(self, arm_index):
        self._check_index(arm_index)
        return unwrap(pick(self._means, arm_index, 1))

    def sample_reward(self, arm_index: int, seed: int, step):
        """Mean reward of the arm plus the noise of ``step`` of stream
        ``seed``; an array of steps gives the rewards of each."""
        return self.mean_reward(arm_index) + self.noise.at(seed, step)

    def _check_index(self, arm_index) -> None:
        index = np.asarray(arm_index)
        if index.min() < 0 or index.max() >= self.arm_count:
            raise ValueError(f"arm index {arm_index} out of range [0, {self.arm_count})")

    @classmethod
    def random(
        cls,
        dim: int,
        arm_count: int,
        noise: NoiseModel,
        param_bound: float,
        rng: np.random.Generator,
    ) -> "LinearBanditEnv":
        """Seeded random instance: unit-ball arms and a hidden parameter
        rescaled to ``param_bound * u`` with ``u ~ Unif[0.5, 1]``."""
        directions = rng.standard_normal((arm_count, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(0.0, 1.0, size=arm_count) ** (1.0 / dim)
        arms = directions * radii[:, None]
        theta_dir = rng.standard_normal(dim)
        theta_dir /= np.linalg.norm(theta_dir)
        theta_star = theta_dir * param_bound * rng.uniform(0.5, 1.0)
        return cls(arms, theta_star, noise, param_bound)


@dataclass
class RegretLedger:
    """Cumulative regret of one replication, or of each replication of a
    batch when ``arm_index`` has a batch axis."""

    env: LinearBanditEnv
    cumulative: float = 0.0

    def record(self, mean_reward):
        """Add the regret of pulling an arm of ``mean_reward``; returns the
        increment."""
        gap = self.env.optimal_value - mean_reward
        self.cumulative = self.cumulative + gap
        return gap
