"""Finite-arm stochastic linear bandit environment.

The environment holds the hidden parameter and generates noisy linear
rewards; policies never see the hidden parameter. Regret is scored
against the true optimal arm.

One instance can serve every replication of a lockstep batch, or
:meth:`LinearBanditEnv.stack` can give each replication its own: the
arrays then carry a leading batch axis, ``(R, K, d)`` arms and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NORM_SLACK, matvec, pick, unwrap


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
    equal probability.
    """

    family: str = NoiseFamily.GAUSSIAN
    sigma: float = 1.0

    def __post_init__(self):
        if self.family not in NoiseFamily.ALL:
            raise ValueError(f"unknown noise family {self.family!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")

    def sample(self, rng: np.random.Generator, size=None):
        if self.sigma == 0.0:
            return 0.0 if size is None else np.zeros(size)
        if self.family == NoiseFamily.GAUSSIAN:
            return rng.normal(0.0, self.sigma, size=size)
        if self.family == NoiseFamily.UNIFORM:
            return rng.uniform(-self.sigma, self.sigma, size=size)
        return self.sigma * (2.0 * rng.integers(0, 2, size=size) - 1.0)


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
        if param_bound <= 0:
            raise ValueError("param_bound must be positive")
        norms = np.linalg.norm(arms, axis=-1)
        if np.any(norms > 1.0 + NORM_SLACK):
            raise ValueError("every arm must satisfy ||x|| <= 1")
        if np.any(np.linalg.norm(theta_star, axis=-1) > param_bound + NORM_SLACK):
            raise ValueError("||theta_star|| must not exceed param_bound")
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

    def best_arm(self) -> tuple[int, float]:
        """Index and value of the arm maximizing the true mean reward."""
        return self.optimal_arm_index, self.optimal_value

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

    def sample_reward(self, arm_index: int, rng: np.random.Generator) -> float:
        """Mean reward of the arm plus one noise draw from ``rng``."""
        return self.mean_reward(arm_index) + float(self.noise.sample(rng))

    def _check_index(self, arm_index) -> None:
        index = np.asarray(arm_index)
        if np.any((index < 0) | (index >= self.arm_count)):
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
