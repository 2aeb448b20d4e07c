"""Executable analysis layer.

Evaluates, during simulation, the quantities that drive the regret
guarantee: the ridge concentration event, the perturbation concentration
event, the directional anti-concentration event, optimism, and the
elliptical potential. The implication

    concentration AND anti-concentration  =>  optimism

is algebra, not probability, so its failure is raised as a hard error:
it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .envs import LinearBanditEnv
from .linalg import GramState, Metric, dot, matvec, unwrap
from .perturb import ConfidenceParams, beta, gamma_tilde
from .policies import Selection, _RidgeBase

#: Numerical slack for the optimism implication (exact in real arithmetic).
_IMPLICATION_SLACK = 1e-9


class InvariantViolation(RuntimeError):
    """A deterministic consequence of the theory failed numerically."""


def theoretical_regret_bound(gamma: float, p: float, params: ConfidenceParams) -> float:
    """Closed-form regret bound for concentration radius ``gamma`` and
    optimism probability ``p``."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d, t_hor, lam = params.dim, params.horizon, params.lam
    first = gamma * (1.0 + 2.0 / p) * math.sqrt(
        2.0 * d * t_hor * math.log1p(t_hor / (d * lam))
    )
    second = (gamma / p) * math.sqrt(
        (2.0 * t_hor / lam) * math.log(1.0 / params.delta)
    )
    return first + second


def elliptical_potential_bound(dim: int, horizon: int, lam: float) -> float:
    """Deterministic cap on the summed squared inverse-Gram widths of the
    pulled arms (valid for lam >= 1)."""
    return 2.0 * dim * math.log1p(horizon / (dim * lam))


def optimism_direction(
    gram: GramState, arm_history: np.ndarray, x_star: np.ndarray
) -> np.ndarray:
    """The direction in perturbation space whose positive excursions force
    optimism: ``[sqrt(lam) I, X_1, ..., X_{t-1}]^T V^{-1} x_star``.

    Its 2-norm equals the inverse-Gram norm of the optimal arm.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    if x_star.shape != (gram.dim,):
        raise ValueError("x_star dimension mismatch")
    arm_history = np.asarray(arm_history, dtype=np.float64).reshape(-1, gram.dim)
    v = gram.solve(x_star)
    return np.concatenate([math.sqrt(gram.lam) * v, arm_history @ v])


def perturbation_vector(w: np.ndarray, z_draws: np.ndarray, lam: float) -> np.ndarray:
    """Stack one model's initial perturbation (scaled by 1/sqrt(lam)) on
    top of its past reward perturbations."""
    return np.concatenate([np.asarray(w, dtype=np.float64) / math.sqrt(lam), z_draws])


def check_optimism_sufficiency(
    u: np.ndarray, z_vec: np.ndarray, c: float, ridge_dev: float
) -> bool:
    """True iff the two-part sufficient condition for optimism holds:
    the perturbation exceeds ``c`` in direction ``u`` and the ridge
    estimator deviates by at most ``c``."""
    u = np.asarray(u, dtype=np.float64)
    z_vec = np.asarray(z_vec, dtype=np.float64)
    if u.shape != z_vec.shape:
        raise ValueError("direction and perturbation vector dimensions differ")
    if c <= 0:
        raise ValueError("c must be positive")
    return bool(u @ z_vec >= c * np.linalg.norm(u)) and ridge_dev <= c


@dataclass
class StepDiagnostics:
    """One step's event indicators; arrays over the replications of a
    batch."""

    t: int
    beta_prev: float
    concentration_ok: bool
    perturb_concentration_ok: bool
    anti_conc_ok: bool
    optimism_ok: bool
    elliptical_sum: float


@dataclass
class StepMonitor:
    """Per-replication monitor of the theory-level events.

    Reads the hidden parameter by simulator privilege; policies never
    receive a reference to it. With ``batch = R`` it watches the R
    replications of a lockstep batch, and its counters are ``(R,)`` arrays.
    """

    env: LinearBanditEnv
    params: ConfidenceParams
    track_ensemble_fraction: bool = False
    batch: int | None = None
    checks: int = 0
    ensemble_fractions: list = field(default_factory=list)

    def __post_init__(self):
        self._shape = shape = () if self.batch is None else (self.batch,)
        zeros = np.zeros(shape, dtype=np.int64)
        self.elliptical_sum = unwrap(np.zeros(shape))
        self.concentration_failures = unwrap(zeros)
        self.perturb_concentration_failures = unwrap(zeros)
        self.anti_conc_hits = unwrap(zeros)
        self.optimism_hits = unwrap(zeros)
        self._gamma_tilde = gamma_tilde(self.params)
        # the optimal arm of each replication, broadcast once for every step
        x_star = self.env.arm(self.env.optimal_arm_index)
        self._x_star = np.ascontiguousarray(np.broadcast_to(x_star, shape + (self.env.dim,)))
        self._optimal_value = self.env.optimal_value
        # step-0 concentration: the ridge estimate is zero, so the deviation
        # is sqrt(lam) * ||theta*|| which the radius covers by construction
        theta_star = self.env.theta_star
        dev0 = math.sqrt(self.params.lam) * np.sqrt(dot(theta_star, theta_star))
        self.all_concentrated = unwrap(np.broadcast_to(dev0 <= beta(self.params, 0), shape))

    @property
    def gamma_tilde_value(self) -> float:
        return self._gamma_tilde

    def observe(
        self, policy: _RidgeBase, selection: Selection, chosen: np.ndarray
    ) -> StepDiagnostics:
        """Evaluate all event indicators for the upcoming step; call after
        ``select`` and before ``update`` so the Gram state is pre-step.
        ``chosen`` is the vector of the selected arm, one per replication."""
        gram = policy.gram
        t = gram.step_count + 1
        beta_prev = beta(self.params, t - 1)
        theta_hat = policy.ridge_estimate()
        x_star = self._x_star

        ridge_dev = gram.weighted_norm(theta_hat - self.env.theta_star, Metric.GRAM)
        concentration_ok = ridge_dev <= beta_prev

        theta_tilde = selection.theta - theta_hat
        perturb_norm = gram.weighted_norm(theta_tilde, Metric.GRAM)
        perturb_concentration_ok = perturb_norm <= self._gamma_tilde

        # u^T Z equals x*^T theta_tilde and ||u|| equals the inverse-Gram
        # norm of x*, so the directional event needs no materialized vectors
        x_star_width = gram.weighted_norm(x_star, Metric.GRAM_INV)
        directional = dot(x_star, theta_tilde)
        anti_conc_ok = directional >= beta_prev * x_star_width

        optimism_margin = dot(chosen, selection.theta) - self._optimal_value
        optimism_ok = optimism_margin >= 0.0

        broken = concentration_ok & anti_conc_ok & (optimism_margin < -_IMPLICATION_SLACK)
        if np.any(broken):
            at = np.unravel_index(np.argmax(broken), np.shape(broken))
            raise InvariantViolation(
                "optimism implication failed at step "
                f"{t}: margin {optimism_margin[at]}, ridge deviation "
                f"{np.asarray(ridge_dev)[at]}, directional value {directional[at]}"
            )

        width = gram.weighted_norm(chosen, Metric.GRAM_INV)
        self.elliptical_sum = self.elliptical_sum + width * width
        self.checks += 1
        self.concentration_failures = (
            self.concentration_failures + np.logical_not(concentration_ok)
        )
        self.all_concentrated = self.all_concentrated & concentration_ok
        self.perturb_concentration_failures = (
            self.perturb_concentration_failures + np.logical_not(perturb_concentration_ok)
        )
        self.anti_conc_hits = self.anti_conc_hits + anti_conc_ok
        self.optimism_hits = self.optimism_hits + optimism_ok

        if self.track_ensemble_fraction and hasattr(policy, "thetas"):
            self.ensemble_fractions.append(
                self._ensemble_fraction(policy, theta_hat, beta_prev, x_star_width)
            )

        return StepDiagnostics(
            t=t,
            beta_prev=beta_prev,
            concentration_ok=concentration_ok,
            perturb_concentration_ok=perturb_concentration_ok,
            anti_conc_ok=anti_conc_ok,
            optimism_ok=optimism_ok,
            elliptical_sum=self.elliptical_sum,
        )

    def _ensemble_fraction(
        self,
        policy,
        theta_hat: np.ndarray,
        beta_prev: float,
        x_star_width,
    ):
        """Fraction of ensemble members that are both directionally
        anti-concentrated and within the perturbation radius."""
        tilde_all = policy.thetas() - theta_hat[..., None, :]
        directional = matvec(tilde_all, self._x_star)
        norms_sq = np.einsum(
            "...jd,...de,...je->...j", tilde_all, policy.gram.gram, tilde_all
        )
        hits = (directional >= beta_prev * np.asarray(x_star_width)[..., None]) & (
            norms_sq <= self._gamma_tilde**2
        )
        return unwrap(np.mean(hits, axis=-1))

    def replication_summaries(self) -> list[dict]:
        """Each replication's counters as plain Python values, in batch
        order. ``elliptical_ok`` is None below lambda = 1, where the cap
        does not apply and the check is disabled."""
        counters = {
            "elliptical_sum": self.elliptical_sum,
            "elliptical_ok": self.elliptical_ok() if self.params.lam >= 1 else None,
            "all_concentrated": self.all_concentrated,
            "concentration_failures": self.concentration_failures,
            "perturb_concentration_failures": self.perturb_concentration_failures,
            "anti_conc_hits": self.anti_conc_hits,
            "optimism_hits": self.optimism_hits,
        }
        if self.ensemble_fractions:
            counters["min_ensemble_fraction"] = np.min(self.ensemble_fractions, axis=0)
        columns = {
            k: np.broadcast_to(v, self._shape).reshape(-1).tolist() for k, v in counters.items()
        }
        return [
            {"checks": self.checks, **{k: values[i] for k, values in columns.items()}}
            for i in range(len(columns["elliptical_sum"]))
        ]

    def elliptical_ok(self):
        """Whether the elliptical potential stayed under its cap (meaningful
        for lam >= 1)."""
        bound = elliptical_potential_bound(
            self.env.dim, max(self.checks, 1), self.params.lam
        )
        return self.elliptical_sum <= bound
