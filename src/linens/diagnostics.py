"""Executable analysis layer.

Evaluates, during simulation, the quantities that drive the regret
guarantee: the ridge concentration event, the perturbation concentration
event, the directional anti-concentration event, optimism, and the
elliptical potential. :class:`StepMonitor` records each step's pre-step
state and evaluates the events a block of steps at a time, in one batched
pass whose numbers are each step's own. The implication

    concentration AND anti-concentration  =>  optimism

is algebra, not probability, so its failure is raised as a hard error:
it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import LinearBanditEnv
from .linalg import GramState, dot, matvec, unwrap, weighted_norm
from .perturb import ConfidenceParams, beta, block_steps, gamma_tilde
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
    """The event indicators of a block of consecutive steps. Every field
    but ``first`` is an ``(n,) + batch`` array (``beta_prev`` is ``(n,)``)
    whose row i is step ``first + i``."""

    first: int
    beta_prev: np.ndarray
    concentration_ok: np.ndarray
    perturb_concentration_ok: np.ndarray
    anti_conc_ok: np.ndarray
    optimism_ok: np.ndarray
    elliptical_sum: np.ndarray  # the running sum after each step
    ensemble_fraction: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.beta_prev)


@dataclass
class StepMonitor:
    """Per-replication monitor of the theory-level events.

    Reads the hidden parameter by simulator privilege; policies never
    receive a reference to it. With ``batch = R`` it watches the R
    replications of a lockstep batch, and its counters are ``(R,)`` arrays
    (:meth:`counters`).

    :meth:`observe` records each step's pre-step state, and the events are
    evaluated a block of steps at a time, in one batched pass over
    ``(n,) + batch`` arrays, when the block is full and at :meth:`flush`.
    Each step's numbers are those of the serial calls on that step alone
    (see :mod:`linens.linalg`). A block holds
    :func:`~linens.perturb.block_steps` of ``R * record`` steps, with
    ``record`` the largest per-replication snapshot: ``d * d`` for a Gram
    matrix, or ``m * d`` for an ensemble's estimators under
    ``track_ensemble_fraction``. So memory stays flat at any batch width.
    The counters cover the evaluated steps; call :meth:`flush` after the
    last step before reading them.
    """

    env: LinearBanditEnv
    params: ConfidenceParams
    track_ensemble_fraction: bool = False
    batch: int | None = None
    checks: int = 0

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
        # the lowest per-step ensemble fraction of each replication, once
        # an ensemble's steps are evaluated under track_ensemble_fraction
        self.min_ensemble_fraction = None
        self._record = None  # block buffers, sized at the first step
        self._first = 1  # the step of the block's first row
        self._held = 0  # rows recorded and not yet evaluated

    def _buffers(self, policy: _RidgeBase) -> dict:
        """Empty ``(n,) + batch + record`` buffers of one block of
        ``policy``'s pre-step states."""
        d = self.env.dim
        records = {
            "gram": (d, d),
            "gram_inv": (d, d),
            "reward_sum": (d,),
            "theta": (d,),
            "chosen": (d,),
        }
        if self.track_ensemble_fraction and hasattr(policy, "thetas"):
            records["thetas"] = (policy.n_models, d)
        steps = block_steps(math.prod(self._shape) * max(math.prod(r) for r in records.values()))
        return {name: np.empty((steps,) + self._shape + r) for name, r in records.items()}

    def observe(
        self, policy: _RidgeBase, selection: Selection, chosen: np.ndarray
    ) -> StepDiagnostics | None:
        """Record the pre-step state of the upcoming step; call after
        ``select`` and before ``update``, once per step in step order.
        ``chosen`` is the vector of the selected arm, one per replication.
        Returns the diagnostics of the block that this step completes, or
        None."""
        if self._record is None:
            self._record = self._buffers(policy)
        rec, i = self._record, self._held
        if i == 0:
            self._first = policy.step + 1
        elif policy.step + 1 != self._first + i:
            raise ValueError(
                f"observe records steps in order: expected step {self._first + i}, "
                f"got {policy.step + 1}"
            )
        rec["gram"][i] = policy.gram.gram
        rec["gram_inv"][i] = policy.gram.gram_inv
        rec["reward_sum"][i] = policy.reward_sum
        rec["theta"][i] = selection.theta
        rec["chosen"][i] = chosen
        if "thetas" in rec:
            rec["thetas"][i] = policy.thetas()
        self._held = i + 1
        return self.flush() if self._held == len(rec["gram"]) else None

    def flush(self) -> StepDiagnostics | None:
        """Evaluate every recorded step in one batched pass, fold it into
        the counters and return its diagnostics (None when no step is
        held). Raises :class:`InvariantViolation`, naming the first broken
        step and replication, when the optimism implication fails."""
        n, self._held = self._held, 0
        if n == 0:
            return None
        rec = {name: buf[:n] for name, buf in self._record.items()}
        gram, gram_inv = rec["gram"], rec["gram_inv"]
        theta, chosen, x_star = rec["theta"], rec["chosen"], self._x_star
        first = self._first
        beta_prev = np.array([beta(self.params, t) for t in range(first - 1, first - 1 + n)])
        beta_b = beta_prev.reshape((n,) + (1,) * len(self._shape))  # broadcast over the batch

        theta_hat = matvec(gram_inv, rec["reward_sum"])
        ridge_dev = weighted_norm(gram, theta_hat - self.env.theta_star)
        concentration_ok = ridge_dev <= beta_b

        theta_tilde = theta - theta_hat
        perturb_concentration_ok = weighted_norm(gram, theta_tilde) <= self._gamma_tilde

        # u^T Z equals x*^T theta_tilde and ||u|| equals the inverse-Gram
        # norm of x*, so the directional event needs no materialized vectors
        x_star_width = weighted_norm(gram_inv, x_star)
        directional = dot(x_star, theta_tilde)
        threshold = beta_b * x_star_width
        anti_conc_ok = directional >= threshold

        optimism_margin = dot(chosen, theta) - self._optimal_value
        optimism_ok = optimism_margin >= 0.0

        broken = concentration_ok & anti_conc_ok & (optimism_margin < -_IMPLICATION_SLACK)
        if broken.any():
            at = np.unravel_index(np.argmax(broken), broken.shape)
            where = f"step {first + at[0]}" + (f", replication {at[1]}" if self._shape else "")
            raise InvariantViolation(
                f"optimism implication failed at {where}: margin {optimism_margin[at]}, "
                f"ridge deviation {ridge_dev[at]}, directional value {directional[at]}"
            )

        # running sums in step order: add.accumulate adds one step after
        # another, the bits of repeated addition
        width = weighted_norm(gram_inv, chosen)
        sums = np.concatenate([np.asarray(self.elliptical_sum)[None], width * width])
        elliptical_sum = np.add.accumulate(sums, axis=0)[1:]
        self.elliptical_sum = unwrap(elliptical_sum[-1])
        self.checks += n
        self.concentration_failures = unwrap(
            self.concentration_failures + (~concentration_ok).sum(axis=0)
        )
        self.all_concentrated = unwrap(self.all_concentrated & concentration_ok.all(axis=0))
        self.perturb_concentration_failures = unwrap(
            self.perturb_concentration_failures + (~perturb_concentration_ok).sum(axis=0)
        )
        self.anti_conc_hits = unwrap(self.anti_conc_hits + anti_conc_ok.sum(axis=0))
        self.optimism_hits = unwrap(self.optimism_hits + optimism_ok.sum(axis=0))

        fraction = None
        if "thetas" in rec:
            fraction = self._ensemble_fraction(rec["thetas"], theta_hat, gram, threshold)
            low = fraction.min(axis=0)
            if self.min_ensemble_fraction is not None:
                low = np.minimum(self.min_ensemble_fraction, low)
            self.min_ensemble_fraction = unwrap(low)

        return StepDiagnostics(
            first=first,
            beta_prev=beta_prev,
            concentration_ok=concentration_ok,
            perturb_concentration_ok=perturb_concentration_ok,
            anti_conc_ok=anti_conc_ok,
            optimism_ok=optimism_ok,
            elliptical_sum=elliptical_sum,
            ensemble_fraction=fraction,
        )

    def _ensemble_fraction(self, thetas, theta_hat, gram, threshold) -> np.ndarray:
        """Fraction of ensemble members that are both directionally
        anti-concentrated (past ``threshold``, ``beta * ||x*||_{V^-1}``) and
        within the perturbation radius, per step and replication."""
        tilde_all = thetas - theta_hat[..., None, :]
        directional = matvec(tilde_all, self._x_star)
        norms_sq = np.einsum("...jd,...de,...je->...j", tilde_all, gram, tilde_all)
        hits = (directional >= threshold[..., None]) & (norms_sq <= self._gamma_tilde**2)
        return np.mean(hits, axis=-1)

    def counters(self) -> dict:
        """The counters, each a batch-shaped array (``(R,)``, or 0-d
        unbatched), ``checks`` included. ``elliptical_ok`` is left out
        below lambda = 1, where the cap does not apply and the check is
        disabled. Every recorded step must have been evaluated
        (:meth:`flush`)."""
        if self._held:
            raise RuntimeError(f"{self._held} recorded steps are not evaluated; call flush()")
        counters = {
            "checks": self.checks,
            "elliptical_sum": self.elliptical_sum,
            "all_concentrated": self.all_concentrated,
            "concentration_failures": self.concentration_failures,
            "perturb_concentration_failures": self.perturb_concentration_failures,
            "anti_conc_hits": self.anti_conc_hits,
            "optimism_hits": self.optimism_hits,
        }
        if self.params.lam >= 1:
            counters["elliptical_ok"] = self.elliptical_ok()
        if self.min_ensemble_fraction is not None:
            counters["min_ensemble_fraction"] = self.min_ensemble_fraction
        return {k: np.broadcast_to(v, self._shape) for k, v in counters.items()}

    def elliptical_ok(self):
        """Whether the elliptical potential stayed under its cap (meaningful
        for lam >= 1)."""
        bound = elliptical_potential_bound(
            self.env.dim, max(self.checks, 1), self.params.lam
        )
        return self.elliptical_sum <= bound
