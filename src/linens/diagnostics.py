"""Executable analysis layer.

Evaluates, during simulation, the quantities that drive the regret
guarantee: the ridge concentration event, the perturbation concentration
event, the directional anti-concentration event, optimism, and the
elliptical potential. :class:`StepMonitor` records each step's pre-step
state and evaluates the events at each :meth:`~StepMonitor.flush`, in one
batched pass whose numbers are each step's own. The implication

    concentration AND anti-concentration  =>  optimism

is algebra, not probability, so its failure is raised as a hard error:
it can only mean an implementation bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import LinearBanditEnv
from .linalg import dot, matvec, weighted_norm
from .perturb import ConfidenceParams, beta, block_steps, gamma_tilde
from .policies import Selection, _RidgeBase

#: Numerical slack for the optimism implication (exact in real arithmetic).
_IMPLICATION_SLACK = 1e-9

#: The counters of :meth:`StepMonitor.counters` that count steps by event.
_EVENT_COUNTS = (
    "concentration_failures",
    "perturb_concentration_failures",
    "anti_conc_hits",
    "optimism_hits",
)


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


@dataclass
class StepDiagnostics:
    """The event indicators of a block of consecutive steps. Every field
    but ``first`` is an ``(n, R)`` array (``beta_prev`` is ``(n,)``) whose
    row i is step ``first + i``."""

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
    receive a reference to it. It watches the R replications of a lockstep
    batch, ``replications`` (by default the one replication 0), and its
    counters are ``(R,)`` arrays (:meth:`counters`).

    :meth:`observe` records each step's pre-step state, and :meth:`flush`
    evaluates the recorded steps in one batched pass over ``(n, R)``
    arrays, whose numbers are those of the serial calls on each step alone
    (see :mod:`linens.linalg`). The caller flushes at most every
    :meth:`block_length` steps: :func:`~linens.perturb.block_steps` of
    ``R * record`` steps, with ``record`` the largest per-replication
    snapshot: ``d * d`` for a Gram matrix, or ``m * d`` for an ensemble's
    perturbed sums under ``track_ensemble_fraction``, whose estimators a
    block forms in one stacked product. So memory stays flat at any batch
    width. The counters cover the evaluated steps; call :meth:`flush`
    after the last step before reading them.
    """

    env: LinearBanditEnv
    params: ConfidenceParams
    track_ensemble_fraction: bool = False
    replications: range = range(1)

    def __post_init__(self):
        self._shape = shape = (len(self.replications),)
        self._gamma_tilde = gamma_tilde(self.params)
        # the optimal arm of each replication, broadcast once for every step
        x_star = self.env.pull(self.env.optimal_arm_index)[0]
        self._x_star = np.ascontiguousarray(np.broadcast_to(x_star, shape + (self.env.dim,)))
        self._optimal_value = self.env.optimal_value
        # step-0 concentration: the ridge estimate is zero, so the deviation
        # is sqrt(lam) * ||theta*|| which the radius covers by construction
        theta_star = self.env.theta_star
        dev0 = math.sqrt(self.params.lam) * np.sqrt(dot(theta_star, theta_star))
        # the counters of the evaluated steps, which flush folds each block
        # into; under track_ensemble_fraction an ensemble's steps add
        # min_ensemble_fraction, each replication's lowest per-step fraction
        self._counts = {
            "checks": 0,
            "elliptical_sum": np.zeros(shape),
            "all_concentrated": np.broadcast_to(dev0 <= beta(self.params, 0), shape),
            **dict.fromkeys(_EVENT_COUNTS, np.zeros(shape, dtype=np.int64)),
        }
        self._record = None  # block buffers, sized by block_length
        self._first = 1  # the step of the block's first row
        self._held = 0  # rows recorded and not yet evaluated

    def block_length(self, policy: _RidgeBase) -> int:
        """The most steps of ``policy`` that :meth:`observe` records
        between two calls of :meth:`flush`; the first call sizes the
        ``(n, R) + record`` buffers of a block of pre-step states."""
        if self._record is None:
            d = self.env.dim
            records = {
                "gram": (d, d),
                "gram_inv": (d, d),
                "reward_sum": (d,),
                "theta": (d,),
                "chosen": (d,),
            }
            if self.track_ensemble_fraction and hasattr(policy, "s_vectors"):
                records["sums"] = (policy.n_models, d)
            n = block_steps(len(self.replications) * max(math.prod(r) for r in records.values()))
            self._record = {name: np.empty((n,) + self._shape + r) for name, r in records.items()}
        return len(self._record["gram"])

    def observe(self, policy: _RidgeBase, selection: Selection, chosen: np.ndarray) -> None:
        """Record the pre-step state of the upcoming step; call after
        ``select`` and before ``update``, once per step in step order.
        ``chosen`` is the vector of the selected arm, one per replication."""
        full = self.block_length(policy)
        rec, i = self._record, self._held
        if i == full:
            raise ValueError(f"the block holds {full} recorded steps; call flush() first")
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
        if "sums" in rec:
            rec["sums"][i] = policy.s_vectors
        self._held = i + 1

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
        beta_b = beta_prev[:, None]  # broadcast over the batch

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
            raise InvariantViolation(
                f"optimism implication failed at step {first + at[0]}, "
                f"replication {self.replications[at[1]]}: margin {optimism_margin[at]}, "
                f"ridge deviation {ridge_dev[at]}, directional value {directional[at]}"
            )

        # running sums in step order: add.accumulate adds one step after
        # another, the bits of repeated addition
        counts = self._counts
        width = weighted_norm(gram_inv, chosen)
        sums = np.concatenate([counts["elliptical_sum"][None], width * width])
        elliptical_sum = np.add.accumulate(sums, axis=0)[1:]
        # a copy, so the counters hold no block's (n, R) sums once it ends
        counts["elliptical_sum"] = elliptical_sum[-1].copy()
        counts["checks"] += n
        counts["all_concentrated"] = counts["all_concentrated"] & concentration_ok.all(axis=0)
        events = (~concentration_ok, ~perturb_concentration_ok, anti_conc_ok, optimism_ok)
        for name, hits in zip(_EVENT_COUNTS, events):
            counts[name] = counts[name] + hits.sum(axis=0)

        fraction = None
        if "sums" in rec:
            # each item is the (m, d) by (d, d) product of policy.thetas()
            thetas = np.matmul(rec["sums"], gram_inv)
            fraction = self._ensemble_fraction(thetas, theta_hat, gram, threshold)
            low = fraction.min(axis=0)
            if "min_ensemble_fraction" in counts:
                low = np.minimum(counts["min_ensemble_fraction"], low)
            counts["min_ensemble_fraction"] = low

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
        """The ``(R,)`` counters, ``checks`` included, that a run tallies
        (:func:`linens.harness._tally`) for :func:`linens.harness.monitor_report`.
        ``elliptical_ok``, whether the elliptical potential stayed under its
        cap, is left out below lambda = 1, where the cap does not apply.
        Every recorded step must be evaluated (:meth:`flush`)."""
        if self._held:
            raise RuntimeError(f"{self._held} recorded steps are not evaluated; call flush()")
        counters = dict(self._counts)
        if self.params.lam >= 1:
            bound = elliptical_potential_bound(
                self.env.dim, max(counters["checks"], 1), self.params.lam
            )
            counters["elliptical_ok"] = counters["elliptical_sum"] <= bound
        return {k: np.broadcast_to(v, self._shape) for k, v in counters.items()}
