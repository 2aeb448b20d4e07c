"""Linear bandit simulation library.

Implements linear ensemble sampling and perturbed-history exploration
with theory-faithful perturbation calibration, baseline policies, an
executable verification layer for the algorithms' probabilistic
guarantees, and a reproducible Monte-Carlo harness with a CLI.
"""

from .backend import HAVE_COMPILED_KERNELS
from .envs import LinearBanditEnv, NoiseFamily, NoiseModel, RegretLedger
from .linalg import GramState, Metric
from .perturb import (
    ConfidenceParams,
    PerturbationFamily,
    PerturbationSpec,
    PerturbationStream,
    beta,
    ensemble_size,
    gamma,
    gamma_tilde,
    keyed_generator,
    mix_key,
    p_n,
)
from .policies import (
    EnsembleSampling,
    GreedyRidge,
    InvalidStateError,
    LinPHE,
    LinTS,
    LinUCB,
    Sampler,
    Selection,
)
from .diagnostics import (
    InvariantViolation,
    StepMonitor,
    elliptical_potential_bound,
    theoretical_regret_bound,
)

__version__ = "0.1.0"

__all__ = [
    "HAVE_COMPILED_KERNELS",
    "LinearBanditEnv",
    "NoiseFamily",
    "NoiseModel",
    "RegretLedger",
    "GramState",
    "Metric",
    "ConfidenceParams",
    "PerturbationFamily",
    "PerturbationSpec",
    "PerturbationStream",
    "beta",
    "ensemble_size",
    "gamma",
    "gamma_tilde",
    "keyed_generator",
    "mix_key",
    "p_n",
    "EnsembleSampling",
    "GreedyRidge",
    "InvalidStateError",
    "LinPHE",
    "LinTS",
    "LinUCB",
    "Sampler",
    "Selection",
    "InvariantViolation",
    "StepMonitor",
    "elliptical_potential_bound",
    "theoretical_regret_bound",
]
