"""Experiment configuration: INI-style files with [env], [policy], [run].

Each section's keys are the fields of its dataclass (``lambda`` for
``lam``), read by field type. Unknown sections or keys are rejected so that
typos fail fast, and so are policy keys that a run would not read
(:meth:`ExperimentConfig.reads`).
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .envs import LinearBanditEnv, NoiseFamily, NoiseModel
from .perturb import ConfidenceParams, PerturbationFamily, PerturbationSpec, beta, ensemble_size
from .policies import Keying, Sampler

POLICY_NAMES = ("ensemble", "phe", "linucb", "lints", "greedy")
DIAGNOSTIC_LEVELS = ("off", "monitors", "full-trace")
ARM_MODES = ("random", "explicit")
SCALE_MODES = ("auto", "explicit")


@dataclass
class EnvConfig:
    dim: int = 2
    arm_count: int = 4
    arm_mode: str = "random"
    arms: list = field(default_factory=list)
    theta_star: list = field(default_factory=list)
    sigma: float = 1.0
    noise_family: str = NoiseFamily.GAUSSIAN
    s_bound: float = 1.0


@dataclass
class PolicyConfig:
    name: str = "ensemble"
    lam: float = 1.0
    delta: float = 0.1
    m: str | int = "auto"
    sampler: str = Sampler.UNIFORM
    family: str = PerturbationFamily.GAUSSIAN
    scale_mode: str = "auto"
    scale: float = 1.0
    keying: str = Keying.BY_STEP
    lints_scale: float | None = None
    linucb_bonus: float | None = None


@dataclass
class RunConfig:
    horizon: int = 100
    replications: int = 1
    base_seed: int = 0
    diagnostics: str = "off"
    out_dir: str = "out"
    workers: int = 1


@dataclass
class ExperimentConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    run: RunConfig = field(default_factory=RunConfig)

    def validate(self) -> "ExperimentConfig":
        e, p, r = self.env, self.policy, self.run
        if e.dim < 1:
            raise ValueError("env.dim must be at least 1")
        if e.arm_count < 1:
            raise ValueError("env.arm_count must be at least 1")
        if e.arm_mode not in ARM_MODES:
            raise ValueError(f"env.arm_mode must be one of {ARM_MODES}")
        if e.sigma < 0:
            raise ValueError("env.sigma must be non-negative")
        if e.s_bound <= 0:
            raise ValueError("env.s_bound must be positive")
        if e.noise_family not in NoiseFamily.ALL:
            raise ValueError(f"env.noise_family must be one of {NoiseFamily.ALL}")
        if p.name not in POLICY_NAMES:
            raise ValueError(f"policy.name must be one of {POLICY_NAMES}")
        if p.lam <= 0:
            raise ValueError("policy.lambda must be positive")
        if p.lam < 1:
            warnings.warn(
                "policy.lambda < 1: the elliptical-potential monitor presumes "
                "lambda >= 1 and is disabled",
                stacklevel=2,
            )
        if not 0 < p.delta <= 1:
            raise ValueError("policy.delta must lie in (0, 1]")
        if p.m != "auto" and (not isinstance(p.m, int) or p.m < 1):
            raise ValueError("policy.m must be 'auto' or a positive integer")
        if p.sampler not in Sampler.ALL:
            raise ValueError(f"policy.sampler must be one of {Sampler.ALL}")
        if p.family not in PerturbationFamily.ALL:
            raise ValueError(f"policy.family must be one of {PerturbationFamily.ALL}")
        if p.scale_mode not in SCALE_MODES:
            raise ValueError(f"policy.scale_mode must be one of {SCALE_MODES}")
        if p.scale_mode == "explicit" and p.scale < 0:
            raise ValueError("policy.scale must be non-negative")
        if p.lints_scale is not None and p.lints_scale < 0:
            raise ValueError("policy.lints_scale must be non-negative")
        if p.keying not in Keying.ALL:
            raise ValueError(f"policy.keying must be one of {Keying.ALL}")
        if r.horizon < 1:
            raise ValueError("run.horizon must be at least 1")
        if r.replications < 1:
            raise ValueError("run.replications must be at least 1")
        if r.diagnostics not in DIAGNOSTIC_LEVELS:
            raise ValueError(f"run.diagnostics must be one of {DIAGNOSTIC_LEVELS}")
        if r.workers < 1:
            raise ValueError("run.workers must be at least 1")
        if e.arm_mode == "explicit":
            if not e.arms:
                raise ValueError("explicit arm mode requires env.arms")
            if not e.theta_star:
                raise ValueError("explicit arm mode requires env.theta_star")
            if e.arm_count != len(e.arms):
                raise ValueError(
                    f"env.arm_count = {e.arm_count} but env.arms has {len(e.arms)} rows"
                )
            if any(len(row) != e.dim for row in e.arms):
                raise ValueError(f"every row of env.arms must have env.dim = {e.dim} entries")
            if len(e.theta_star) != e.dim:
                raise ValueError(
                    f"env.theta_star has {len(e.theta_star)} entries, env.dim is {e.dim}"
                )
            # the instance checks its own norms: arms in the unit ball and
            # ||theta_star|| <= s_bound
            LinearBanditEnv(e.arms, e.theta_star, NoiseModel(e.noise_family, e.sigma), e.s_bound)
        elif e.arms or e.theta_star:
            raise ValueError(
                "env.arms and env.theta_star need env.arm_mode = explicit; "
                "random arm mode draws its own instance"
            )
        if p.name == "ensemble" and p.sampler == Sampler.ROUND_ROBIN:
            m = self.resolved_ensemble_size()
            if m < r.horizon:
                raise ValueError(
                    f"round-robin sampling uses one model per step, but policy.m = {p.m} "
                    f"gives {m} models for run.horizon = {r.horizon} steps"
                )
        return self

    def reads(self, key: str) -> bool:
        """Whether a run of this experiment reads the ``[policy]`` field
        ``key``; a file that sets a field the run would ignore is rejected
        at load, and ``summary.json`` resolves ``m`` and the scale only
        where they are read."""
        p = self.policy
        scaled = p.name in ("ensemble", "phe") or (p.name == "lints" and p.lints_scale is None)
        rule = {
            "m": p.name == "ensemble",
            "sampler": p.name == "ensemble",
            "keying": p.name == "ensemble",
            "family": p.name in ("ensemble", "phe"),
            "scale_mode": scaled,
            "scale": scaled and p.scale_mode == "explicit",
            "lints_scale": p.name == "lints",
            "linucb_bonus": p.name == "linucb",
        }
        return rule.get(key, True)

    def confidence_params(self) -> ConfidenceParams:
        """Inputs to the confidence radii of this experiment; after
        :meth:`validate`, ``env.dim`` is the dimension of every arm."""
        e, p = self.env, self.policy
        return ConfidenceParams(
            sigma=e.sigma,
            lam=p.lam,
            s_bound=e.s_bound,
            dim=e.dim,
            horizon=self.run.horizon,
            delta=p.delta,
        )

    def resolved_ensemble_size(self) -> int:
        """Ensemble size a run uses: ``policy.m``, or for ``m = auto`` the
        size :func:`linens.perturb.ensemble_size` gives for this arm count,
        horizon and delta."""
        if self.policy.m != "auto":
            return int(self.policy.m)
        return ensemble_size(self.confidence_params(), self.env.arm_count)

    def perturbation_spec(self) -> PerturbationSpec:
        """Perturbation the policies draw: ``policy.family`` at
        ``policy.scale``, or for ``scale_mode = auto`` at the horizon-level
        confidence radius beta_T."""
        p = self.policy
        if p.scale_mode == "auto":
            params = self.confidence_params()
            return PerturbationSpec(p.family, beta(params, params.horizon))
        return PerturbationSpec(p.family, p.scale)

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_float(text: str) -> float:
    """A finite float: no run can use a NaN or an infinite setting."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_vectors(text: str) -> list:
    return [[_parse_float(v) for v in row.split()] for row in text.split(";") if row.strip()]


def _parse_vector(text: str) -> list:
    return [_parse_float(v) for v in text.split()]


#: Parser of an INI value by field type; the fields whose values are not a
#: plain scalar name their own.
_TYPE_PARSERS = {"int": int, "float": _parse_float, "float | None": _parse_float, "str": str}
_FIELD_PARSERS = {
    "arms": _parse_vectors,
    "theta_star": _parse_vector,
    "m": lambda text: "auto" if text == "auto" else int(text),
}

#: INI keys that differ from their field's name.
_INI_KEYS = {"lam": "lambda"}

def _read_section(section: configparser.SectionProxy, target) -> None:
    """Set each field of ``target`` that the section gives, in field order."""
    keys = {_INI_KEYS.get(f.name, f.name): f for f in fields(target)}
    unknown = set(section.keys()) - keys.keys()
    if unknown:
        raise ValueError(f"unknown keys in [{section.name}]: {sorted(unknown)}")
    for key, f in keys.items():
        if key in section:
            parse = _FIELD_PARSERS.get(f.name) or _TYPE_PARSERS[f.type]
            try:
                setattr(target, f.name, parse(section[key]))
            except ValueError as exc:
                raise ValueError(f"{section.name}.{key}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    extra_sections = set(parser.sections()) - {f.name for f in fields(ExperimentConfig)}
    if extra_sections:
        raise ValueError(f"unknown config sections: {sorted(extra_sections)}")

    cfg = ExperimentConfig()
    for name in parser.sections():
        _read_section(parser[name], getattr(cfg, name))
    e = cfg.env
    if e.arms:
        # the rows give the shape a file leaves out; validate() rejects a clash
        if "arm_count" not in parser["env"]:
            e.arm_count = len(e.arms)
        if "dim" not in parser["env"]:
            e.dim = len(e.arms[0])
    cfg.validate()
    if parser.has_section("policy"):
        for key in parser["policy"]:
            if not cfg.reads(key):
                raise ValueError(
                    f"this file sets policy.{key}, which policy.name = {cfg.policy.name} "
                    "does not read with the other [policy] settings: a run would ignore it"
                )
    return cfg
