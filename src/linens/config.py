"""Experiment configuration: INI-style files with [env], [policy], [run].

Unknown sections or keys are rejected so that typos fail fast.
"""

from __future__ import annotations

import configparser
import warnings
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .envs import NoiseFamily
from .perturb import Keying, PerturbationFamily
from .policies import Sampler

POLICY_NAMES = ("ensemble", "phe", "linucb", "lints", "greedy")
DIAGNOSTIC_LEVELS = ("off", "monitors", "full-trace")
ARM_MODES = ("random", "explicit")
SCALE_MODES = ("auto", "explicit")

_ENV_KEYS = {
    "dim", "arm_count", "arm_mode", "arms", "theta_star",
    "sigma", "noise_family", "s_bound",
}
_POLICY_KEYS = {
    "name", "lambda", "delta", "m", "sampler", "family",
    "scale_mode", "scale", "keying", "lints_scale", "linucb_bonus",
}
_RUN_KEYS = {
    "horizon", "replications", "base_seed", "diagnostics", "out_dir", "workers",
}


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
        return self

    def to_dict(self) -> dict:
        return asdict(self)


def _parse_vectors(text: str) -> list:
    return [[float(v) for v in row.split()] for row in text.split(";") if row.strip()]


def _parse_vector(text: str) -> list:
    return [float(v) for v in text.split()]


def _reject_unknown(section: str, keys, allowed) -> None:
    unknown = set(keys) - allowed
    if unknown:
        raise ValueError(f"unknown keys in [{section}]: {sorted(unknown)}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    extra_sections = set(parser.sections()) - {"env", "policy", "run"}
    if extra_sections:
        raise ValueError(f"unknown config sections: {sorted(extra_sections)}")

    cfg = ExperimentConfig()
    if parser.has_section("env"):
        sec = parser["env"]
        _reject_unknown("env", sec.keys(), _ENV_KEYS)
        e = cfg.env
        e.dim = sec.getint("dim", e.dim)
        e.arm_count = sec.getint("arm_count", e.arm_count)
        e.arm_mode = sec.get("arm_mode", e.arm_mode)
        if "arms" in sec:
            e.arms = _parse_vectors(sec["arms"])
            e.arm_count = len(e.arms)
            e.dim = len(e.arms[0])
        if "theta_star" in sec:
            e.theta_star = _parse_vector(sec["theta_star"])
        e.sigma = sec.getfloat("sigma", e.sigma)
        e.noise_family = sec.get("noise_family", e.noise_family)
        e.s_bound = sec.getfloat("s_bound", e.s_bound)

    if parser.has_section("policy"):
        sec = parser["policy"]
        _reject_unknown("policy", sec.keys(), _POLICY_KEYS)
        p = cfg.policy
        p.name = sec.get("name", p.name)
        p.lam = sec.getfloat("lambda", p.lam)
        p.delta = sec.getfloat("delta", p.delta)
        if "m" in sec:
            raw = sec["m"].strip()
            p.m = "auto" if raw == "auto" else int(raw)
        p.sampler = sec.get("sampler", p.sampler)
        p.family = sec.get("family", p.family)
        p.scale_mode = sec.get("scale_mode", p.scale_mode)
        p.scale = sec.getfloat("scale", p.scale)
        p.keying = sec.get("keying", p.keying)
        if "lints_scale" in sec:
            p.lints_scale = sec.getfloat("lints_scale")
        if "linucb_bonus" in sec:
            p.linucb_bonus = sec.getfloat("linucb_bonus")

    if parser.has_section("run"):
        sec = parser["run"]
        _reject_unknown("run", sec.keys(), _RUN_KEYS)
        r = cfg.run
        r.horizon = sec.getint("horizon", r.horizon)
        r.replications = sec.getint("replications", r.replications)
        r.base_seed = sec.getint("base_seed", r.base_seed)
        r.diagnostics = sec.get("diagnostics", r.diagnostics)
        r.out_dir = sec.get("out_dir", r.out_dir)
        r.workers = sec.getint("workers", r.workers)

    return cfg.validate()
