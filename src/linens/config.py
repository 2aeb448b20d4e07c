"""Experiment configuration: INI-style files with [env], [policy], [run].

Each section's keys are the fields of its dataclass (``lambda`` for
``lam``), read by field type. A file that is not valid INI, unknown sections
or keys, and keys that the command would not read
(:meth:`ExperimentConfig.reads`, one rule for every command) are rejected so
that typos fail fast. :func:`load_config` finishes a config in one place: it
reads the file, sets the fields that a command's own arguments give, by
field name (no two sections share one), validates the result once, and
checks every given field against the command's rule once.
The config builds what a run is made of, its policy included
(:meth:`ExperimentConfig.build_policy`, beside ``reads``). Value ranges are
not restated here: :meth:`ExperimentConfig.validate` builds those objects,
and their constructors reject what cannot run, NaN and +/-inf included;
it checks only ``MAX_S_BOUND``, which no constructor owns, against S, the
horizon's confidence radius and the perturbation scale.
"""

from __future__ import annotations

import configparser
import math
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .envs import LinearBanditEnv, NoiseFamily, NoiseModel
from .perturb import ConfidenceParams, PerturbationFamily, PerturbationSpec, beta, ensemble_size
from .policies import EnsembleSampling, GreedyRidge, LinPHE, LinTS, LinUCB, Sampler

POLICY_NAMES = ("ensemble", "phe", "linucb", "lints", "greedy")
#: Policies that the paper's regret theorem covers; ``summary.json`` gives
#: ``theoretical_regret_bound`` for these and ``null`` for the others.
BOUNDED_POLICIES = ("ensemble", "phe")
DIAGNOSTIC_LEVELS = ("off", "monitors", "full-trace")
ARM_MODES = ("random", "explicit")
SCALE_MODES = ("auto", "explicit")

#: Largest ``env.s_bound``, horizon-level confidence radius and
#: perturbation scale accepted: a run squares each of them in its radii
#: and norms, and 1e150 leaves a factor of 1e8 below float64's largest
#: value for the horizon and the radii's factors.
MAX_S_BOUND = 1e150


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
    # every ensemble draws its reward perturbations by step, the one legal value
    keying: str = "by_step"
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
        """Check the settings that no object of a run owns, then build those
        objects (:meth:`confidence_params`, :meth:`perturbation_spec`,
        :meth:`environment` and, for one replication and one model,
        :meth:`build_policy`), whose constructors reject every value no run
        can use, NaN and +/-inf included. No constructor check reads the
        ensemble size, which the rules here check, so validation builds no
        ensemble at full size. Returns the config."""
        e, p, r = self.env, self.policy, self.run
        if e.arm_count < 1:
            raise ValueError("env.arm_count must be at least 1")
        if e.arm_mode not in ARM_MODES:
            raise ValueError(f"env.arm_mode must be one of {ARM_MODES}")
        if p.m != "auto" and (not isinstance(p.m, int) or p.m < 1):
            raise ValueError("policy.m must be 'auto' or a positive integer")
        if p.keying != "by_step":
            raise ValueError(f"policy.keying must be by_step, got {p.keying!r}")
        if p.scale_mode not in SCALE_MODES:
            raise ValueError(f"policy.scale_mode must be one of {SCALE_MODES}")
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
        elif e.arms or e.theta_star:
            raise ValueError(
                "env.arms and env.theta_star need env.arm_mode = explicit; "
                "random arm mode draws its own instance"
            )
        # a NaN fails this comparison and is left to ConfidenceParams
        if e.s_bound > MAX_S_BOUND:
            raise ValueError(f"env.s_bound must be at most {MAX_S_BOUND!r}, got {e.s_bound!r}")
        # the confidence parameters first: they check env.dim, which the
        # random instance divides by
        params = self.confidence_params()
        radius = beta(params, params.horizon)
        if radius > MAX_S_BOUND:
            raise ValueError(
                "the confidence radius at run.horizon, sqrt(policy.lambda) * env.s_bound plus "
                f"a term in env.sigma, must be at most {MAX_S_BOUND!r}, got {radius!r}"
            )
        scale = self.perturbation_spec().scale
        if self.reads("scale_mode") and scale > MAX_S_BOUND:
            raise ValueError(
                f"the perturbation scale must be at most {MAX_S_BOUND!r}, got {scale!r}"
            )
        self.environment()
        # any seed and one model will do: only the policy constructors'
        # checks matter here, and none of them reads the ensemble size
        replace(self, policy=replace(p, m=1)).build_policy([r.base_seed])
        if p.name == "ensemble" and p.sampler == Sampler.ROUND_ROBIN:
            m = self.resolved_ensemble_size()
            if m < r.horizon:
                raise ValueError(
                    f"round-robin sampling uses one model per step, but policy.m = {p.m} "
                    f"gives {m} models for run.horizon = {r.horizon} steps"
                )
        if p.lam < 1:
            warnings.warn(
                "policy.lambda < 1: the elliptical-potential monitor presumes "
                "lambda >= 1 and is disabled",
                stacklevel=2,
            )
        return self

    def reads(self, key: str, command: str = "run") -> bool:
        """Whether ``linens <command>`` on this experiment reads the field
        ``key``: the one rule for every section and every command. ``run``
        and ``sweep`` read the same fields, and only ``[policy]`` fields of
        the policy that :meth:`build_policy` builds can go unread, with
        ``delta`` read also by the monitors; ``rates`` always runs them, so
        it reads what a monitored run reads. ``equivalence`` runs its own
        round-robin ensemble at m = T, unmonitored, so it reads
        ``policy.name`` only as ``ensemble``, ``delta`` only in the auto
        scale, and never ``m``, ``sampler``, ``keying``, ``linucb_bonus`` or
        ``run.diagnostics``. :func:`load_config` rejects a file or setting
        that gives a field the command would ignore, and ``summary.json``
        resolves ``m`` and the scale only where they are read."""
        p = self.policy
        name = "ensemble" if command == "equivalence" else p.name
        scaled = name in ("ensemble", "phe", "lints")
        auto_scaled = scaled and p.scale_mode == "auto"
        rule = {
            "m": name == "ensemble",
            "sampler": name == "ensemble",
            "keying": name == "ensemble",
            "family": name in ("ensemble", "phe"),
            "scale_mode": scaled,
            "scale": scaled and p.scale_mode == "explicit",
            "linucb_bonus": name == "linucb",
            # the regret bound, LinUCB's radius, the auto scale and the
            # monitors' radii, which rates always runs
            "delta": (
                name in BOUNDED_POLICIES
                or (name == "linucb" and p.linucb_bonus is None)
                or auto_scaled
                or command == "rates"
                or self.run.diagnostics != "off"
            ),
        }
        if command == "equivalence":
            unread = dict.fromkeys(("m", "sampler", "keying", "diagnostics"), False)
            rule.update(unread, name=p.name == "ensemble", delta=auto_scaled)
        return rule.get(key, True)

    def build_policy(self, seeds: list[int]):
        """The configured policy for a batch of replications stepped in
        lockstep, one seed per replication; it reads the ``[policy]`` fields
        that :meth:`reads` names."""
        p = self.policy
        dim = self.env.dim
        batch = len(seeds)
        spec = self.perturbation_spec()
        if p.name == "ensemble":
            return EnsembleSampling(
                dim,
                p.lam,
                self.resolved_ensemble_size(),
                spec,
                seeds,
                sampler=p.sampler,
            )
        if p.name == "phe":
            return LinPHE(dim, p.lam, spec, seeds)
        if p.name == "linucb":
            if p.linucb_bonus is not None:
                return LinUCB(dim, p.lam, bonus=p.linucb_bonus, batch=batch)
            return LinUCB(dim, p.lam, params=self.confidence_params(), batch=batch)
        if p.name == "lints":
            return LinTS(dim, p.lam, spec.scale, seeds)
        if p.name == "greedy":
            return GreedyRidge(dim, p.lam, batch=batch)
        raise ValueError(f"policy.name must be one of {POLICY_NAMES}, got {p.name!r}")

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

    def environment(self, seeds=None) -> LinearBanditEnv:
        """The instance a run plays, and the only place one is built: the
        explicit ``env.arms`` and ``env.theta_star``, or random instances
        (:meth:`LinearBanditEnv.random`). Without ``seeds`` that is the one
        instance of ``run.base_seed`` that every replication shares; with a
        sequence of R seeds it is R stacked ones, one per seed, which
        ``equivalence`` asks for with each batch's replication seeds."""
        e = self.env
        noise = NoiseModel(e.noise_family, e.sigma)
        if e.arm_mode == "explicit":
            return LinearBanditEnv(e.arms, e.theta_star, noise, e.s_bound)
        seeds = self.run.base_seed if seeds is None else seeds
        return LinearBanditEnv.random(e.dim, e.arm_count, noise, e.s_bound, seeds)

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


def load_config(path: str | Path, command: str = "run", **settings) -> ExperimentConfig:
    """Parse an experiment configuration file for ``linens <command>``, set
    the fields that ``settings`` names (the command's own arguments, such as
    ``base_seed=3``), validate the result once, and then reject every field
    that the file or a setting gives and the command would not read
    (:meth:`ExperimentConfig.reads`), and a ``run.diagnostics = off`` given
    to ``rates``, which always runs the monitors. The settings replace the
    file's values after the explicit rows give the arm shape a file leaves
    out, so a setting that clashes with the rows is rejected as a file's
    would be."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        # some of configparser's messages span lines; a rejection is one line
        raise ValueError(f"malformed config file {path}: {' '.join(str(exc).split())}") from None
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
    # no two sections share a field name, so a setting names its field
    section_of = {f.name: s.name for s in fields(cfg) for f in fields(getattr(cfg, s.name))}
    for name, value in settings.items():
        setattr(getattr(cfg, section_of[name]), name, value)
    cfg.validate()
    keys = [key for section in parser.sections() for key in parser[section]]
    # a value rule: rates reports the monitors' rates, so it always runs them
    if command == "rates" and "diagnostics" in keys and cfg.run.diagnostics == "off":
        raise ValueError(
            "this file sets run.diagnostics = off, but linens rates reports the monitors' "
            "rates: set monitors or full-trace"
        )
    field_of = {key: name for name, key in _INI_KEYS.items()}
    ignored = " with the other settings: a run would ignore it"
    given = [
        *((field_of.get(key, key), "this file sets", ignored) for key in keys),
        *((name, f"{command} varies", "") for name in settings),
    ]
    for name, source, tail in given:
        if cfg.reads(name, command):
            continue
        if cfg.reads(name):  # a run would read it; this command does not
            section = section_of[name]
            value = getattr(getattr(cfg, section), name)
            raise ValueError(
                f"{source} {section}.{name} = {value}, which linens {command} does not read"
            )
        raise ValueError(
            f"{source} policy.{name}, which policy.name = {cfg.policy.name} does not read{tail}"
        )
    return cfg
