import configparser
import copy
import ctypes
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import linens
from linens import cli, harness, perturb
from linens.config import (
    MAX_S_BOUND,
    POLICY_NAMES,
    ExperimentConfig,
    PolicyConfig,
    load_config,
)
from linens.harness import (
    BATCH_SIZE,
    FLAG_COLUMNS,
    STORED_COLUMNS,
    TRACE_COLUMNS,
    WRITE_ROWS,
    RunRecord,
    _equivalence_batch,
    _float_texts,
    _quantile,
    _row_texts,
    _tally,
    aggregate,
    checkpoints,
    derived_rows,
    emit_outputs,
    estimate_event_rates,
    interact,
    monitor_report,
    replication_seeds,
    run_equivalence_suite,
    run_batch,
    run_replications,
    summarize,
)
from linens.diagnostics import StepMonitor, theoretical_regret_bound
from linens.linalg import MIN_LAMBDA
from linens.perturb import PerturbationFamily, beta, ensemble_size, gamma, p_n
from linens.policies import EnsembleSampling, GreedyRidge, LinPHE, LinTS, LinUCB, Selection

BASE_INI = """\
[env]
dim = 2
arm_count = 4
sigma = 0.5

[policy]
name = ensemble
m = 4
delta = 0.1

[run]
horizon = 30
replications = 2
base_seed = 11
"""


#: ``BASE_INI`` as ``linens equivalence`` reads it: the suite runs its own
#: horizon-sized ensemble, so a file for it sets no ``m``.
EQUIVALENCE_INI = BASE_INI.replace("m = 4\n", "")


def write_cfg(tmp_path, text=BASE_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


EXPLICIT_INI = """\
[env]
arms = 1 0; 0 1; 0.6 0.6
theta_star = 0.9 0.3
sigma = 0

[policy]
name = greedy

[run]
horizon = 5
"""


#: Files that no run can use, each rejected at load: (file text, what the
#: message says). Non-finite floats name their key; an explicit instance
#: names the norm check it fails; a file configparser cannot read is named.
LOAD_REJECTIONS = {
    "sigma-nan": (BASE_INI.replace("sigma = 0.5", "sigma = nan"), "env.sigma: 'nan' is not"),
    "sigma-inf": (BASE_INI.replace("sigma = 0.5", "sigma = inf"), "env.sigma: 'inf' is not"),
    "s-bound-nan": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = nan"),
        "env.s_bound: 'nan' is not",
    ),
    "lambda-nan": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nlambda = nan"),
        "policy.lambda: 'nan' is not",
    ),
    "lambda-below-its-floor": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nlambda = 1e-16"),
        "lam must be at least 1e-12 and finite, got 1e-16",
    ),
    "lints-scale-negative": (
        BASE_INI.replace(
            "name = ensemble\nm = 4", "name = lints\nscale_mode = explicit\nscale = -0.5"
        ),
        "scale must be non-negative and finite, got -0.5",
    ),
    "linucb-bonus-negative": (
        BASE_INI.replace("name = ensemble\nm = 4", "name = linucb\nlinucb_bonus = -5"),
        "bonus must be non-negative and finite, got -5.0",
    ),
    "arm-nan": (EXPLICIT_INI.replace("arms = 1 0;", "arms = nan 0;"), "env.arms: 'nan' is not"),
    # the given rows are the instance; no key names its mode
    "arm-mode": (
        EXPLICIT_INI.replace("[env]\n", "[env]\narm_mode = explicit\n"),
        r"unknown keys in \[env\]: \['arm_mode'\]",
    ),
    "arm-norm-2": (
        EXPLICIT_INI.replace("arms = 1 0;", "arms = 2 0;"),
        r"every arm must satisfy \|\|x\|\| <= 1",
    ),
    "theta-star-past-s-bound": (
        EXPLICIT_INI.replace("sigma = 0", "sigma = 0\ns_bound = 0.5"),
        r"\|\|theta_star\|\| must not exceed",
    ),
    "s-bound-just-past-its-cap": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1.0000000000000002e150"),
        r"env\.s_bound must be at most 1e\+150, got 1\.0000000000000002e\+150",
    ),
    "s-bound-1e170": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1e170"),
        r"env\.s_bound must be at most 1e\+150, got 1e\+170",
    ),
    "s-bound-1e300": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1e300"),
        r"env\.s_bound must be at most 1e\+150, got 1e\+300",
    ),
    "radius-just-past-its-cap": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1e100").replace(
            "delta = 0.1", "delta = 0.1\nlambda = 1e100"
        ),
        r"radius at run\.horizon, .* must be at most 1e\+150, got 1\.0000000000000002e\+150",
    ),
    "radius-lambda-1e8-s-bound-1e150": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1e150").replace(
            "delta = 0.1", "delta = 0.1\nlambda = 1e8"
        ),
        r"radius at run\.horizon, .* must be at most 1e\+150, got 1e\+154",
    ),
    "radius-lambda-1e200-s-bound-1e60": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ns_bound = 1e60").replace(
            "delta = 0.1", "delta = 0.1\nlambda = 1e200"
        ),
        r"radius at run\.horizon, .* must be at most 1e\+150, got 1e\+160",
    ),
    "radius-sigma-1e155": (
        BASE_INI.replace("sigma = 0.5", "sigma = 1e155"),
        r"radius at run\.horizon, .* must be at most 1e\+150, got \d\.\d+e\+155",
    ),
    "phe-scale-1e155": (
        BASE_INI.replace("name = ensemble\nm = 4", "name = phe\nscale_mode = explicit\nscale = 1e155"),
        r"the perturbation scale must be at most 1e\+150, got 1e\+155",
    ),
    # every ensemble draws its reward perturbations by step, and the one
    # legal keying is spelt as written
    "keying-by-arm-count": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nkeying = by_arm_count"),
        r"policy\.keying must be by_step, got 'by_arm_count'",
    ),
    "keying-upper-case": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nkeying = BY_STEP"),
        r"policy\.keying must be by_step, got 'BY_STEP'",
    ),
    "keying-hyphenated": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nkeying = by-step"),
        r"policy\.keying must be by_step, got 'by-step'",
    ),
    "keying-empty": (
        BASE_INI.replace("delta = 0.1", "delta = 0.1\nkeying ="),
        r"policy\.keying must be by_step, got ''",
    ),
    "theta-star-entries-1e200": (
        EXPLICIT_INI.replace("theta_star = 0.9 0.3", "theta_star = 1e200 1e200"),
        r"\|\|theta_star\|\| must not exceed param_bound, got 1\.41421356\d*e\+200",
    ),
    "theta-star-norm-past-float64": (
        EXPLICIT_INI.replace("theta_star = 0.9 0.3", "theta_star = 1.7e308 1.7e308"),
        r"\|\|theta_star\|\| must not exceed param_bound, got inf",
    ),
    "arm-entry-1e200": (
        EXPLICIT_INI.replace("arms = 1 0;", "arms = 1e200 0;"),
        r"every arm must satisfy \|\|x\|\| <= 1, got \|\|x\|\| = 1e\+200",
    ),
    "duplicate-key": (
        BASE_INI.replace("sigma = 0.5", "sigma = 0.5\nsigma = 0.7"),
        r"malformed config file .*exp\.ini.*option 'sigma' in section 'env' already exists",
    ),
    "duplicate-section": (
        BASE_INI + "\n[env]\ndim = 3\n",
        r"malformed config file .*section 'env' already exists",
    ),
    "no-section-header": (
        "sigma = 0.5\n" + BASE_INI,
        r"malformed config file .*no section headers",
    ),
    "key-without-value": (
        BASE_INI.replace("sigma = 0.5", "sigma"),
        r"malformed config file .*parsing errors.*'sigma\\n'",
    ),
}


#: ``PerturbationSpec``'s rejection, which LinTS's scale reaches at load.
NEGATIVE_SCALE = "scale must be non-negative"

#: ``small_cfg`` settings of a valid explicit instance with one arm.
ONE_EXPLICIT_ARM = {
    "env__arm_count": 1,
    "env__arms": [[1.0, 0.0]],
    "env__theta_star": [0.5, 0.0],
}


#: ``small_cfg`` settings of ``configs/explicit.ini``'s instance, whose four
#: arms span the plane.
SPANNING_ARMS = {
    "env__arms": [[1.0, 0.0], [0.0, 1.0], [0.6, 0.6], [-0.5, 0.5]],
    "env__theta_star": [0.9, 0.3],
}


def run_one(cfg: ExperimentConfig, replication: int):
    """One replication, run as a batch of one: every array has one row."""
    return run_batch(cfg, range(replication, replication + 1))


def rows_of(cfg: ExperimentConfig, rec: RunRecord, i: int) -> dict:
    """The float trace rows that ``trace.csv`` writes for row i of ``rec``
    (:func:`derived_rows`)."""
    seed = replication_seeds(cfg, rec.replications)[i]
    return derived_rows(cfg.environment(), seed, rec.columns["arm"][i])


def same_columns(a, b) -> bool:
    return a.columns.keys() == b.columns.keys() and all(
        np.array_equal(a.columns[k], b.columns[k]) for k in a.columns
    )


def small_cfg(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.env.dim = 2
    cfg.env.arm_count = 4
    cfg.env.sigma = 0.5
    cfg.policy.m = 4
    cfg.run.horizon = 30
    cfg.run.replications = 2
    cfg.run.base_seed = 11
    for key, value in overrides.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, value)
    return cfg.validate()


#: The policies, as the [policy] settings that choose them.
POLICY_SETTINGS = {
    "ensemble": {"name": "ensemble"},
    "phe": {"name": "phe"},
    "linucb": {"name": "linucb"},
    "lints": {"name": "lints"},
    "greedy": {"name": "greedy"},
}

#: Each [policy] field but the name, a value other than ``small_cfg``'s, and
#: the other settings it is varied under.
POLICY_VARIATIONS = [
    ("lam", 2.0, {}),
    ("delta", 1.0, {}),
    ("delta", 1.0, {"scale_mode": "explicit"}),
    ("delta", 1.0, {"linucb_bonus": 0.3}),
    ("m", 5, {}),
    ("sampler", "round_robin", {"m": 10}),
    ("family", "uniform", {}),
    ("scale_mode", "explicit", {}),
    ("scale", 0.3, {}),
    ("scale", 0.3, {"scale_mode": "explicit"}),
    ("scale_mode", "auto", {"scale_mode": "explicit"}),
    ("linucb_bonus", 0.3, {}),
]


def run_to(cfg: ExperimentConfig) -> tuple[list, dict]:
    """A run through ``run``'s one path (:func:`emit_outputs` over
    :func:`run_replications`) into a temporary directory: the batch
    records it wrote, in order, and its ``summary.json`` as read back."""
    records = list(run_replications(cfg, range(cfg.run.replications)))
    with tempfile.TemporaryDirectory() as out:
        _, summary_path = emit_outputs(records, cfg, out)
        return records, json.loads(summary_path.read_text())


def run_outputs(cfg: ExperimentConfig) -> tuple:
    """What ``trace.csv`` and ``summary.json`` record of a run, but the
    config echo and ``resolved_m``/``resolved_scale``, which are reported
    where ``ExperimentConfig.reads`` says and so would echo that rule."""
    records, summary = run_to(cfg)
    for key in ("config", "resolved_m", "resolved_scale"):
        del summary[key]
    columns = [col.tobytes() for rec in records for col in rec.columns.values()]
    return columns, json.dumps(summary, sort_keys=True)


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path))
        assert cfg.env.dim == 2
        assert cfg.env.sigma == 0.5
        assert cfg.policy.name == "ensemble"
        assert cfg.policy.m == 4
        assert cfg.run.horizon == 30
        assert cfg.run.base_seed == 11
        # defaults survive
        assert cfg.policy.lam == 1.0
        assert cfg.run.diagnostics == "off"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE_INI + "\n[extra]\nfoo = 1\n")
        with pytest.raises(ValueError, match="unknown config sections"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, BASE_INI.replace("sigma = 0.5", "sigma = 0.5\ntypo = 3"))
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(path)

    def test_explicit_arms(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, EXPLICIT_INI))
        assert cfg.env.arm_count == 3
        assert cfg.env.dim == 2
        assert cfg.env.arms[2] == [0.6, 0.6]
        env = cfg.environment()
        assert env.optimal_arm_index == 0

    def test_explicit_arm_count_must_match_the_rows(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, EXPLICIT_INI))
        cfg.env.arm_count = 4
        with pytest.raises(ValueError, match="arm_count = 4 but env.arms has 3 rows"):
            cfg.validate()

    def test_explicit_arm_rows_must_have_dim_entries(self, tmp_path):
        text = EXPLICIT_INI.replace("arms = 1 0; 0 1;", "arms = 1 0; 0 1 0;")
        with pytest.raises(ValueError, match="every row of env.arms"):
            load_config(write_cfg(tmp_path, text))

    def test_explicit_theta_star_must_have_dim_entries(self, tmp_path):
        text = EXPLICIT_INI.replace("theta_star = 0.9 0.3", "theta_star = 0.9 0.3 0.1")
        message = r"must match the arms: theta_star has shape \(3,\), arms \(3, 2\)"
        with pytest.raises(ValueError, match=message):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "text",
        [
            EXPLICIT_INI.replace("theta_star = 0.9 0.3\n", ""),
            "[env]\ntheta_star = 0.9 0.3\n",
        ],
        ids=["arms-without-theta-star", "theta-star-without-arms"],
    )
    def test_arms_and_theta_star_come_together(self, tmp_path, text):
        # half an instance cannot run, and a random one would replace it
        with pytest.raises(ValueError, match="env.arms and env.theta_star come together"):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "shape,message",
        [
            ("dim = 3", "every row of env.arms must have env.dim = 3"),
            ("arm_count = 5", "arm_count = 5 but env.arms has 3 rows"),
        ],
        ids=["dim", "arm-count"],
    )
    def test_explicit_arm_shape_given_in_the_file_must_match_the_rows(
        self, tmp_path, shape, message
    ):
        # the rows fill in dim and arm_count only where the file leaves them out
        text = EXPLICIT_INI.replace("[env]\n", f"[env]\n{shape}\n")
        with pytest.raises(ValueError, match=message):
            load_config(write_cfg(tmp_path, text))

    def test_explicit_arm_shape_that_matches_the_rows_loads(self, tmp_path):
        text = EXPLICIT_INI.replace("[env]\n", "[env]\ndim = 2\narm_count = 3\n")
        assert load_config(write_cfg(tmp_path, text)) == load_config(
            write_cfg(tmp_path, EXPLICIT_INI, "plain.ini")
        )

    def test_every_field_is_read_from_its_key(self, tmp_path):
        # every key an ensemble reads; the keys of other policies follow
        text = """\
[env]
dim = 3
arm_count = 7
sigma = 0.25
noise_family = uniform
s_bound = 2.5

[policy]
name = ensemble
lambda = 2.0
delta = 0.3
m = 9
sampler = round_robin
family = rademacher
scale_mode = explicit
scale = 0.75
keying = by_step

[run]
horizon = 8
replications = 3
base_seed = 17
diagnostics = full-trace
out_dir = elsewhere
workers = 2
"""
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.to_dict() == {
            "env": {
                "dim": 3, "arm_count": 7, "arms": [], "theta_star": [], "sigma": 0.25,
                "noise_family": "uniform", "s_bound": 2.5,
            },
            "policy": {
                "name": "ensemble", "lam": 2.0, "delta": 0.3, "m": 9, "sampler": "round_robin",
                "family": "rademacher", "scale_mode": "explicit", "scale": 0.75,
                "keying": "by_step", "linucb_bonus": None,
            },
            "run": {
                "horizon": 8, "replications": 3, "base_seed": 17,
                "diagnostics": "full-trace", "out_dir": "elsewhere", "workers": 2,
            },
        }

    @pytest.mark.parametrize(
        "policy,key,value",
        [
            ("ensemble", "keying = by_step", "by_step"),
            ("lints", "scale = 0.5\nscale_mode = explicit", 0.5),
            ("linucb", "linucb_bonus = 1.5", 1.5),
            ("phe", "family = uniform", "uniform"),
            ("lints", "scale_mode = explicit", "explicit"),
        ],
    )
    def test_policy_only_fields_are_read_for_their_policy(self, tmp_path, policy, key, value):
        text = f"[policy]\nname = {policy}\n{key}\n"
        field = key.partition(" ")[0]
        assert getattr(load_config(write_cfg(tmp_path, text)).policy, field) == value

    @pytest.mark.parametrize(
        "policy,key",
        [
            ("phe", "m = 9"),
            ("lints", "m = auto"),  # set to its default, still set
            ("linucb", "sampler = round_robin"),
            ("greedy", "sampler = uniform"),
            ("lints", "keying = by_step"),
            ("greedy", "keying = by_step"),
            ("ensemble", "linucb_bonus = 0.5"),
            ("phe", "linucb_bonus = 1.5"),
            ("linucb", "family = rademacher"),
            ("greedy", "scale = 2.0"),
            ("lints", "family = gaussian"),  # lints samples gaussian whatever it says
            ("linucb", "scale_mode = auto"),
            ("phe", "keying = by_step"),  # a perturbed history has no ensemble to key
            ("lints", "scale_mode = explicit\nscale = 0.5\nkeying = by_step"),
            ("lints", "scale_mode = explicit\nscale = 0.5\nfamily = gaussian"),
            ("lints", "scale = 0.5"),  # under scale_mode = auto
            ("ensemble", "scale_mode = auto\nscale = 0.5"),
        ],
    )
    def test_policy_keys_the_policy_never_reads_are_rejected(self, tmp_path, policy, key):
        # a run would ignore them silently; the last line sets the ignored key
        text = f"[policy]\nname = {policy}\n{key}\n"
        field = key.splitlines()[-1].partition(" ")[0]
        message = f"policy.{field}, which policy.name = {policy} does not read"
        with pytest.raises(ValueError, match=message):
            load_config(write_cfg(tmp_path, text))

    @pytest.mark.parametrize(
        "field,value,settings",
        POLICY_VARIATIONS,
        ids=["-".join([f, *(f"{k}={v}" for k, v in s.items())]) for f, _, s in POLICY_VARIATIONS],
    )
    @pytest.mark.parametrize("policy", sorted(POLICY_SETTINGS))
    @pytest.mark.parametrize("diagnostics", ["off", "monitors"])
    def test_a_policy_field_changes_the_outputs_exactly_where_it_is_read(
        self, diagnostics, policy, field, value, settings
    ):
        # the rule of ExperimentConfig.reads, run: another value of a field
        # that is read changes trace.csv or summary.json (the config echo
        # aside), and another value of a field that is not read changes
        # neither. The monitors read delta in their concentration radius;
        # at sigma = 3 a ridge estimate leaves the delta = 1 radius on a
        # step where it stays inside the delta = 0.1 one, so a monitored
        # greedy run, which reads delta nowhere else, shows it in conc_ok.
        # The instance is fixed: on arms near one line through the origin
        # a greedy choice is the sign of the estimate along it, which lambda
        # only scales, and random instances can be drawn so
        settings = {**POLICY_SETTINGS[policy], **settings}
        overrides = {f"policy__{key}": v for key, v in settings.items()}
        base = small_cfg(
            env__sigma=3.0,
            run__horizon=10,
            run__replications=4,
            run__diagnostics=diagnostics,
            **SPANNING_ARMS,
            **overrides,
        )
        varied = copy.deepcopy(base)
        setattr(varied.policy, field, value)
        assert getattr(varied.policy, field) != getattr(base.policy, field)
        changed = run_outputs(varied.validate()) != run_outputs(base)
        assert changed == varied.reads(field)

    @pytest.mark.parametrize("field,value,settings", [*POLICY_VARIATIONS, ("name", "phe", {})])
    def test_a_policy_field_changes_the_equivalence_arms_exactly_where_it_is_read(
        self, field, value, settings
    ):
        # the rule of ExperimentConfig.reads, equivalence: on name = ensemble,
        # another value of a field that the suite reads changes the arm
        # sequences of its two policies, and another value of one it does
        # not read (the name among them) changes neither. A field that
        # moves the scale a little flips few arms, hence 16 seeds
        overrides = {f"policy__{key}": v for key, v in settings.items()}
        base = small_cfg(run__horizon=10, **overrides)
        varied = copy.deepcopy(base)
        setattr(varied.policy, field, value)
        assert getattr(varied.policy, field) != getattr(base.policy, field)
        varied.validate()
        arms = [np.stack(_equivalence_batch(c, False, range(16))) for c in (varied, base)]
        assert (not np.array_equal(*arms)) == varied.reads(field, "equivalence")

    @pytest.mark.parametrize("diagnostics", ["off", "monitors"])
    @pytest.mark.parametrize("policy", sorted(POLICY_SETTINGS))
    def test_rates_and_sweep_read_what_run_reads(self, policy, diagnostics):
        # sweep runs what run runs; rates always runs the monitors, so it
        # reads what a monitored run reads
        overrides = {f"policy__{k}": v for k, v in POLICY_SETTINGS[policy].items()}
        cfg = small_cfg(run__diagnostics=diagnostics, **overrides)
        monitored = small_cfg(run__diagnostics="monitors", **overrides)
        for section in fields(cfg):
            for f in fields(getattr(cfg, section.name)):
                assert cfg.reads(f.name, "sweep") == cfg.reads(f.name)
                assert cfg.reads(f.name, "rates") == monitored.reads(f.name)

    def test_every_policy_field_is_varied(self):
        # keying has one legal value, by_step, so there is no other to vary to
        varied = {field for field, _, _ in POLICY_VARIATIONS}
        assert varied == {f.name for f in fields(PolicyConfig)} - {"name", "keying"}

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("delta = 0.1", "delta = 0", "delta"),
            ("delta = 0.1", "delta = 1.5", "delta"),
            ("name = ensemble", "name = bogus", "policy.name"),
            ("m = 4", "m = 0", "policy.m"),
            ("sigma = 0.5", "sigma = -1", "sigma"),
            ("sigma = 0.5", "sigma = 0.5\ns_bound = 0", "s_bound"),
            ("sigma = 0.5", "sigma = 0.5\nnoise_family = laplace", "family"),
            ("dim = 2", "dim = 0", "dim"),
            ("delta = 0.1", "delta = 0.1\nlambda = 0", "lam"),
            ("delta = 0.1", "delta = 0.1\nfamily = cauchy", "family"),
            ("delta = 0.1", "delta = 0.1\nscale_mode = explicit\nscale = -1", "scale"),
            ("horizon = 30", "horizon = 0", "horizon"),
        ],
    )
    def test_invalid_values(self, tmp_path, key, value, message):
        path = write_cfg(tmp_path, BASE_INI.replace(key, value))
        with pytest.raises(ValueError, match=message):
            load_config(path)

    @pytest.mark.parametrize(
        "settings,message",
        [
            ({"env__dim": 0}, "dim"),
            ({"env__sigma": -1.0}, "sigma"),
            ({"env__sigma": math.nan}, "sigma"),
            ({"env__s_bound": 0.0}, "s_bound"),
            ({"env__s_bound": math.nan}, "s_bound"),
            ({"env__noise_family": "laplace"}, "family"),
            ({"policy__lam": 0.0}, "lam"),
            ({"policy__lam": math.nan}, "lam"),
            ({"policy__delta": 2.0}, "delta"),
            ({"policy__delta": math.nan}, "delta"),
            ({"policy__family": "cauchy"}, "family"),
            ({"policy__scale_mode": "explicit", "policy__scale": -1.0}, "scale"),
            ({"policy__scale_mode": "explicit", "policy__scale": math.nan}, "scale"),
            (
                dict(policy__name="lints", policy__scale_mode="explicit", policy__scale=math.nan),
                NEGATIVE_SCALE,
            ),
            (
                dict(policy__name="lints", policy__scale_mode="explicit", policy__scale=-0.5),
                NEGATIVE_SCALE,
            ),
            ({"policy__name": "linucb", "policy__linucb_bonus": math.nan}, "bonus"),
            ({"policy__name": "linucb", "policy__linucb_bonus": math.inf}, "bonus"),
            ({"policy__name": "linucb", "policy__linucb_bonus": -1.0}, "bonus"),
            ({"policy__name": "bogus"}, "policy.name"),
            ({"policy__sampler": "bogus"}, "sampler"),
            ({"policy__keying": "bogus"}, "keying"),
            ({"run__horizon": 0}, "horizon"),
            ({**ONE_EXPLICIT_ARM, "env__arms": [[2.0, 0.0]]}, r"\|\|x\|\|"),
            ({**ONE_EXPLICIT_ARM, "env__arms": [[math.nan, 0.0]]}, r"\|\|x\|\|"),
            ({**ONE_EXPLICIT_ARM, "env__theta_star": [2.0, 0.0]}, "theta_star"),
            ({**ONE_EXPLICIT_ARM, "env__theta_star": [math.nan, 0.0]}, "theta_star"),
        ],
    )
    def test_validate_rejects_what_no_run_can_use(self, settings, message):
        # the objects a run is built from own these rules; a config made in
        # Python, where no INI parser rejects NaN, must meet them as well
        cfg = small_cfg()
        for key, value in settings.items():
            section, attr = key.split("__")
            setattr(getattr(cfg, section), attr, value)
        with pytest.raises(ValueError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("case", sorted(LOAD_REJECTIONS))
    def test_a_file_that_cannot_run_is_rejected_at_load(self, tmp_path, case):
        text, message = LOAD_REJECTIONS[case]
        with pytest.raises(ValueError, match=message):
            load_config(write_cfg(tmp_path, text))

    def test_the_largest_s_bound_completes_a_monitored_run(self, tmp_path):
        # one past it is rejected (LOAD_REJECTIONS); at it, run and rates
        # finish with no overflow warning, which the suite makes an error
        text = BASE_INI.replace("sigma = 0.5", f"sigma = 0.5\ns_bound = {MAX_S_BOUND!r}")
        text = text.replace("horizon = 30", "horizon = 30\ndiagnostics = full-trace")
        cfg = load_config(write_cfg(tmp_path, text))
        assert cfg.env.s_bound == MAX_S_BOUND == 1e150
        _, summary = run_to(cfg)
        assert np.isfinite([cp[q] for cp in summary["checkpoints"] for q in ("mean", "q90")]).all()
        assert estimate_event_rates(cfg)["total_checks"] == 60

    @pytest.mark.parametrize(
        "line,setting",
        [("delta = 0.1", "delta = 0.1\nlambda = 1e300"), ("sigma = 0.5", "sigma = 1e140")],
        ids=["lambda-1e300", "sigma-1e140"],
    )
    def test_a_radius_within_the_cap_completes_a_monitored_run(self, tmp_path, line, setting):
        # sqrt(1e300) * S = 1 is the cap itself; sigma = 1e140 stays below it
        text = BASE_INI.replace(line, setting)
        text = text.replace("horizon = 30", "horizon = 30\ndiagnostics = full-trace")
        cfg = load_config(write_cfg(tmp_path, text))
        params = cfg.confidence_params()
        assert beta(params, params.horizon) <= MAX_S_BOUND
        _, summary = run_to(cfg)
        assert np.isfinite([cp[q] for cp in summary["checkpoints"] for q in ("mean", "q90")]).all()

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_policy_runs_at_the_lambda_floor_and_loads_none_below(self, tmp_path, name):
        # far below the floor the maintained inverse breaks: phe and lints
        # cannot factor it at 1e-16, and every update overflows at 1e-300
        for lam in ("1e-16", "1e-300"):
            text = BASE_INI.replace("name = ensemble\nm = 4", f"name = {name}\nlambda = {lam}")
            with pytest.raises(ValueError, match=f"lam must be at least {MIN_LAMBDA} and finite"):
                load_config(write_cfg(tmp_path, text))
        # the suite's warning filter raises a run's RuntimeWarning
        for dim in (2, 8):
            with pytest.warns(UserWarning, match="policy.lambda < 1"):
                cfg = small_cfg(
                    policy__name=name,
                    policy__lam=MIN_LAMBDA,
                    env__dim=dim,
                    env__arm_count=10,
                    run__horizon=2000,
                    run__diagnostics="monitors",
                )
            run_batch(cfg, range(3))

    def test_small_lambda_warns(self, tmp_path):
        path = write_cfg(tmp_path, BASE_INI.replace("delta = 0.1", "delta = 0.1\nlambda = 0.5"))
        with pytest.warns(UserWarning, match="lambda"):
            cfg = load_config(path)
        assert cfg.policy.lam == 0.5

    def test_auto_m(self, tmp_path):
        path = write_cfg(tmp_path, BASE_INI.replace("m = 4", "m = auto"))
        cfg = load_config(path)
        assert cfg.policy.m == "auto"
        assert cfg.resolved_ensemble_size() == ensemble_size(cfg.confidence_params(), 4)

    @pytest.mark.parametrize(
        "m,horizon", [("4", "10"), ("auto", "100000")], ids=["explicit-m", "auto-m"]
    )
    def test_round_robin_ensemble_must_cover_the_horizon(self, tmp_path, m, horizon):
        # one model per step: an ensemble smaller than the horizon runs out mid-run
        text = BASE_INI.replace("m = 4", f"m = {m}\nsampler = round_robin")
        text = text.replace("horizon = 30", f"horizon = {horizon}")
        with pytest.raises(ValueError, match=r"policy.m = .* for run.horizon = "):
            load_config(write_cfg(tmp_path, text))

    def test_to_dict_json_serializable(self):
        json.dumps(small_cfg().to_dict())

    def test_no_two_sections_share_a_field_name(self):
        # load_config sets a command's settings by field name alone
        cfg = ExperimentConfig()
        names = [f.name for s in fields(cfg) for f in fields(getattr(cfg, s.name))]
        assert len(names) == len(set(names))

    def test_settings_replace_the_files_fields(self, tmp_path):
        path = write_cfg(tmp_path)
        want = load_config(path)
        want.run.base_seed, want.run.out_dir = 99, "elsewhere"
        assert load_config(path, base_seed=99, out_dir="elsewhere") == want

    def test_settings_are_checked_in_place_of_the_files_values(self, tmp_path):
        # one validation, after the settings: a file value they replace is not checked
        path = write_cfg(tmp_path, BASE_INI.replace("replications = 2", "replications = 0"))
        assert load_config(path, replications=1).run.replications == 1
        with pytest.raises(ValueError, match="run.replications must be at least 1"):
            load_config(write_cfg(tmp_path), replications=0)

    @pytest.mark.parametrize("sampler", ["uniform", "round_robin"])
    def test_loading_builds_at_most_a_one_model_ensemble(self, tmp_path, monkeypatch, sampler):
        # validation runs the policy constructors' checks, none of which
        # reads the ensemble size, so it never builds the m = auto ensemble
        text = BASE_INI.replace("m = 4", f"m = auto\nsampler = {sampler}")
        path = write_cfg(tmp_path, text.replace("horizon = 30", "horizon = 50"))
        built = []
        init = EnsembleSampling.__init__

        def spy(self, dim, lam, n_models, *args, **kwargs):
            built.append(n_models)
            init(self, dim, lam, n_models, *args, **kwargs)

        monkeypatch.setattr(EnsembleSampling, "__init__", spy)
        cfg = load_config(path)
        assert cfg.resolved_ensemble_size() > 1000
        assert built and max(built) == 1


class TestPolicyResolution:
    def test_auto_scale_is_horizon_radius(self):
        cfg = small_cfg()
        params = cfg.confidence_params()
        assert cfg.perturbation_spec().scale == pytest.approx(beta(params, 30))

    def test_explicit_scale(self):
        cfg = small_cfg(policy__scale_mode="explicit", policy__scale=0.25)
        assert cfg.perturbation_spec().scale == 0.25

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("ensemble", EnsembleSampling),
            ("phe", LinPHE),
            ("linucb", LinUCB),
            ("lints", LinTS),
            ("greedy", GreedyRidge),
        ],
    )
    def test_build_policy_types(self, name, cls):
        cfg = small_cfg(policy__name=name)
        assert isinstance(cfg.build_policy(replication_seeds(cfg, range(1))), cls)

    @pytest.mark.parametrize(
        "overrides,want",
        [
            ({"policy__name": "linucb"}, None),
            ({"policy__name": "greedy"}, None),
            (
                dict(policy__name="lints", policy__scale_mode="explicit", policy__scale=0.5),
                0.5,
            ),
            ({"policy__name": "lints"}, "beta"),
            ({"policy__name": "ensemble"}, "beta"),
            ({"policy__name": "phe"}, "beta"),
        ],
        ids=["linucb", "greedy", "lints-explicit-scale", "lints", "ensemble", "phe"],
    )
    def test_resolved_scale_is_reported_only_where_it_is_read(self, overrides, want):
        cfg = small_cfg(**overrides)
        _, summary = run_to(cfg)
        params = cfg.confidence_params()
        if want == "beta":
            want = beta(params, params.horizon)
        assert summary["resolved_scale"] == want

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_regret_bound_is_reported_only_where_the_theorem_covers(self, name):
        # the paper's regret theorem is about ensemble sampling and
        # perturbed-history exploration; the other policies get null
        cfg = small_cfg(policy__name=name, run__horizon=5)
        _, summary = run_to(cfg)
        params = cfg.confidence_params()
        want = theoretical_regret_bound(gamma(params), p_n() / 4.0, params)
        covered = name in ("ensemble", "phe")
        assert summary["theoretical_regret_bound"] == (want if covered else None)

    def test_lints_is_gaussian_phe_at_its_scale(self, tmp_path):
        # Thompson sampling at an explicit scale = s is gaussian perturbed-history
        # exploration at scale = s: the same trace.csv, byte for byte
        base = BASE_INI.replace("m = 4\n", "").replace(
            "base_seed = 11", "base_seed = 11\ndiagnostics = monitors"
        )
        policies = {
            "lints": "name = lints\nscale_mode = explicit\nscale = 0.37",
            "phe": "name = phe\nfamily = gaussian\nscale_mode = explicit\nscale = 0.37",
        }
        traces = []
        for name, policy in policies.items():
            path = write_cfg(tmp_path, base.replace("name = ensemble", policy), f"{name}.ini")
            out = tmp_path / name
            assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] == traces[1]
        assert traces[0].split(b"\n", 1)[0].endswith(b",conc_ok,anticonc_ok,optimism_ok")

    def test_environment_fixed_across_replications(self):
        cfg = small_cfg()
        a, b = cfg.environment(), cfg.environment()
        np.testing.assert_array_equal(a.arms, b.arms)
        np.testing.assert_array_equal(a.theta_star, b.theta_star)

    def test_policy_streams_differ_across_replications(self):
        cfg = small_cfg()
        p0 = cfg.build_policy(replication_seeds(cfg, range(0, 1)))
        p1 = cfg.build_policy(replication_seeds(cfg, range(1, 2)))
        assert not np.array_equal(p0.s_vectors, p1.s_vectors)


class TestRunReplication:
    def test_deterministic(self):
        cfg = small_cfg(run__diagnostics="monitors")
        a = run_one(cfg, 0)
        b = run_one(cfg, 0)
        assert same_columns(a, b)
        assert a.counters.keys() == b.counters.keys()
        assert all(np.array_equal(a.counters[k], b.counters[k]) for k in a.counters)

    def test_replications_differ(self):
        cfg = small_cfg()
        assert not same_columns(run_one(cfg, 0), run_one(cfg, 1))

    def test_single_arm_zero_regret(self):
        cfg = small_cfg(env__arm_count=1)
        rows = rows_of(cfg, run_one(cfg, 0), 0)
        assert rows["instant_regret"].tolist() == rows["cum_regret"].tolist() == [0.0] * 30

    def test_cumulative_regret_is_prefix_sum(self):
        cfg = small_cfg()
        rec = run_one(cfg, 0)
        cum = 0.0
        # as trace.csv writes them
        rows = rows_of(cfg, rec, 0)
        for instant, cum_regret in zip(rows["instant_regret"], rows["cum_regret"]):
            cum += instant
            assert cum_regret == pytest.approx(cum, abs=1e-12)

    def test_monitor_columns_present_when_enabled(self):
        off = run_one(small_cfg(), 0)
        on = run_one(small_cfg(run__diagnostics="monitors"), 0)
        assert tuple(off.columns) == STORED_COLUMNS
        assert tuple(on.columns) == STORED_COLUMNS + FLAG_COLUMNS
        assert all(col.shape == (1, 30) for col in on.columns.values())
        assert on.counters["checks"].tolist() == [30]

    def test_full_trace_tracks_ensemble_fraction(self):
        rec = run_one(small_cfg(run__diagnostics="full-trace"), 0)
        assert 0.0 <= rec.counters["min_ensemble_fraction"][0] <= 1.0


class TestMonteCarlo:
    def test_checkpoint_grid(self):
        assert checkpoints(1) == [1]
        assert checkpoints(10) == [1, 2, 4, 8, 10]
        assert checkpoints(16) == [1, 2, 4, 8, 16]

    def test_single_replication_aggregate_matches_record(self):
        cfg = small_cfg(run__replications=1)
        records, summary = run_to(cfg)
        final = summary["checkpoints"][-1]
        assert final["t"] == 30
        assert final["mean"] == rows_of(cfg, records[0], 0)["cum_regret"][-1]
        assert final["median"] == final["q10"] == final["q90"] == final["mean"]

    def test_order_statistics_are_numpys_bit_for_bit(self):
        # aggregate sorts the regret once and reads numpy's median and
        # linear quantiles off it; checked through aggregate (median, q10,
        # q90) and _quantile (every q), over columns with repeats, signed
        # zeros and magnitudes 1e-300 to 1e300 at every n = 1..64
        rng = np.random.default_rng(33)
        grid = checkpoints(64)
        cfg = small_cfg(run__horizon=64)

        def bits(values) -> np.ndarray:
            return np.asarray(values, dtype=np.float64).view(np.int64)

        for n in range(1, 65):
            magnitudes = 10.0 ** rng.uniform(-300, 300, 6) * rng.choice([-1.0, 1.0], 6)
            pool = np.concatenate([magnitudes, [0.0, -0.0, 1.0, 1.5, -2.0]])
            mixed = rng.choice(pool, (n, len(grid)))
            # one sign of zero per column: numpy's partition and the sort may
            # order a -0.0 and a 0.0 apart, which compare equal
            zero = np.where(np.arange(len(grid)) % 2, 0.0, -0.0)
            single = np.where(mixed == 0.0, zero, mixed)
            for cols, exact in ((single, True), (mixed, False)):
                rows = aggregate(cfg, cols.T, {})["checkpoints"]
                # the median is placement-free: numpy's mean sums from +0.0
                medians = [r["median"] for r in rows]
                assert np.array_equal(bits(medians), bits(np.median(cols, axis=0)))
                for key, q in (("q10", 0.10), ("q90", 0.90)):
                    got = [r[key] for r in rows]
                    want = [np.quantile(col, q) for col in cols.T]
                    assert np.array_equal(bits(got), bits(want)) if exact else got == want, key
                ranked = np.sort(cols, axis=0)
                for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
                    got = _quantile(ranked, q)
                    want = [np.quantile(col, q) for col in cols.T]
                    if exact:
                        assert np.array_equal(bits(got), bits(want)), (n, q)
                    assert got.tolist() == want, (n, q)

    def test_zero_regret_quantiles(self):
        cfg = small_cfg(env__arm_count=1, run__replications=3)
        _, summary = run_to(cfg)
        for cp in summary["checkpoints"]:
            assert cp["mean"] == cp["q10"] == cp["q90"] == 0.0

    def test_monitor_rates_aggregated(self):
        cfg = small_cfg(run__diagnostics="monitors", run__replications=3)
        _, summary = run_to(cfg)
        mon = summary["monitors"]
        assert mon["total_checks"] == 90
        for key in (
            "all_concentrated_rate",
            "concentration_rate",
            "perturb_concentration_rate",
            "anti_conc_rate",
            "optimism_rate",
        ):
            assert 0.0 <= mon[key] <= 1.0
        assert mon["elliptical_pass_rate"] == 1.0
        assert "elliptical_note" not in mon

    def test_switched_off_monitors_read_as_disabled(self, tmp_path):
        cfg = small_cfg(run__diagnostics="off")
        records = run_replications(cfg, range(cfg.run.replications))
        _, summary_path = emit_outputs(records, cfg, tmp_path)
        assert json.loads(summary_path.read_text())["monitors"] == "disabled"

    def test_elliptical_monitor_reported_disabled_below_unit_lambda(self, tmp_path):
        # the elliptical cap presumes lambda >= 1; below it the check never
        # runs and must read as disabled (null), not as passed
        with pytest.warns(UserWarning, match="lambda"):
            cfg = small_cfg(run__diagnostics="monitors", policy__lam=0.5)
        records, summary = run_to(cfg)
        assert all("elliptical_ok" not in rec.counters for rec in records)
        mon = summary["monitors"]
        assert mon["elliptical_pass_rate"] is None
        assert "disabled" in mon["elliptical_note"]

    def test_two_batches_agree_statistically(self):
        # disjoint replication blocks of the same config: means differ by
        # at most a few standard errors
        cfg = small_cfg(run__replications=120, env__sigma=1.0)
        records, _ = run_to(cfg)
        finals = np.array(
            [
                rows_of(cfg, rec, i)["cum_regret"][-1]
                for rec in records
                for i in range(len(rec.replications))
            ]
        )
        a, b = finals[:60], finals[60:]
        se = np.sqrt(np.var(finals) * (1 / 60 + 1 / 60))
        assert abs(np.mean(a) - np.mean(b)) <= 4.0 * se + 1e-12

    def test_tallies_are_exact_ints_over_the_concatenated_batches(self):
        # batches of 3, 3 and a short 1, with a counter of each kind that a
        # monitor gives, one a broadcast view: each total is a Python int,
        # the sum over the batches' arrays joined, exact where int64 sums
        # wrap; a fraction counts where it reaches p_n() / 4, and
        # elliptical_sum, which no report reads, is left out
        rng = np.random.default_rng(8)
        threshold = p_n() / 4.0
        edges = [threshold, np.nextafter(threshold, 0.0)]
        made = [
            {
                "checks": np.broadcast_to(np.int64(40), (n,)),
                "hits": rng.integers(2**61, 2**62, n),
                "ok": rng.random(n) < 0.5,
                "elliptical_sum": rng.standard_normal(n),
                "min_ensemble_fraction": np.resize(edges, n),
            }
            for n in (3, 3, 1)
        ]
        totals = {}
        for counters in made:
            _tally(totals, counters)
        joined = {name: np.concatenate([c[name] for c in made]) for name in made[0]}
        assert joined.pop("elliptical_sum").dtype == np.float64
        joined["min_ensemble_fraction"] = joined["min_ensemble_fraction"] >= threshold
        want = {name: int(values.astype(object).sum()) for name, values in joined.items()}
        assert want["min_ensemble_fraction"] == 5
        assert want["hits"] > np.iinfo(np.int64).max
        assert totals == want
        assert all(type(total) is int for total in totals.values())

    def test_the_monitor_report_reads_every_counter(self):
        # every counter a monitored run returns is tallied over the run, so
        # the report reads each one but elliptical_sum: the monitor's
        # running sum, from which StepMonitor.counters decides elliptical_ok
        # and which the diagnostics oracles read
        class Reads(dict):
            """A dict that records the keys it is asked for."""

            def __init__(self):
                super().__init__()
                self.read = set()

            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                self.read.add(key)
                return super().__contains__(key)

        cfg = small_cfg(run__horizon=5, run__diagnostics="full-trace")
        assert cfg.policy.name == "ensemble" and cfg.policy.lam >= 1
        counters = run_batch(cfg, range(2)).counters
        assert {"elliptical_ok", "min_ensemble_fraction"} <= set(counters)
        totals = Reads()
        _tally(totals, counters)
        monitor_report(totals, 2)
        assert totals.read == set(totals) == set(counters) - {"elliptical_sum"}

    def test_serial_and_parallel_identical(self):
        serial = small_cfg(run__replications=4)
        parallel = small_cfg(run__replications=4, run__workers=2)
        rec_s, sum_s = run_to(serial)
        rec_p, sum_p = run_to(parallel)
        for a, b in zip(rec_s, rec_p):
            assert same_columns(a, b)
        assert sum_s == sum_p


def summary_only(records, cfg, out):
    """:func:`summarize` called as ``emit_outputs`` is; it writes nothing."""
    return summarize(cfg, records)


class TestOutputs:
    def test_records_must_hold_every_replication_of_the_run(self, tmp_path):
        # the summary is of the run's run.replications replications, so
        # records that miss one are refused, and no trace is left
        cfg = small_cfg(run__replications=3)
        with pytest.raises(ValueError, match="hold 2 of the run's 3 replications"):
            emit_outputs(run_replications(cfg, range(2)), cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []
        # nor are records that repeat replications, as many as the run's
        cfg.run.replications = 6
        rec = run_batch(cfg, range(0, 3))
        with pytest.raises(ValueError, match=r"after 3 of the run's 6 replications"):
            emit_outputs([rec, rec], cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []
        # nor a record that holds none
        with pytest.raises(ValueError, match=r"after 0 of the run's 6 .* holds range\(0, 0\)"):
            emit_outputs([RunRecord(range(0), {}, {}), rec], cfg, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_emit_byte_stable(self, tmp_path):
        cfg = small_cfg(run__diagnostics="monitors")
        records = list(run_replications(cfg, range(2)))
        t1, s1 = emit_outputs(records, cfg, tmp_path / "a")
        t2, s2 = emit_outputs(records, cfg, tmp_path / "b")
        assert t1.read_bytes() == t2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_trace_header_adapts_to_diagnostics(self, tmp_path):
        for diag, ncols in (("off", 7), ("monitors", 10)):
            cfg = small_cfg(run__diagnostics=diag)
            t, _ = emit_outputs(run_replications(cfg, range(2)), cfg, tmp_path / diag)
            lines = t.read_text().splitlines()
            assert len(lines[0].split(",")) == ncols
            assert len(lines) == 1 + 2 * 30
            assert len(lines[1].split(",")) == ncols

    def test_trace_floats_round_trip(self, tmp_path):
        cfg = small_cfg()
        records = list(run_replications(cfg, range(2)))
        t, _ = emit_outputs(records, cfg, tmp_path)
        row = t.read_text().splitlines()[1].split(",")
        first = rows_of(cfg, records[0], 0)
        assert float(row[4]) == first["reward"][0]  # exact via %.17g
        assert float(row[5]) == first["instant_regret"][0]
        assert float(row[6]) == first["cum_regret"][0]

    def test_summary_json_round_trips(self, tmp_path):
        cfg = small_cfg(run__diagnostics="monitors")
        _, s = emit_outputs(run_replications(cfg, range(2)), cfg, tmp_path)
        loaded = json.loads(s.read_text())
        assert loaded["replications"] == 2
        assert loaded["resolved_m"] == 4
        assert loaded["theoretical_regret_bound"] > 0

    def test_a_failed_run_leaves_an_earlier_runs_outputs_as_they_were(self, tmp_path, monkeypatch):
        # three batches of at most two replications; the second one fails
        # while the first one's rows are already on their way to the trace
        monkeypatch.setattr(harness, "BATCH_SIZE", 2)
        cfg = small_cfg(run__replications=5, run__diagnostics="monitors")
        emit_outputs(run_replications(cfg, range(5)), cfg, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["summary.json", "trace.csv"]
        batch, calls = harness.run_batch, []

        def failing(cfg, replications):
            calls.append(replications)
            if len(calls) == 2:
                # the trace is being written, under another name
                assert len(list(tmp_path.iterdir())) == 3
                raise RuntimeError("batch failed")
            return batch(cfg, replications)

        monkeypatch.setattr(harness, "run_batch", failing)
        other = small_cfg(run__replications=5, run__diagnostics="monitors", run__base_seed=12)
        with pytest.raises(RuntimeError, match="batch failed"):
            emit_outputs(run_replications(other, range(5)), other, tmp_path)
        assert calls == [range(0, 2), range(2, 4)]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @staticmethod
    def hand_records(flags: bool, horizon: int) -> list:
        """Two batches of decisions over ``horizon`` steps on 10 arms. Their
        first 4 steps are built by hand: an arm repeated within a
        replication and across replications and batches, ``model = -1``
        next to model indices, and a column with no repeats; later steps
        are seeded draws of the same ranges. Their float rows are derived
        from the arms; the edge floats that ``%.17g`` writes (signed zeros,
        a subnormal, exponent forms) are :class:`TestRowTexts`' cases."""
        first = {
            "arm": np.array([[0, 3, 3, 1], [2, 2, 2, 2]], dtype=np.int32),
            "model": np.array([[-1, 0, 7, -1], [5, 5, -1, 0]], dtype=np.int32),
        }
        second = {
            "arm": np.array([[9, 0, 9, 2]], dtype=np.int32),
            "model": np.array([[-1, -1, 12, 3]], dtype=np.int32),
        }
        rng = np.random.default_rng(horizon)
        records = []
        for reps, cols in ((range(0, 2), first), (range(2, 3), second)):
            rows, more = len(reps), max(0, horizon - 4)
            cols["arm"] = np.hstack([cols["arm"], rng.integers(0, 10, (rows, more), np.int32)])
            cols["model"] = np.hstack([cols["model"], rng.integers(-1, 13, (rows, more), np.int32)])
            if flags:
                cols["conc_ok"] = np.arange(rows * (4 + more)).reshape(rows, -1) % 4 != 1
                cols["anticonc_ok"] = np.zeros((rows, 4 + more), dtype=bool)
                cols["optimism_ok"] = rng.random((rows, 4 + more)) < 0.3
            columns = {n: col[:, :horizon] for n, col in cols.items()}
            records.append(RunRecord(reps, columns, {}))
        return records

    @staticmethod
    def hand_run(flags: bool, horizon: int) -> tuple:
        """The config of :meth:`hand_records`' three replications, and the
        records."""
        cfg = small_cfg(
            env__arm_count=10,
            run__horizon=horizon,
            run__replications=3,
            run__diagnostics="monitors" if flags else "off",
        )
        return cfg, TestOutputs.hand_records(flags, horizon)

    @staticmethod
    def oracle_trace(cfg: ExperimentConfig, records: list) -> str:
        """``trace.csv`` written row by row, one ``%`` per row; a step's
        floats are those of its replication's derived rows."""
        flags = [name for name in FLAG_COLUMNS if name in records[0].columns]
        lines = ["replication,t," + ",".join(TRACE_COLUMNS + tuple(flags))]
        for rec in records:
            cols = rec.columns
            for i, rep in enumerate(rec.replications):
                floats = rows_of(cfg, rec, i)
                for t in range(cols["arm"].shape[1]):
                    row = (rep, t + 1, cols["arm"][i, t].item(), cols["model"][i, t].item())
                    row += tuple(floats[n][t].item() for n in TRACE_COLUMNS[2:])
                    line = "%d,%d,%d,%d,%.17g,%.17g,%.17g" % row
                    line += "".join(",%d" % cols[n][i, t].item() for n in flags)
                    lines.append(line)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("flags", [False, True], ids=["no-flags", "flags"])
    @pytest.mark.parametrize(
        "horizon", [4, 1, WRITE_ROWS - 1, WRITE_ROWS, WRITE_ROWS + 1, 2 * WRITE_ROWS + 3]
    )
    def test_trace_bytes_match_a_row_by_row_oracle(self, tmp_path, flags, horizon):
        # horizons at and around the writer's chunk edges
        cfg, records = self.hand_run(flags, horizon)
        want = self.oracle_trace(cfg, records)
        if horizon == 4:
            assert ",-1," in want and ",12," in want
        trace, _ = emit_outputs(records, cfg, tmp_path)
        assert trace.read_bytes() == want.encode()

    @pytest.mark.parametrize("flags", [False, True], ids=["no-flags", "flags"])
    @pytest.mark.parametrize("block", [5, 256])
    def test_derivation_blocks_keep_the_bytes(self, tmp_path, monkeypatch, flags, block):
        # float rows derived `block` steps at a time through one ledger, and
        # the summary scored `block` values at a time: block edges fall
        # inside chunks and, at 256, right after the checkpoints t = 256 and
        # 512; the trace is the oracle's, whose rows are derived in one
        # call, and the summary that of the default blocks
        horizon = 2 * WRITE_ROWS + 3
        cfg, records = self.hand_run(flags, horizon)
        _, whole = emit_outputs(records, cfg, tmp_path / "whole")
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return derived_rows(*args)

        monkeypatch.setattr(perturb, "DRAW_VALUES", block)
        monkeypatch.setattr(harness, "SCORE_VALUES", block)
        monkeypatch.setattr(harness, "derived_rows", counted)
        trace, summary = emit_outputs(records, cfg, tmp_path / "blocks")
        assert calls == 3 * ([block] * (horizon // block) + [horizon % block])
        assert trace.read_bytes() == self.oracle_trace(cfg, records).encode()
        assert summary.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "settings",
        [
            pytest.param({"run__diagnostics": d, "policy__name": p}, id=f"{d}-{p}")
            for d in ("off", "monitors")
            for p in ("ensemble", "phe")
        ]
        # 64 arms by 20,000 uniformly chosen models: an arm,model range far
        # wider than a row's 60 steps, so each row formats its own pairs
        + [
            pytest.param(
                {"env__arm_count": 64, "policy__m": 20_000, "run__horizon": 60, "run__replications": 2},
                id="wide",
            )
        ],
    )
    def test_a_runs_trace_matches_a_plain_writer(self, tmp_path, settings):
        # each value of a run written alone, %d or %.17g, joined by commas
        cfg = small_cfg(**{"run__replications": 3, **settings})
        records = list(run_replications(cfg, range(cfg.run.replications)))
        trace, _ = emit_outputs(records, cfg, tmp_path)
        names = TRACE_COLUMNS + (FLAG_COLUMNS if cfg.run.diagnostics != "off" else ())
        lines = ["replication,t," + ",".join(names)]
        for rec in records:
            for i, rep in enumerate(rec.replications):
                columns = {n: col[i] for n, col in rec.columns.items()} | rows_of(cfg, rec, i)
                for t in range(cfg.run.horizon):
                    values = [rep, t + 1] + [columns[name][t].item() for name in names]
                    texts = ["%.17g" % v if isinstance(v, float) else "%d" % v for v in values]
                    lines.append(",".join(texts))
        assert trace.read_bytes() == ("\n".join(lines) + "\n").encode()

    @staticmethod
    def emission_peak(columns: dict, out: Path, emit=emit_outputs) -> int:
        """``emit``'s tracemalloc peak on one record of ``columns``, ``(R,
        T)`` arrays of arms below 64, monitored if it holds the flags:
        ``emit_outputs``, or a function of the same arguments."""
        width, horizon = columns["arm"].shape
        record = RunRecord(range(width), columns, {})
        cfg = small_cfg(
            env__arm_count=64,
            run__horizon=horizon,
            run__replications=width,
            run__diagnostics="monitors" if FLAG_COLUMNS[0] in columns else "off",
        )
        tracemalloc.start()
        try:
            emit([record], cfg, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def distinct_columns(width: int) -> dict:
        """Monitored ``(width, 2000)`` columns, every arm,model pair
        distinct: the most text per replication."""
        rng = np.random.default_rng(width)
        cols = {n: rng.integers(0, 50, (width, 2000), dtype=np.int32) for n in STORED_COLUMNS}
        cols.update({n: rng.random((width, 2000)) < 0.5 for n in FLAG_COLUMNS})
        return cols

    @pytest.mark.parametrize(
        "emit",
        [emit_outputs, summary_only],
        ids=["emit_outputs", "summarize"],
    )
    def test_emission_memory_does_not_grow_with_batch_width(self, tmp_path, emit):
        def peak(width: int) -> int:
            return self.emission_peak(self.distinct_columns(width), tmp_path / str(width), emit)

        narrow, wide = peak(2), peak(20)
        assert wide < 1.5 * narrow, (narrow, wide)

    def test_the_summary_holds_no_row_text(self, tmp_path):
        # summarize formats nothing: its peak on a wide record stays below
        # the texts of one of the writer's chunks, each value of WRITE_ROWS
        # rows of the trace a string
        cols = self.distinct_columns(20)
        peak = self.emission_peak(cols, tmp_path, summary_only)
        self.emission_peak(cols, tmp_path, emit_outputs)
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1 : 1 + WRITE_ROWS]
        chunk = sum(sys.getsizeof(text) for row in rows for text in row.split(","))
        assert peak < chunk, (peak, chunk)

    def test_emission_memory_does_not_grow_with_the_ensemble_size(self, tmp_path):
        # models spanning the 2,474,207 of an auto-sized ensemble at K = 1024
        # against 32: neither rule holds more than one row's texts
        def peak(models: int) -> int:
            rng = np.random.default_rng(3)
            cols = {
                "arm": rng.integers(0, 64, (20, 2000), dtype=np.int32),
                "model": rng.integers(0, models, (20, 2000), dtype=np.int32),
            }
            cols["model"][0, :2] = 0, models - 1
            cols.update({n: rng.random((20, 2000)) < 0.5 for n in FLAG_COLUMNS})
            return self.emission_peak(cols, tmp_path / str(models))

        few, many = peak(32), peak(2_474_207)
        assert many < 1.5 * few, (few, many)

    def test_emission_memory_does_not_grow_with_the_horizon(self, tmp_path):
        # one unmonitored replication at horizons past a derivation block:
        # the writer holds one chunk's texts and one block's floats, and
        # only its ",t" step labels (about 63 bytes a step) grow with T
        def peak(horizon: int) -> int:
            rng = np.random.default_rng(horizon)
            cols = {
                "arm": rng.integers(0, 64, (1, horizon), dtype=np.int32),
                "model": rng.integers(0, 32, (1, horizon), dtype=np.int32),
            }
            return self.emission_peak(cols, tmp_path / str(horizon))

        short, long = 20_000, 80_000
        assert perturb.DRAW_VALUES < short
        growth = (peak(long) - peak(short)) / (long - short)
        assert growth < 100, growth

    def test_run_memory_does_not_grow_with_the_replication_count(self, tmp_path, monkeypatch):
        # a run holds one batch's record at a time, and a monitored record
        # holds 11 bytes a step: int32 arm and model and three flags. What
        # it keeps of each replication, its regret at 9 checkpoints (72
        # bytes), is all that grows; its counters are totals of the run
        monkeypatch.setattr(harness, "BATCH_SIZE", 4)
        text = BASE_INI.replace("horizon = 30", "horizon = 200\ndiagnostics = monitors")
        path = write_cfg(tmp_path, text)

        def peak(reps: int) -> int:
            out = str(tmp_path / "out")
            args = ["run", "--config", str(path), "--reps", str(reps), "--out", out]
            tracemalloc.start()
            try:
                assert cli.main(args) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(8), peak(32)
        assert many < 1.5 * few, (few, many)
        growth = (peak(512) - peak(128)) / 384
        assert growth < 200, growth
        rec = run_batch(load_config(path), range(4))
        assert sum(col.nbytes for col in rec.columns.values()) == 11 * 4 * 200


class TestRowTexts:
    """``_row_texts`` gives each row's joined ``fmt % v`` over a slice of
    its steps, step by step, and ``_float_texts`` each value's ``fmt % v``
    of one float row."""

    ALL = slice(None)

    @staticmethod
    def assert_rows_formatted(columns: list, formats: list):
        # the whole row, and chunks that start and end inside it
        text = _row_texts(columns, formats)
        for i in range(len(columns[0])):
            steps = zip(*(column[i].tolist() for column in columns))
            want = ["".join(f % v for f, v in zip(formats, step)) for step in steps]
            for chunk in (slice(None), slice(1, None), slice(0, 1), slice(1, -1)):
                assert text(i, chunk) == want[chunk]

    @staticmethod
    def counting(fmt: str, formatted: list):
        """``fmt`` that appends each value it formats to ``formatted``."""

        class CountingFormat(str):
            def __mod__(self, value):
                formatted.append(value)
                return str.__mod__(self, value)

        return CountingFormat(fmt)

    def test_floats_keep_signed_zeros_and_repeats(self):
        # the edge floats %.17g writes: signed zeros, a subnormal, values in
        # exponent form, a sum that prints 17 digits, and repeats in a row
        tiny, huge = 5e-324, 1e300
        rows = [
            [0.0, -0.0, 1.5, -0.0, 1.5, tiny],
            [-0.0, 0.0, 0.0, huge, 1.5, -2.0],
            [0.5, tiny, -huge, 0.0],
            [0.1, 0.2, 0.30000000000000004, 1 / 3],
            [huge, tiny, -1.5, 2.0],
            [0.5, 0.5, -0.0, huge],
            [0.25, 0.5, 0.75, 1e-5],
        ]
        for row in rows:
            for fmt in (",%.17g", ",%.17g\n"):
                assert _float_texts(np.array(row), fmt) == [fmt % v for v in row]
        texts = _float_texts(np.array([-0.0, 1e-5, -huge, 0.30000000000000004]), ",%.17g")
        assert texts == [
            ",-0",
            ",1.0000000000000001e-05",
            ",-1.0000000000000001e+300",
            ",0.30000000000000004",
        ]

    def test_float_rows_format_each_distinct_value_once(self):
        # a row without repeats is formatted in order, one with repeats
        # formats each distinct value once, -0.0 and 0.0 apart
        rows = np.array([[0.5, -0.0, 0.0, 1e300, 5e-324], [0.5, 0.5, -0.0, 0.5, -0.0]])
        formatted = []
        fmt = self.counting(",%.17g", formatted)
        want = [",0.5", ",-0", ",0", ",1.0000000000000001e+300", ",4.9406564584124654e-324"]
        assert _float_texts(rows[0], fmt) == want
        assert formatted == rows[0].tolist()
        formatted.clear()
        assert _float_texts(rows[1], fmt) == [",0.5", ",0.5", ",-0", ",0.5", ",-0"]
        assert sorted(map(str, formatted)) == ["-0.0", "0.5"]

    def test_a_model_column_of_minus_ones(self):
        self.assert_rows_formatted([np.full((3, 5), -1)], [",%d"])
        arms = np.array([[0, 3, 3, 1, 0], [2, 2, 0, 2, 1], [1, 1, 1, 1, 1]])
        self.assert_rows_formatted([arms, np.full((3, 5), -1)], [",%d", ",%d"])

    def test_arm_and_model_are_one_table_of_their_range(self):
        # 4 arms by 9 models (-1 among them) code 36 pairs, within a row's 40
        # steps: the table formats each pair of the range once
        rng = np.random.default_rng(5)
        arms = rng.integers(0, 4, (2, 40))
        models = np.where(rng.random((2, 40)) < 0.2, -1, rng.integers(0, 8, (2, 40)))
        models[0, :2] = -1, 7
        formatted = []
        formats = [self.counting(",%d", formatted), ",%d"]
        self.assert_rows_formatted([arms, models], [",%d", ",%d"])
        _row_texts([arms, models], formats)
        assert sorted(formatted) == [arm for arm in range(4) for _ in range(9)]

    def test_flags(self):
        flags = np.array([[True, False, True], [True, True, True]])
        self.assert_rows_formatted([flags], [",%d\n"])
        self.assert_rows_formatted([np.ones((2, 3), dtype=bool)], [",%d"])

    def test_the_flag_run_carries_the_newline(self):
        rows = np.arange(2 * 6).reshape(2, 6)
        flags = [rows % 2 == 0, rows % 3 == 0, np.zeros((2, 6), dtype=bool)]
        text = _row_texts(flags, [",%d", ",%d", ",%d\n"])
        want = [",1,1,0\n", ",0,0,0\n", ",1,0,0\n", ",0,1,0\n", ",1,0,0\n", ",0,0,0\n"]
        assert text(0, self.ALL) == text(1, self.ALL) == want

    def test_an_arm_column_formats_only_the_arms_that_occur(self):
        # an arm range as wide as the K = 100,000 edge config that loads and
        # runs, next to a model column of -1, over 4 steps: wider than a row,
        # so each row formats its own distinct pairs and no table is built
        arms = 100_000
        column = np.array([[0, arms - 1, 5, 5], [arms - 1, 77, 0, 0]])
        models = np.full_like(column, -1)
        formatted = []
        formats = [self.counting(",%d", formatted), self.counting(",%d", formatted)]
        text = _row_texts([column, models], formats)
        assert formatted == []
        for i, row in enumerate(column):
            assert text(i, self.ALL) == [",%d,-1" % v for v in row.tolist()]
        assert sorted(formatted) == [-1] * 6 + [0, 0, 5, 77, arms - 1, arms - 1]

    def test_a_wide_run_formats_each_rows_distinct_pairs_once(self):
        # 1,000 arms by 1,000 models would be a million codes for 4 steps:
        # each row formats the pairs it holds, once each
        arms = np.array([[0, 999, 5, 5], [999, 77, 0, 0]])
        models = np.array([[999, 0, 3, 3], [3, 0, 999, 999]])
        formatted = []
        self.assert_rows_formatted([arms, models], [",%d", ",%d\n"])
        text = _row_texts([arms, models], [self.counting(",%d", formatted), ",%d\n"])
        for i, pairs in enumerate([[0, 5, 999], [0, 77, 999]]):
            formatted.clear()
            text(i, self.ALL)
            assert sorted(formatted) == pairs

    def test_a_wide_int_row_without_repeats_is_formatted_in_order(self):
        arms = np.array([[7, 0, 999, 3, 500]])
        models = np.array([[-1, 500, 2, 999, 2]])
        formatted = []
        text = _row_texts([arms, models], [self.counting(",%d", formatted), ",%d"])
        assert text(0, self.ALL) == [",7,-1", ",0,500", ",999,2", ",3,999", ",500,2"]
        assert formatted == arms[0].tolist()

    def test_no_table_outgrows_a_chunk(self):
        # WRITE_ROWS + 1 arms fit a row of 2 * WRITE_ROWS steps but not a
        # chunk: no table is built, and a chunk formats only its own codes
        arms = np.arange(2 * WRITE_ROWS)[None] % (WRITE_ROWS + 1)
        formatted = []
        text = _row_texts([arms], [self.counting(",%d", formatted)])
        assert formatted == []
        assert text(0, slice(3, 6)) == [",3", ",4", ",5"]
        assert formatted == [3, 4, 5]
        self.assert_rows_formatted([arms], [",%d"])
        # WRITE_ROWS arms fit a chunk: one table of the range
        text = _row_texts([arms % WRITE_ROWS], [self.counting(",%d", formatted)])
        assert len(formatted) == 3 + WRITE_ROWS


class TestEquivalenceSuite:
    @pytest.mark.parametrize("family", PerturbationFamily.ALL)
    def test_shared_streams_match(self, family):
        cfg = small_cfg(run__horizon=20, policy__family=family, run__replications=8)
        report = run_equivalence_suite(cfg)
        assert report.passed
        assert report.matches == 8
        assert report.failures == []

    def test_shared_streams_match_at_long_horizon(self):
        # the lazy replay rebuilds one model's sum per step, so the
        # bit-identity can be checked far past criterion 1's T = 50
        cfg = small_cfg(
            env__dim=4, env__arm_count=8, env__sigma=1.0, run__horizon=2000, run__replications=2
        )
        report = run_equivalence_suite(cfg)
        assert report.failures == []
        assert report.matches == 2

    @pytest.mark.parametrize("n_seeds", [0, -2])
    def test_rejects_fewer_than_one_seed(self, n_seeds):
        # a config built in Python is not validated: it must not pass 0/0
        cfg = small_cfg()
        cfg.run.replications = n_seeds
        with pytest.raises(ValueError, match="run.replications must be at least 1"):
            run_equivalence_suite(cfg)

    def test_desynchronized_streams_diverge(self):
        # negative control: offsetting one stream must break the equality
        cfg = small_cfg(run__horizon=20, run__replications=5)
        report = run_equivalence_suite(cfg, desync=True)
        assert not report.passed
        assert report.failures
        for seed, step, seq_a, seq_b in report.failures:
            assert 1 <= step <= 20
            assert seq_a[step - 1] != seq_b[step - 1]


class TestEventRates:
    def test_report_structure_and_ranges(self):
        cfg = small_cfg(run__horizon=25, run__diagnostics="full-trace", run__replications=6)
        report = estimate_event_rates(cfg)
        assert report["replications"] == 6
        assert report["total_checks"] == 150
        for key in ("all_concentrated_rate", "perturb_concentration_rate", "anti_conc_rate"):
            assert 0.0 <= report[key] <= 1.0
        assert report["ensemble_fraction_threshold"] == pytest.approx(
            0.158655253931457 / 4.0, abs=1e-12
        )
        assert 0.0 <= report["min_ensemble_fraction_pass_rate"] <= 1.0

    @pytest.mark.parametrize("reps", [0, -2])
    @pytest.mark.parametrize(
        "command",
        [
            lambda cfg, out: estimate_event_rates(cfg),
            lambda cfg, out: emit_outputs(run_replications(cfg, range(2)), cfg, out),
        ],
        ids=["estimate_event_rates", "emit_outputs"],
    )
    def test_rejects_zero_reps(self, tmp_path, monkeypatch, command, reps):
        # an unvalidated count below one is refused before any batch runs,
        # rather than failing inside aggregate, and leaves no file
        ran = []
        monkeypatch.setattr(harness, "run_batch", lambda cfg, block: ran.append(block))
        cfg = small_cfg()
        cfg.run.replications = reps
        with pytest.raises(ValueError, match="run.replications must be at least 1"):
            command(cfg, tmp_path)
        assert ran == []
        assert list(tmp_path.iterdir()) == []


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A Python process that imports this checkout's ``linens``."""
    src = Path(linens.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``linens`` run as a process, so that a failure shows as its exit code."""
    return run_python("-m", "linens.cli", *args)


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # the harness imports the pool only where run.workers > 1 maps batches
    # over it (test_engine's workers = 2 tests run that path)
    code = (
        "import sys, linens.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_command_imports_numpy_random(tmp_path):
    # every random value is the counter hash, so no command on a shipped
    # config loads numpy.random, and summary.json's order statistics come
    # from one sort, so none loads numpy.ma either; each command's row
    # reads (name, exit code, whether numpy.random and numpy.ma are loaded
    # after it)
    configs = Path(__file__).resolve().parents[1] / "configs"

    def on(command, name, *args):
        return [command, "--config", str(configs / f"{name}.ini"), *args]

    commands = [
        on("run", "ensemble", "--reps", "2", "--out", str(tmp_path / "ensemble")),
        on("run", "phe", "--reps", "2", "--out", str(tmp_path / "phe")),
        on("run", "explicit", "--reps", "2", "--out", str(tmp_path / "explicit")),
        on("rates", "ensemble", "--reps", "2"),
        on("equivalence", "equivalence"),
        on("sweep", "phe", "--param", "T", "--values", "10,20", "--out", str(tmp_path / "sweep")),
    ]
    code = (
        "import json, sys; from linens import cli; "
        "rows = [[a[0], cli.main(a), 'numpy.random' in sys.modules, 'numpy.ma' in sys.modules] "
        "for a in json.loads(sys.argv[1])]; print(json.dumps(rows))"
    )
    proc = run_python("-c", code, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rows == [[a[0], 0, False, False] for a in commands]


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        assert "mean final regret" in capsys.readouterr().out

    def test_run_overrides(self, tmp_path):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "o2"
        cli.main([
            "run", "--config", str(cfg_path), "--out", str(out),
            "--reps", "1", "--seed", "99",
        ])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["replications"] == 1
        assert summary["config"]["run"]["base_seed"] == 99

    @pytest.mark.parametrize("sampler", ["uniform", "round_robin"])
    @pytest.mark.parametrize(
        "command,diagnostics",
        [("run", "off"), ("run", "monitors"), ("run", "full-trace"), ("rates", "monitors")],
    )
    def test_the_default_keying_written_out_changes_no_output_byte(
        self, tmp_path, capsys, command, diagnostics, sampler
    ):
        # keying = by_step is the default, which an ensemble file may leave
        # out: the outputs, config echo included, are the same bytes
        default = BASE_INI.replace("horizon = 30", f"horizon = 10\ndiagnostics = {diagnostics}")
        default = default.replace("m = 4", f"m = 10\nsampler = {sampler}")
        keyed = default.replace("delta = 0.1", "delta = 0.1\nkeying = by_step")
        outputs = []
        for name, text in (("default", default), ("keyed", keyed)):
            cfg_path = str(write_cfg(tmp_path, text, f"{name}.ini"))
            if command == "run":
                out = tmp_path / name
                assert cli.main(["run", "--config", cfg_path, "--out", str(out)]) == 0
                outputs.append([(out / f).read_bytes() for f in ("trace.csv", "summary.json")])
            else:
                assert cli.main(["rates", "--config", cfg_path]) == 0
                outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if command == "run":
            assert json.loads(outputs[0][1])["config"]["policy"]["keying"] == "by_step"

    def test_equivalence_command(self, tmp_path, capsys):
        text = EQUIVALENCE_INI.replace("horizon = 30", "horizon = 15")
        cfg_path = write_cfg(tmp_path, text)
        code = cli.main(["equivalence", "--config", str(cfg_path), "--seeds", "4"])
        assert code == 0
        assert "PASS: 4/4" in capsys.readouterr().out

    def test_equivalence_command_rejects_explicit_arms(self, tmp_path):
        # the suite draws its own random instances; an explicit arm set
        # would be ignored, so the command fails instead of printing PASS
        text = EXPLICIT_INI.replace("name = greedy", "name = ensemble")
        done = run_cli("equivalence", "--config", str(write_cfg(tmp_path, text)))
        assert done.returncode == 2
        assert "draws random instances" in done.stderr
        assert "it cannot run on the given env.arms" in done.stderr
        assert "PASS" not in done.stdout

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_equivalence_command_rejects_fewer_than_one_seed(self, tmp_path, seeds):
        # zero seeds would pass the bit-identity contract vacuously
        cfg_path = write_cfg(tmp_path, EQUIVALENCE_INI)
        done = run_cli("equivalence", "--config", str(cfg_path), "--seeds", seeds)
        assert done.returncode == 2
        assert done.stderr == "linens: run.replications must be at least 1\n"
        assert done.stdout == ""

    @pytest.mark.parametrize(
        "key,old,new",
        [
            ("policy.m", "delta = 0.1", "delta = 0.1\nm = 3"),
            ("policy.sampler", "delta = 0.1", "delta = 0.1\nsampler = uniform"),
            ("policy.keying", "delta = 0.1", "delta = 0.1\nkeying = by_step"),
            ("policy.m", "delta = 0.1", "delta = 0.1\nm = auto"),
            ("policy.linucb_bonus", "delta = 0.1", "delta = 0.1\nlinucb_bonus = 1.5"),
            ("policy.delta", "delta = 0.1", "delta = 0.1\nscale_mode = explicit"),
            ("run.diagnostics", "horizon = 30", "horizon = 30\ndiagnostics = off"),
            ("policy.name", "name = ensemble", "name = phe"),
        ],
    )
    def test_equivalence_rejects_a_key_it_does_not_read(self, tmp_path, capsys, key, old, new):
        # the suite runs its own round-robin, by-step ensemble at m = T,
        # unmonitored: a file that sets any of these, even at its default,
        # asks for something the suite would not do
        cfg_path = write_cfg(tmp_path, EQUIVALENCE_INI.replace(old, new))
        assert cli.main(["equivalence", "--config", str(cfg_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("linens: ") and key in err and err.count("\n") == 1

    def test_equivalence_accepts_only_what_it_reads(self, tmp_path, capsys):
        # a file that sets m and a sampler is rejected; without them its
        # replications are the seeds, and out_dir, which says where to
        # write and not what to run, is accepted by every command
        seven = "replications = 7\nout_dir = /nonexistent/x"
        text = EQUIVALENCE_INI.replace("replications = 2", seven)
        unread = text.replace("delta = 0.1", "delta = 0.1\nm = 3\nsampler = uniform")
        assert cli.main(["equivalence", "--config", str(write_cfg(tmp_path, unread))]) == 2
        assert "policy.m" in capsys.readouterr().err
        assert cli.main(["equivalence", "--config", str(write_cfg(tmp_path, text))]) == 0
        assert capsys.readouterr().out.startswith("PASS: 7/7 seeds")

    @pytest.mark.parametrize(
        "command,args,message",
        [
            ("run", ["--config", "missing.ini"], "config file not found: missing.ini"),
            ("equivalence", ["--seeds", "0"], "run.replications must be at least 1"),
            ("rates", ["--reps", "0"], "run.replications must be at least 1"),
            ("sweep", ["--param", "m", "--values", "3"], "varies policy.m"),
        ],
    )
    def test_a_rejected_input_ends_in_one_line(
        self, tmp_path, capsys, monkeypatch, command, args, message
    ):
        # a ValueError or OSError of any subcommand is one line on stderr
        # and exit status 2, as a bad argument is
        monkeypatch.chdir(tmp_path)
        cfg_path = write_cfg(tmp_path, BASE_INI.replace("name = ensemble\nm = 4", "name = phe"))
        if "--config" not in args:
            args = ["--config", str(cfg_path), *args]
        assert cli.main([command, *args]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("linens: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("case", sorted(LOAD_REJECTIONS))
    def test_run_rejects_a_file_that_cannot_run_and_writes_nothing(
        self, tmp_path, capsys, case
    ):
        text, message = LOAD_REJECTIONS[case]
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("linens: ") and err.count("\n") == 1
        assert re.search(message, err)
        assert not out.exists()

    def test_other_errors_pass_through(self, tmp_path, monkeypatch):
        # only rejected inputs are caught: anything else still propagates
        class Interrupted(Exception):
            pass

        def interrupted(*args, **kwargs):
            raise Interrupted

        monkeypatch.setattr(cli, "load_config", interrupted)
        with pytest.raises(Interrupted):
            cli.main(["rates", "--config", str(write_cfg(tmp_path))])

    def test_rates_command(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        code = cli.main(["rates", "--config", str(cfg_path), "--reps", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replications"] == 2

    @pytest.mark.parametrize(
        "lam", ["1.0", pytest.param("0.5", marks=pytest.mark.filterwarnings("default"))]
    )
    @pytest.mark.parametrize("diagnostics", ["monitors", "full-trace"])
    def test_run_and_rates_report_the_same_numbers(self, tmp_path, capsys, diagnostics, lam):
        # one report of the same counters: run's monitors block is the rates
        # report without its replication count, ensemble fraction included
        text = BASE_INI.replace("delta = 0.1", f"delta = 0.1\nlambda = {lam}").replace(
            "horizon = 30", f"horizon = 30\ndiagnostics = {diagnostics}"
        )
        cfg_path = str(write_cfg(tmp_path, text))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg_path, "--reps", "3", "--out", str(out)]) == 0
        monitors = json.loads((out / "summary.json").read_text())["monitors"]
        capsys.readouterr()
        assert cli.main(["rates", "--config", cfg_path, "--reps", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("replications") == 3
        assert monitors == report
        assert ("min_ensemble_fraction_pass_rate" in report) == (diagnostics == "full-trace")
        assert (report["elliptical_pass_rate"] is None) == (lam == "0.5")

    def test_run_rejects_a_delta_that_only_the_monitors_would_read(self, tmp_path, capsys):
        # greedy's arms and its null regret bound never read delta; a run
        # with the monitors on reads it, and so does rates, which runs them
        greedy = BASE_INI.replace("name = ensemble\nm = 4", "name = greedy")
        out = tmp_path / "out"
        args = ["--config", str(write_cfg(tmp_path, greedy)), "--out", str(out)]
        assert cli.main(["run", *args]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == (
            "linens: this file sets policy.delta, which policy.name = greedy does not read "
            "with the other settings: a run would ignore it\n"
        )
        assert not out.exists()
        assert cli.main(["rates", *args[:2]]) == 0
        monitored = greedy.replace("horizon = 30", "horizon = 30\ndiagnostics = monitors")
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, monitored)), *args[2:]]) == 0

    def test_rates_rejects_a_file_that_switches_the_monitors_off(self, tmp_path, capsys):
        # rates reports the monitors' rates, so a file that says off is
        # rejected at load rather than run with the monitors on
        off = BASE_INI.replace("horizon = 30", "horizon = 30\ndiagnostics = off")
        assert cli.main(["rates", "--config", str(write_cfg(tmp_path, off))]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "linens: this file sets run.diagnostics = off, but linens rates reports "
            "the monitors' rates: set monitors or full-trace\n"
        )
        monitors = off.replace("diagnostics = off", "diagnostics = monitors")
        assert cli.main(["rates", "--config", str(write_cfg(tmp_path, monitors))]) == 0

    def test_rates_reps_is_checked_in_place_of_the_files_count(self, tmp_path, capsys):
        # --reps is a setting, as run's is: the file's count that it replaces is not checked
        cfg_path = write_cfg(tmp_path, BASE_INI.replace("replications = 2", "replications = 0"))
        assert cli.main(["rates", "--config", str(cfg_path), "--reps", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["replications"] == 2

    def test_sweep_command(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path)
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--param", "T",
            "--values", "10,20", "--out", str(out),
        ])
        assert code == 0
        combined = json.loads((out / "sweep_T.json").read_text())
        assert [c["value"] for c in combined] == [10, 20]
        assert (out / "sweep_T_10" / "summary.json").exists()

    @pytest.mark.parametrize(
        "param,key,values", [("T", "horizon", (10, 20)), ("m", "m", (3, 5))], ids=["T", "m"]
    )
    def test_sweep_writes_run_summaries_and_no_trace(self, tmp_path, param, key, values):
        # each value's summary.json is, byte for byte, the one `linens run`
        # writes on the config with the field set; sweep_<p>.json holds each
        # value's final mean regret, and no trace.csv is written
        text = BASE_INI.replace("horizon = 30", "horizon = 30\ndiagnostics = monitors")
        out = tmp_path / "sweep"
        sweep = ["sweep", "--config", str(write_cfg(tmp_path, text)), "--param", param]
        assert cli.main(sweep + ["--values", ",".join(map(str, values)), "--out", str(out)]) == 0
        combined = json.loads((out / f"sweep_{param}.json").read_text())
        for value, entry in zip(values, combined, strict=True):
            field_set = re.sub(f"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
            run_out = tmp_path / f"run_{value}"
            run = ["run", "--config", str(write_cfg(tmp_path, field_set, f"{value}.ini"))]
            assert cli.main(run + ["--out", str(run_out)]) == 0
            summary = (out / f"sweep_{param}_{value}" / "summary.json").read_bytes()
            assert summary == (run_out / "summary.json").read_bytes()
            mean = json.loads(summary)["checkpoints"][-1]["mean"]
            assert entry == {"value": value, "mean_final_regret": mean}
        assert sorted(p.name for p in out.rglob("*") if p.is_file()) == sorted(
            [f"sweep_{param}.json"] + ["summary.json"] * len(values)
        )

    @pytest.mark.parametrize(
        "values,message",
        [
            ("10,", "--values '10,' has an empty entry"),
            ("", "--values '' has an empty entry"),
            ("10,,20", "--values '10,,20' has an empty entry"),
            ("10,2.5", "--values entry '2.5' is not an integer"),
            ("ten", "--values entry 'ten' is not an integer"),
            ("10,10", "--values entry '10' repeats the value 10"),
            ("10,20,010", "--values entry '010' repeats the value 10"),
        ],
        ids=["trailing-comma", "empty", "empty-middle", "float", "word", "repeat", "same-int"],
    )
    def test_sweep_rejects_bad_values_before_any_run(self, tmp_path, capsys, values, message):
        # each value has its own output directory, so a repeat would run twice into one
        out = tmp_path / "sweep"
        code = cli.main([
            "sweep", "--config", str(write_cfg(tmp_path)), "--param", "T",
            "--values", values, "--out", str(out),
        ])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == ""
        assert err == f"linens: {message}\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize(
        "command,args", [("run", []), ("sweep", ["--param", "T", "--values", "10,20"])]
    )
    def test_a_warning_is_one_line_shown_once(self, tmp_path, capsys, command, args):
        # run validates one config and sweep one per value, each warning of
        # lambda < 1; the warning reads as a rejection does, once
        text = BASE_INI.replace("delta = 0.1", "delta = 0.1\nlambda = 0.5")
        args = ["--config", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "o"), *args]
        assert cli.main([command, *args]) == 0
        err = capsys.readouterr().err
        assert err.startswith("linens: warning: policy.lambda < 1") and err.count("\n") == 1

    def test_run_validates_once_and_a_sweep_once_per_value(self, tmp_path, monkeypatch):
        calls = []
        validate = ExperimentConfig.validate

        def counted(cfg):
            calls.append(cfg)
            return validate(cfg)

        monkeypatch.setattr(ExperimentConfig, "validate", counted)
        cfg_path = str(write_cfg(tmp_path))
        out = str(tmp_path / "o")
        assert cli.main(["run", "--config", cfg_path, "--out", out, "--seed", "3"]) == 0
        assert len(calls) == 1
        calls.clear()
        sweep = ["sweep", "--config", cfg_path, "--param", "T", "--values", "5,6,7", "--out", out]
        assert cli.main(sweep) == 0
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "command,args",
        [
            ("run", ["--reps", "1"]),
            ("rates", ["--reps", "2"]),
            ("equivalence", ["--seeds", "2"]),
            ("sweep", ["--param", "T", "--values", "5,6"]),
        ],
    )
    def test_each_command_loads_through_cli_load_config(self, tmp_path, monkeypatch, command, args):
        # the benchmark marks the end of set-up where cli.load_config returns
        # and its set-up-only probe stops there, so every command loads through it
        calls = []
        load = cli.load_config

        def counted(*a, **kw):
            calls.append(a)
            return load(*a, **kw)

        monkeypatch.setattr(cli, "load_config", counted)
        text = EQUIVALENCE_INI if command == "equivalence" else BASE_INI
        cfg_path = write_cfg(tmp_path, text.replace("horizon = 30", "horizon = 5"))
        if command in ("run", "sweep"):
            args = [*args, "--out", str(tmp_path / "o")]
        assert cli.main([command, "--config", str(cfg_path), *args]) == 0
        if command == "sweep":
            assert calls  # one load per swept value
        else:
            assert len(calls) == 1

    @pytest.mark.parametrize("param,message", [("K", "arm_count"), ("d", "env.dim")])
    def test_sweep_rejects_explicit_arm_shape_changes(self, tmp_path, capsys, param, message):
        # explicit arms fix K and d; a sweep over either fails before any run
        cfg_path = write_cfg(tmp_path, EXPLICIT_INI)
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--param", param,
            "--values", "4,5", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2 and message in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("policy", ["phe", "linucb", "lints", "greedy"])
    def test_sweep_rejects_m_for_policies_without_an_ensemble(self, tmp_path, capsys, policy):
        # the file leaves m out, and delta, which greedy does not read, so
        # it loads; the sweep would set m
        text = BASE_INI.replace("name = ensemble", f"name = {policy}")
        text = text.replace("m = 4\ndelta = 0.1\n", "")
        cfg_path = write_cfg(tmp_path, text)
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--param", "m",
            "--values", "3,7", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2
        assert f"varies policy.m, which policy.name = {policy}" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_rejects_a_horizon_past_the_round_robin_ensemble(self, tmp_path, capsys):
        # T = 4 alone could run; T = 10 outruns m = 4, so nothing runs or is written
        text = BASE_INI.replace("m = 4", "m = 4\nsampler = round_robin")
        cfg_path = write_cfg(tmp_path, text.replace("horizon = 30", "horizon = 4"))
        code = cli.main([
            "sweep", "--config", str(cfg_path), "--param", "T",
            "--values", "4,10", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 2 and "run.horizon = 10" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()


SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))


def test_the_shipped_configs_are_found():
    # an empty list would skip the smoke test below without a word
    assert {p.stem for p in SHIPPED_CONFIGS} >= {"ensemble", "phe", "explicit", "equivalence"}


BENCHMARK_CONFIGS = sorted(
    (Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.ini")
)


@pytest.mark.parametrize("path", BENCHMARK_CONFIGS, ids=lambda p: p.stem)
def test_benchmark_config_runs_its_command(tmp_path, capsys, path):
    # tier-1 does not collect perfbench/, so a rejection of a benchmark
    # config, at load or in its run, would otherwise show only as a refused
    # benchmark run. Each file sets only keys its command reads: the
    # equivalence file's policy.name = ensemble, and run.workers, which the
    # benchmark's copies of them set too.
    parser = configparser.ConfigParser()
    parser.read(path)
    parser["run"]["horizon"] = "5"
    short = tmp_path / path.name
    with short.open("w") as f:
        parser.write(f)
    command = path.stem.split("-")[0]
    args = {"rates": ["--reps", "2"], "equivalence": ["--seeds", "2"]}[command]
    assert cli.main([command, "--config", str(short), *args]) == 0
    out = capsys.readouterr().out
    if command == "equivalence":
        assert out.startswith("PASS: 2/2 ")
    else:
        assert json.loads(out)["replications"] == 2


def test_the_benchmark_configs_are_found():
    assert {p.stem for p in BENCHMARK_CONFIGS} >= {"equivalence-c1", "rates-c4"}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_loads_and_runs(tmp_path, path):
    cfg = load_config(path)
    # the same file, every key as shipped but the horizon, run for 5 steps
    parser = configparser.ConfigParser()
    parser.read(path)
    parser["run"]["horizon"] = "5"
    short = tmp_path / path.name
    with short.open("w") as f:
        parser.write(f)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(short), "--reps", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["replications"] == 2
    assert summary["config"]["run"]["horizon"] == 5
    assert summary["config"]["env"] == cfg.to_dict()["env"]
    assert summary["config"]["policy"] == cfg.to_dict()["policy"]
    assert len((out / "trace.csv").read_text().splitlines()) == 1 + 2 * 5


#: numpy's bundled OpenBLAS, whose core is chosen at load time
OPENBLAS = Path(np.__file__).parent.parent / "numpy.libs"


def numpy_platform() -> str:
    """What a pinned hash depends on besides the code, for its failure
    message: numpy's version, its active SIMD dispatch targets, its BLAS
    build and the OpenBLAS core that runs, and the environment variables
    that override either."""
    names = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    overrides = [f"{k}={os.environ[k]}" for k in names if k in os.environ]
    env = f"environment {' '.join(overrides) or 'default'}"
    try:
        # the build string names one core under every setting; this one runs
        (lib,) = OPENBLAS.glob("libscipy_openblas64_*")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = f"core {corename().decode()}"
    except (ValueError, OSError, AttributeError):
        # no bundled library, more than one, or no such symbol
        core = "core unknown"
    try:
        from numpy._core import _multiarray_umath as umath

        simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (ImportError, TypeError, KeyError):
        # numpy 1.x has neither numpy._core nor show_config's dict mode
        return f"numpy {np.__version__}; {core}; {env}"
    return (
        f"numpy {np.__version__}; SIMD {', '.join(simd) or 'none'}; "
        f"BLAS {blas.get('openblas configuration', blas['name'])}, {core}; {env}"
    )


def test_numpy_platform_names_the_numpy_version():
    # the failure message of the pinned-byte tests is built on every run
    platform = numpy_platform()
    assert f"numpy {np.__version__};" in platform
    # and names the running core wherever numpy bundles one OpenBLAS
    if len(list(OPENBLAS.glob("libscipy_openblas64_*"))) == 1:
        assert re.search(r"core \w+;", platform) and "core unknown" not in platform


#: sha256 of ``trace.csv`` and ``summary.json`` of each shipped config run by
#: ``linens run`` at horizon 300 with ``--reps 3``. They move only with a
#: deliberate output change, logged with its old and new hashes in
#: CHANGES.md. numpy's log and cos may round a last bit differently in
#: another build, which would move them too.
PINNED_OUTPUTS = {
    "ensemble": (
        "51386eb2eb7024c7992bdda2b7a917ae15a906686c0fb51b2dd530e5ec926429",
        "5f4481acccd9268b0f022132893d9507fc799d19936cdc5d5e6cb281f2c2acc0",
    ),
    "phe": (
        "92e99c7b40794eeef29ea01ae23ecf1b633abff8067a410e510cd6649eb04253",
        "1dd5afe89c28c7b8d7db7efef89f3eea2f31090d11021fb89d2f6c979f2503be",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_run_outputs_match_their_pinned_bytes(tmp_path, name):
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "configs" / f"{name}.ini")
    parser["run"]["horizon"] = "300"
    short = tmp_path / f"{name}.ini"
    with short.open("w") as f:
        parser.write(f)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(short), "--reps", "3", "--out", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest() for f in ("trace.csv", "summary.json")
    )
    assert got == PINNED_OUTPUTS[name], numpy_platform()


#: sha256 of ``configs/ensemble.ini``'s outputs under ``diagnostics =
#: full-trace`` at horizon 150 with 5 replications: the printed ``linens
#: rates`` report, each replication's summary counters (``min_ensemble_fraction``
#: among them) as sorted JSON, and ``linens run``'s ``trace.csv`` and
#: ``summary.json``. ``PINNED_OUTPUTS`` runs monitors only, so these guard the
#: ensemble fraction. They move with ``PINNED_OUTPUTS``, and also when the
#: monitor report's fields change (``harness.monitor_report``), which moves
#: only ``rates`` and ``summary.json``; each move is logged in CHANGES.md.
PINNED_FULL_TRACE = {
    "rates": "b09608aa632d8ae31bcc2ab58849dff2419a7ec47bd0c184229e22ad888e8cd8",
    "summaries": "9668c7aee1c3ef7c65fc71b4e9e59806c01dcd8edd11c01e9bdb518bfc7a26d3",
    "trace.csv": "399f6139cbc545a54535ee3de96c41f0d7a4a98679af2e0d705f18207384c59e",
    "summary.json": "4bb970bb9a6a627057fc1b834776ef0a210eb0334d0dadb417b8ccdfb16fb702",
}


def test_full_trace_outputs_match_their_pinned_bytes(tmp_path, capsys):
    parser = configparser.ConfigParser()
    parser.read(Path(__file__).resolve().parents[1] / "configs" / "ensemble.ini")
    parser["run"]["horizon"] = "150"
    parser["run"]["diagnostics"] = "full-trace"
    path = tmp_path / "full-trace.ini"
    with path.open("w") as f:
        parser.write(f)
    capsys.readouterr()
    assert cli.main(["rates", "--config", str(path), "--reps", "5"]) == 0
    got = {"rates": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    cfg = load_config(path)
    rec = run_batch(cfg, range(5))
    assert "min_ensemble_fraction" in rec.counters
    # each replication's counters and the final regret that trace.csv
    # writes, as the dict that the pinned hash was taken of
    values = {name: counter.tolist() for name, counter in rec.counters.items()}
    values["final_regret"] = [rows_of(cfg, rec, i)["cum_regret"][-1].item() for i in range(5)]
    summaries = [{name: column[i] for name, column in values.items()} for i in range(5)]
    got["summaries"] = hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest()
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--reps", "5", "--out", str(out)]) == 0
    for f in ("trace.csv", "summary.json"):
        got[f] = hashlib.sha256((out / f).read_bytes()).hexdigest()
    assert got == PINNED_FULL_TRACE, numpy_platform()


class OutOfRangePolicy(GreedyRidge):
    """Greedy ridge that selects a given arm index, valid or not."""

    def __init__(self, arm_index, batch):
        super().__init__(2, 1.0, batch=batch)
        self.arm_index = arm_index

    def select(self, arms):
        return Selection(np.full(self.batch, self.arm_index), -1, self.ridge_estimate())


@pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
@pytest.mark.parametrize("arm_index", [4, -1], ids=["K", "negative"])
def test_interact_rejects_an_out_of_range_arm(arm_index, stacked):
    cfg = small_cfg(run__diagnostics="monitors")
    env = cfg.environment(replication_seeds(cfg, range(2)) if stacked else None)
    noise = env.noise.draws(range(2))
    monitor = StepMonitor(env, cfg.confidence_params(), replications=range(2))
    policy = OutOfRangePolicy(arm_index, batch=2)
    with pytest.raises(ValueError, match="out of range"):
        interact(policy, env, noise, 3, monitor)
    assert policy.step == 0


@pytest.mark.parametrize("monitored", [False, True], ids=["off", "monitors"])
def test_interact_returns_the_stored_columns_or_none(monitored):
    # the loop fills what a record stores, each (R, T): the decisions, and
    # the flags when a monitor runs
    cfg = small_cfg(run__diagnostics="monitors")
    env = cfg.environment()
    monitor = StepMonitor(env, cfg.confidence_params(), replications=range(2))
    policy = GreedyRidge(2, 1.0, batch=2)
    noise = env.noise.draws(range(2))
    cols = interact(policy, env, noise, 3, monitor if monitored else None)
    want = STORED_COLUMNS + (FLAG_COLUMNS if monitored else ())
    assert tuple(cols) == want
    assert all(col.shape == (2, 3) for col in cols.values())


class CyclingPolicy:
    """Pulls arm ``t mod K`` at step t in every replication; learns nothing."""

    def __init__(self, batch: int, arm_count: int):
        self.batch, self.arm_count, self.step = batch, arm_count, 0

    def select(self, arms):
        arm = np.full(self.batch, self.step % self.arm_count)
        return Selection(arm, np.full(self.batch, -1), None)

    def update(self, x, y):
        self.step += 1


def test_the_monitor_evaluates_each_block_once_at_its_end(monkeypatch):
    # rates-c4's shape: R = 200, d = 3, m = 4, T = 200. The monitor's block
    # holds 9 steps, so it evaluates ceil(200 / 9) = 23 blocks, each once
    # at its end
    cfg = small_cfg(
        env__dim=3,
        env__arm_count=6,
        env__sigma=1.0,
        policy__delta=0.2,
        run__horizon=200,
        run__replications=200,
        run__diagnostics="monitors",
    )
    replications = range(200)
    policy = cfg.build_policy(replication_seeds(cfg, replications))
    monitor = StepMonitor(cfg.environment(), cfg.confidence_params(), replications=replications)
    block = monitor.block_length(policy)
    assert block == 9
    evaluated = []
    flush = StepMonitor.flush

    def flushing(monitor):
        evaluated.append(range(monitor._first, monitor._first + monitor._held))
        return flush(monitor)

    monkeypatch.setattr(StepMonitor, "flush", flushing)
    run_batch(cfg, replications)
    blocks = [range(first, min(first + block, 201)) for first in range(1, 201, block)]
    assert len(blocks) == math.ceil(200 / block) == 23
    assert evaluated == blocks


def test_interact_without_a_trace_holds_no_regret_array():
    # the loop scores no regret: besides the decisions it stores, it never
    # holds an (R, T) array
    batch, horizon = 4, 20_000
    env = small_cfg().environment()
    noise = env.noise.draws(range(batch))
    tracemalloc.start()
    try:
        cols = interact(CyclingPolicy(batch, env.arm_count), env, noise, horizon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stored = sum(col.nbytes for col in cols.values())
    one_regret_array = batch * horizon * np.dtype(np.float64).itemsize
    assert peak - stored < one_regret_array / 2, (peak, stored, one_regret_array)
    assert tuple(cols) == STORED_COLUMNS
