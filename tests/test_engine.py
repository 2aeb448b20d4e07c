"""The lockstep engine: a replication's numbers do not depend on the batch
it runs in, nor on the number of worker processes."""

import numpy as np
import pytest

from linens import config, harness
from linens.config import ExperimentConfig
from linens.envs import NoiseModel
from linens.harness import (
    BATCH_SIZE,
    batches,
    emit_outputs,
    estimate_event_rates,
    replication_seeds,
    run_batch,
    run_equivalence_suite,
    run_monte_carlo,
    run_replications,
)
from linens.linalg import REINVERT_PERIOD
from linens.perturb import (
    TAG_ENV,
    TAG_NOISE,
    TAG_REPLICATION,
    PerturbationFamily,
    keyed_generator,
    mix_key,
    reward_draws,
    seed_prefixes,
)
from linens.policies import Keying


def make_cfg(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.env.dim = 3
    cfg.env.arm_count = 5
    cfg.env.sigma = 0.5
    cfg.policy.m = 6
    cfg.run.horizon = 40
    cfg.run.base_seed = 5
    for key, value in overrides.items():
        section, attr = key.split("__")
        setattr(getattr(cfg, section), attr, value)
    return cfg.validate()


def bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


CASES = {
    "ensemble": dict(run__diagnostics="off"),
    "ensemble-by-arm-count": dict(run__diagnostics="monitors", policy__keying="by_arm_count"),
    "ensemble-round-robin": dict(
        run__diagnostics="full-trace", policy__sampler="round_robin", policy__m=40
    ),
    "ensemble-uniform-family": dict(
        run__diagnostics="full-trace", policy__family="uniform", env__noise_family="uniform"
    ),
    "phe": dict(policy__name="phe", run__diagnostics="full-trace"),
    "phe-rademacher": dict(
        policy__name="phe", run__diagnostics="monitors", policy__family="rademacher"
    ),
    "linucb": dict(policy__name="linucb", run__diagnostics="monitors"),
    "lints": dict(policy__name="lints", run__diagnostics="full-trace"),
    "greedy": dict(policy__name="greedy", run__diagnostics="off"),
    "ensemble-past-reinversion": dict(
        env__dim=2, run__diagnostics="monitors", run__horizon=REINVERT_PERIOD + 76
    ),
}


def assert_batch_of_r_equals_r_batches_of_one(cfg: ExperimentConfig) -> None:
    together = run_batch(cfg, range(3))
    assert together.replications == range(3)
    for r in range(3):
        alone = run_batch(cfg, range(r, r + 1))
        for field in ("columns", "counters"):
            rows, row = getattr(together, field), getattr(alone, field)
            assert rows.keys() == row.keys()
            for name in rows:
                assert bits(rows[name][r : r + 1]) == bits(row[name]), name
    # the replications really differ, so the comparison is not vacuous
    reward = together.columns["reward"]
    assert bits(reward[0]) != bits(reward[1])


@pytest.mark.parametrize("case", CASES)
def test_batch_of_r_equals_r_batches_of_one(case):
    assert_batch_of_r_equals_r_batches_of_one(make_cfg(**CASES[case]))


@pytest.mark.parametrize("family", PerturbationFamily.ALL)
@pytest.mark.parametrize("keying", Keying.ALL)
def test_ensemble_reward_draws_do_not_depend_on_the_batch(family, keying):
    # one reward-draw call per step covers the whole batch
    cfg = make_cfg(policy__family=family, policy__keying=keying, run__horizon=25)
    assert_batch_of_r_equals_r_batches_of_one(cfg)


def test_batches_are_fixed_contiguous_blocks():
    blocks = batches(range(2 * BATCH_SIZE + 3))
    assert [len(b) for b in blocks] == [BATCH_SIZE, BATCH_SIZE, 3]
    assert [i for b in blocks for i in b] == list(range(2 * BATCH_SIZE + 3))


def test_rates_report_is_independent_of_workers():
    # more replications than one batch holds, so two workers share the work
    reps = BATCH_SIZE + 20
    cfg = make_cfg(run__horizon=6, run__diagnostics="full-trace", run__replications=reps)
    serial = estimate_event_rates(cfg)
    cfg.run.workers = 2
    parallel = estimate_event_rates(cfg)
    assert serial == parallel
    assert serial["replications"] == reps
    assert serial["total_checks"] == reps * 6


def test_outputs_do_not_depend_on_how_replications_are_batched(monkeypatch, tmp_path):
    # five replications in one batch, then in three batches of at most two,
    # in one process and over two workers: the files and the report are the
    # same bytes, so pooling and writing across batches keeps replication order
    cfg = make_cfg(run__diagnostics="full-trace", run__replications=5, run__horizon=20)

    def outputs(workers: int) -> tuple:
        cfg.run.workers = workers
        records, summary = run_monte_carlo(cfg)
        paths = emit_outputs(records, summary, tmp_path / f"{harness.BATCH_SIZE}-{workers}")
        return len(records), [p.read_bytes() for p in paths], estimate_event_rates(cfg)

    n_batches, *default = outputs(1)
    assert n_batches == 1
    monkeypatch.setattr(harness, "BATCH_SIZE", 2)
    for workers in (1, 2):
        n_batches, *got = outputs(workers)
        assert n_batches == 3
        assert got == default, workers


def test_equivalence_across_batches_and_workers():
    seeds = BATCH_SIZE + 5
    cfg = make_cfg(
        env__dim=2, env__arm_count=4, run__horizon=10, run__workers=2, run__replications=seeds
    )
    report = run_equivalence_suite(cfg)
    assert report.matches == seeds and report.failures == []
    # the negative control still fails, in every batch
    desync = run_equivalence_suite(cfg, desync=True)
    assert not desync.passed
    failed = [seed for seed, *_ in desync.failures]
    assert min(failed) < BATCH_SIZE <= max(failed)
    for seed, step, seq_es, seq_phe in desync.failures:
        assert seq_es[: step - 1] == seq_phe[: step - 1]
        assert seq_es[step - 1] != seq_phe[step - 1]


@pytest.mark.parametrize("family", ["gaussian", "uniform", "rademacher"])
def test_noise_is_a_pure_function_of_seed_replication_and_step(monkeypatch, family):
    # the reward of step t is the mean of the chosen arm plus the noise of
    # (base_seed, r, t), whatever the batch width or the worker count
    reps, horizon = 5, 12
    cfg = make_cfg(env__noise_family=family, run__horizon=horizon, run__workers=2)
    env = cfg.environment()
    seeds = [mix_key(cfg.run.base_seed, TAG_REPLICATION, r) for r in range(reps)]
    steps = np.arange(1, horizon + 1)[:, None]
    draws = reward_draws(env.noise.spec, seed_prefixes(seeds, TAG_NOISE), range(1), steps)
    noise = draws[..., 0].T  # row r: replication r's noise of steps 1..horizon
    monkeypatch.setattr(harness, "BATCH_SIZE", 2)  # three batches over two workers
    runs = {
        "workers": run_replications(cfg, range(reps)),
        "one batch": [run_batch(cfg, range(reps))],
        "batches of one": [run_batch(cfg, range(r, r + 1)) for r in range(reps)],
    }
    for name, records in runs.items():
        assert [r for rec in records for r in rec.replications] == list(range(reps)), name
        for rec in records:
            for r, arm, reward in zip(rec.replications, rec.columns["arm"], rec.columns["reward"]):
                assert bits(reward) == bits(env.pull(arm)[1] + noise[r]), name


def test_run_and_equivalence_share_the_noise_key_rule(monkeypatch):
    seen = []
    draws = NoiseModel.draws

    def spy(self, seeds):
        seen.append(list(seeds))
        return draws(self, seeds)

    monkeypatch.setattr(NoiseModel, "draws", spy)
    cfg = make_cfg(run__horizon=5, policy__m="auto", run__replications=3)
    run_batch(cfg, range(3))
    run_equivalence_suite(cfg)
    assert seen == [replication_seeds(cfg, range(3))] * 2


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, -1, -(2**63)])
def test_batched_seeds_follow_the_per_seed_mix_key_rule(seed):
    # one hash pass over a batch gives each seed's mix_key, with seeds taken
    # mod 2**64 (the desynchronized control's k + 1 can reach 2**64), and
    # the replication seeds stay Python ints for keyed_generator
    seeds = [seed, seed + 1, 7]
    assert seed_prefixes(seeds, TAG_NOISE).tolist() == [mix_key(s, TAG_NOISE) for s in seeds]
    cfg = make_cfg()
    cfg.run.base_seed = seed
    for reps in (range(3), range(256, 260)):
        got = replication_seeds(cfg, reps)
        assert got == [mix_key(seed, TAG_REPLICATION, r) for r in reps]
        assert all(type(k) is int for k in got)


@pytest.mark.parametrize("case", CASES)
def test_keyed_generator_builds_only_the_random_instances(monkeypatch, case):
    # Philox draws the random environment, once per instance, and nothing
    # per step: every other draw is the counter hash
    keys, philox = [], []
    real_philox = np.random.Philox

    def spy(*key):
        keys.append(key)
        return keyed_generator(*key)

    def counted_philox(*args, **kwargs):
        philox.append(args)
        return real_philox(*args, **kwargs)

    # more steps than one block of keyed draws holds; validating the config
    # builds its instance too, so it is built before the spies go in
    cfg = make_cfg(**{**CASES[case], "run__horizon": 70, "policy__m": 70})
    monkeypatch.setattr(config, "keyed_generator", spy)
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    run_batch(cfg, range(3))
    assert keys == [(cfg.run.base_seed, TAG_ENV)]
    keys.clear()
    cfg.run.replications = 4
    run_equivalence_suite(cfg)
    assert keys == [(k, TAG_ENV) for k in replication_seeds(cfg, range(4))]
    assert len(philox) == 5
