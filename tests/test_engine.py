"""The lockstep engine: a replication's numbers do not depend on the batch
it runs in, nor on the number of worker processes."""

from itertools import accumulate

import numpy as np
import pytest

from linens import harness
from linens.config import ExperimentConfig
from linens.envs import LinearBanditEnv, NoiseFamily, NoiseModel
from linens.harness import (
    BATCH_SIZE,
    batches,
    emit_outputs,
    estimate_event_rates,
    replication_seeds,
    run_batch,
    run_equivalence_suite,
    run_replications,
)
from linens.linalg import REINVERT_PERIOD
from linens.perturb import (
    TAG_NOISE,
    TAG_REPLICATION,
    PerturbationFamily,
    mix_key,
    reward_draws,
    seed_prefixes,
)


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
    "ensemble-rademacher": dict(run__diagnostics="monitors", policy__family="rademacher"),
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


def run_seen(cfg: ExperimentConfig, replications: range) -> tuple:
    """``run_batch``'s record of ``replications`` and the ``(R, T)``
    rewards that its policy's ``update`` received, step by step."""
    seen = []
    build = ExperimentConfig.build_policy

    def spying(self, seeds):
        policy = build(self, seeds)
        update = policy.update

        def spy(x, y):
            seen.append(np.array(y))
            update(x, y)

        policy.update = spy
        return policy

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExperimentConfig, "build_policy", spying)
        record = run_batch(cfg, replications)
    return record, np.stack(seen, axis=1)


def assert_batch_of_r_equals_r_batches_of_one(cfg: ExperimentConfig) -> None:
    together, rewards = run_seen(cfg, range(3))
    assert together.replications == range(3)
    for r in range(3):
        alone, reward = run_seen(cfg, range(r, r + 1))
        assert bits(rewards[r : r + 1]) == bits(reward)
        for field in ("columns", "counters"):
            rows, row = getattr(together, field), getattr(alone, field)
            assert rows.keys() == row.keys()
            for name in rows:
                assert bits(rows[name][r : r + 1]) == bits(row[name]), name
    # the replications really differ, so the comparison is not vacuous
    assert bits(rewards[0]) != bits(rewards[1])


@pytest.mark.parametrize("case", CASES)
def test_batch_of_r_equals_r_batches_of_one(case):
    assert_batch_of_r_equals_r_batches_of_one(make_cfg(**CASES[case]))


@pytest.mark.parametrize("family", PerturbationFamily.ALL)
def test_ensemble_reward_draws_do_not_depend_on_the_batch(family):
    # one reward-draw call per block of steps covers the whole batch
    cfg = make_cfg(policy__family=family, run__horizon=25)
    assert_batch_of_r_equals_r_batches_of_one(cfg)


def test_batches_are_fixed_contiguous_blocks():
    blocks = list(batches(range(2 * BATCH_SIZE + 3)))
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
    # same bytes, so tallying and writing across batches keeps replication
    # order, and the summary reads the counters' exact int totals
    cfg = make_cfg(run__diagnostics="full-trace", run__replications=5, run__horizon=20)
    aggregate, tallied = harness.aggregate, []

    def spy(cfg, regret, totals):
        tallied.append(totals)
        return aggregate(cfg, regret, totals)

    def outputs(workers: int) -> tuple:
        cfg.run.workers = workers
        written = []

        def batches_written(records):
            for rec in records:
                written.append(rec.replications)
                yield rec

        records = batches_written(run_replications(cfg, range(5)))
        paths = emit_outputs(records, cfg, tmp_path / f"{harness.BATCH_SIZE}-{workers}")
        return written, [p.read_bytes() for p in paths], estimate_event_rates(cfg)

    written, *default = outputs(1)
    assert written == [range(5)]
    monkeypatch.setattr(harness, "BATCH_SIZE", 2)
    monkeypatch.setattr(harness, "aggregate", spy)
    for workers in (1, 2):
        written, *got = outputs(workers)
        assert written == [range(0, 2), range(2, 4), range(4, 5)]
        assert got == default, workers
        assert {type(total) for total in tallied.pop().values()} == {int}


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
    # the rewards each policy received, in one batch and in batches of one
    runs = {
        "one batch": [run_seen(cfg, range(reps))],
        "batches of one": [run_seen(cfg, range(r, r + 1)) for r in range(reps)],
    }
    for name, records in runs.items():
        assert [r for rec, _ in records for r in rec.replications] == list(range(reps)), name
        for rec, rewards in records:
            for r, arm, reward in zip(rec.replications, rec.columns["arm"], rewards):
                assert bits(reward) == bits(env.pull(arm)[1] + noise[r]), name
    # in three batches over two workers, each replication makes the same decisions
    monkeypatch.setattr(harness, "BATCH_SIZE", 2)
    arms = np.concatenate([rec.columns["arm"] for rec in run_replications(cfg, range(reps))])
    assert bits(arms) == bits(runs["one batch"][0][0].columns["arm"])


@pytest.mark.parametrize("family", NoiseFamily.ALL)
def test_the_written_trace_is_what_the_loop_saw(monkeypatch, tmp_path, family):
    # trace.csv, written here from three batches over two workers, holds
    # the reward each policy received, optimal_value - mean as the instant
    # regret and the running sums of those gaps from +0.0, added one step
    # after another, as the cumulative one, bit for bit
    reps = 5
    cfg = make_cfg(
        env__noise_family=family, run__horizon=30, run__replications=reps, run__workers=2
    )
    env = cfg.environment()
    rec, rewards = run_seen(cfg, range(reps))
    gaps = env.optimal_value - env.pull(rec.columns["arm"])[1]
    sums = np.array([list(accumulate(row, initial=0.0))[1:] for row in gaps.tolist()])
    assert gaps.shape == sums.shape == (reps, 30)
    monkeypatch.setattr(harness, "BATCH_SIZE", 2)
    trace, _ = emit_outputs(run_replications(cfg, range(reps)), cfg, tmp_path)
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    written = np.array([[float(v) for v in row[4:7]] for row in rows]).reshape(reps, 30, 3)
    for k, want in enumerate((rewards, gaps, sums)):
        assert np.array_equal(written[..., k].view(np.int64), want.view(np.int64)), k


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
    # the replication seeds stay Python ints
    seeds = [seed, seed + 1, 7]
    assert seed_prefixes(seeds, TAG_NOISE).tolist() == [mix_key(s, TAG_NOISE) for s in seeds]
    cfg = make_cfg()
    cfg.run.base_seed = seed
    for reps in (range(3), range(256, 260)):
        got = replication_seeds(cfg, reps)
        assert got == [mix_key(seed, TAG_REPLICATION, r) for r in reps]
        assert all(type(k) is int for k in got)


@pytest.mark.parametrize("case", CASES)
def test_no_draw_builds_a_philox_generator(monkeypatch, case):
    # every random value is the counter hash, the random instances too,
    # which are drawn once per batch: the base seed's shared one for a run,
    # and one per seed for the equivalence suite
    instances, philox = [], []
    random = LinearBanditEnv.random.__func__
    real_philox = np.random.Philox

    def spy(cls, *args):
        instances.append(args[-1])
        return random(cls, *args)

    def counted_philox(*args, **kwargs):
        philox.append(args)
        return real_philox(*args, **kwargs)

    # more steps than one block of keyed draws holds
    cfg = make_cfg(**{**CASES[case], "run__horizon": 70, "policy__m": 70})
    monkeypatch.setattr(LinearBanditEnv, "random", classmethod(spy))
    monkeypatch.setattr(np.random, "Philox", counted_philox)
    run_batch(cfg, range(3))
    assert instances == [cfg.run.base_seed]
    instances.clear()
    cfg.run.replications = 4
    run_equivalence_suite(cfg)
    assert instances == [replication_seeds(cfg, range(4))]
    assert philox == []


def test_each_seeds_instance_is_the_same_in_any_batch(monkeypatch):
    cfg = make_cfg()
    seeds = replication_seeds(cfg, range(6))
    stacked = cfg.environment(seeds)
    assert stacked.arms.shape == (6, 5, 3)
    for i, seed in enumerate(seeds):
        alone = cfg.environment([seed])
        assert bits(alone.arms[0]) == bits(stacked.arms[i])
        assert bits(alone.theta_star[0]) == bits(stacked.theta_star[i])
    shared, own = cfg.environment(), cfg.environment([cfg.run.base_seed])
    assert bits(shared.arms) == bits(own.arms[0])
    assert bits(shared.theta_star) == bits(own.theta_star[0])
    # the equivalence suite's blocks draw the rows of the whole batch
    built = []
    environment = ExperimentConfig.environment

    def spy(self, seeds=None):
        built.append(environment(self, seeds))
        return built[-1]

    monkeypatch.setattr(ExperimentConfig, "environment", spy)
    whole = harness._equivalence_batch(cfg, False, range(6))
    blocks = [harness._equivalence_batch(cfg, False, r) for r in (range(1), range(1, 6))]
    assert len(built) == 3
    for name in ("arms", "theta_star"):
        rows = np.concatenate([getattr(env, name) for env in built[1:]])
        assert bits(rows) == bits(getattr(built[0], name)) == bits(getattr(stacked, name))
    for k in range(2):
        assert bits(np.concatenate([b[k] for b in blocks])) == bits(whole[k])
