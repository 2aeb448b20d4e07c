"""Command-line entry points.

Subcommands, each loading its config under its own name, which rejects a
key it would not read (:meth:`~linens.config.ExperimentConfig.reads`):
  run          Monte-Carlo experiment from a config file.
  equivalence  Round-robin-ensemble vs perturbed-history equality check over
               ``run.replications`` seeds (``--seeds``).
  rates        Empirical event-rate study.
  sweep        Re-run the experiment across values of one parameter.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .config import load_config
from .harness import (
    emit_outputs,
    estimate_event_rates,
    run_equivalence_suite,
    run_replications,
    staged,
    summarize,
)

#: Sweepable parameter -> the config field it sets.
SWEEP_FIELDS = {"T": "horizon", "d": "dim", "m": "m", "K": "arm_count"}


def _cmd_run(args) -> int:
    given = {"base_seed": args.seed, "replications": args.reps, "out_dir": args.out}
    cfg = load_config(args.config, **{k: v for k, v in given.items() if v is not None})
    records = run_replications(cfg, range(cfg.run.replications))
    trace_path, summary_path = emit_outputs(records, cfg, cfg.run.out_dir)
    summary = json.loads(summary_path.read_text())
    final = summary["checkpoints"][-1]
    print(f"replications: {summary['replications']}")
    print(f"mean final regret: {final['mean']:.6g} (median {final['median']:.6g})")
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def _cmd_equivalence(args) -> int:
    given = {} if args.seeds is None else {"replications": args.seeds}
    report = run_equivalence_suite(load_config(args.config, "equivalence", **given))
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}: {report.matches}/{report.seeds} seeds with identical arm sequences")
    for seed, step, seq_a, seq_b in report.failures:
        print(f"  seed {seed}: first divergence at step {step}")
        print(f"    ensemble:          {seq_a}")
        print(f"    perturbed-history: {seq_b}")
    return 0 if report.passed else 1


def _cmd_rates(args) -> int:
    given = {} if args.reps is None else {"replications": args.reps}
    report = estimate_event_rates(load_config(args.config, "rates", **given))
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _sweep_values(text: str) -> list[int]:
    """The integers of ``--values``: each entry once, as each value has one
    output directory."""
    values = []
    for entry in text.split(","):
        if not entry.strip():
            raise ValueError(f"--values {text!r} has an empty entry")
        try:
            value = int(entry)
        except ValueError:
            raise ValueError(f"--values entry {entry!r} is not an integer") from None
        if value in values:
            raise ValueError(f"--values entry {entry!r} repeats the value {value}")
        values.append(value)
    return values


def _cmd_sweep(args) -> int:
    key = SWEEP_FIELDS[args.param]
    # every swept config is loaded, and so validated, before the first run
    # writes anything
    runs = []
    for value in _sweep_values(args.values):
        cfg = load_config(args.config, "sweep", **{key: value})
        runs.append((value, cfg))
    out_root = Path(args.out if args.out else cfg.run.out_dir)
    combined = []
    for value, sub in runs:
        summary = summarize(sub, run_replications(sub, range(sub.run.replications)))
        out = out_root / f"sweep_{args.param}_{value}"
        out.mkdir(parents=True, exist_ok=True)
        with staged(out / "summary.json") as (partial,):
            partial.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        final = summary["checkpoints"][-1]
        combined.append({"value": value, "mean_final_regret": final["mean"]})
        print(f"{args.param}={value}: mean final regret {final['mean']:.6g}")
    with staged(out_root / f"sweep_{args.param}.json") as (partial,):
        partial.write_text(json.dumps(combined, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linens", description="Linear bandit simulation experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte-Carlo experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--reps", type=int)
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_eq = sub.add_parser("equivalence", help="run the policy-equality suite")
    p_eq.add_argument("--config", required=True)
    p_eq.add_argument("--seeds", type=int)
    p_eq.set_defaults(func=_cmd_equivalence)

    p_rates = sub.add_parser("rates", help="estimate event rates")
    p_rates.add_argument("--config", required=True)
    p_rates.add_argument("--reps", type=int)
    p_rates.set_defaults(func=_cmd_rates)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=tuple(SWEEP_FIELDS))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. An input it rejects (a ``ValueError``, or an
    ``OSError`` such as a missing config file) ends in one line on stderr
    and exit status 2, as a bad argument does, and so does a run that
    cannot allocate its arrays (a ``MemoryError``). Each distinct warning is
    one line on stderr, ``linens: warning: <message>``, shown once however
    many of the command's configs raise it (``sweep`` loads one per value)."""
    args = build_parser().parse_args(argv)
    shown = set()

    def show(message, *_):
        if str(message) not in shown:
            shown.add(str(message))
            print(f"linens: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"linens: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
