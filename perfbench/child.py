"""One measured ``linens`` CLI invocation.

Usage: python3 child.py --report FILE [--trace] [--setup-only] -- CLI ARGS...

Runs ``linens.cli.main(CLI ARGS)`` in this process, as the ``linens`` console
script would, and writes a JSON report to FILE: the monotonic clock when the
config was loaded and validated and when the command returned, the exit code,
peak resident memory, the library versions, and, with ``--trace``, the
per-layer trace. ``--setup-only`` stops right after the config is loaded.
The monotonic clock is shared by all processes, so the parent can subtract
its own spawn time.

Untraced, the invocation is interleaved with the reference computation of
``reference.py``: ``PRE_CHUNKS`` reference chunks run before the command,
a SIGALRM timer runs one every ``PERIOD_S`` seconds of the command's wall
time, and a set-up-only invocation runs ``PROBE_CHUNKS`` more after
loading, so that the reference samples the host's speed while the command
runs. The report gives the
reference time spent before and after loading and the chunk count; the
parent subtracts the reference time from the command's times.
"""

import argparse
import json
import signal
import sys
import time

#: Wall time between the end of one reference chunk and the start of the next.
PERIOD_S = 0.15

#: Reference chunks every invocation runs before the timer starts, after a
#: cold first chunk that is not counted.
PRE_CHUNKS = 2

#: Reference chunks a set-up-only invocation runs right after loading.
PROBE_CHUNKS = 4


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Interleave:
    """Runs reference chunks on a wall-clock timer and accounts for them."""

    def __init__(self, chunk):
        self.chunk = chunk
        self.expected = None  # the first chunk's checksum
        self.warm_s = 0.0  # the first chunk, which runs cold and is not counted
        self.times = []  # (start, duration) of every later chunk
        self.wrong = 0  # chunks whose checksum differs from the expected one

    def run_chunk(self) -> None:
        start = _now()
        value = self.chunk()
        took = _now() - start
        if self.expected is None:
            self.expected = value
            self.warm_s = took
            return
        self.times.append((start, took))
        self.wrong += value != self.expected

    def _on_alarm(self, signum, frame) -> None:
        self.run_chunk()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self, loaded: float | None) -> dict:
        """Reference time before and after the ``loaded`` mark. A chunk runs
        on the main thread, so it lies wholly on one side of the mark."""
        before = sum(t for start, t in self.times if loaded is None or start < loaded)
        after = sum(t for _, t in self.times) - before
        return {"warm_s": self.warm_s, "setup_s": before, "compute_s": after,
                "chunks": len(self.times), "wrong": self.wrong}


class _SetupDone(Exception):
    pass


def peak_rss_kib() -> int:
    """This process's peak resident set size. ``ru_maxrss`` is not used: on
    Linux it carries over the parent's size at fork across exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import numpy

    interleave = None
    if not args.trace:
        # the reference uses numpy, so the timer starts once numpy is imported
        import reference

        interleave = Interleave(reference.chunk)
        for _ in range(1 + PRE_CHUNKS):  # the first is the uncounted warm-up
            interleave.run_chunk()
        interleave.start()

    import linens
    import linens.cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    marks = {}
    load_config = linens.cli.load_config

    def timed_load_config(*a, **kw):
        cfg = load_config(*a, **kw)
        marks.setdefault("loaded", _now())
        if args.setup_only:
            raise _SetupDone
        return cfg

    linens.cli.load_config = timed_load_config
    try:
        rc = linens.cli.main(cli_args)
    except _SetupDone:
        rc = 0
        if interleave is not None:
            interleave.stop()
            for _ in range(PROBE_CHUNKS):
                interleave.run_chunk()
    if interleave is not None:
        interleave.stop()
    end = _now()
    sys.stdout.flush()

    report = {
        "rc": rc,
        "loaded": marks.get("loaded"),
        "end": end,
        "peak_rss_kib": peak_rss_kib(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "have_compiled_kernels": bool(linens.HAVE_COMPILED_KERNELS),
        "linens_file": linens.__file__,
        "reference": None if interleave is None else interleave.report(marks.get("loaded")),
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
