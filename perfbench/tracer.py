"""Out-of-tree tracing of the linens package layers.

The tracer replaces the public functions and methods of each linens module
with timing wrappers, at every module or class attribute that binds them
(``keyed_generator``, for example, is bound in both ``perturb`` and
``harness``). No source file is changed. Each wrapped call is one span with a
name, start, end and parent; self time is the span's duration minus the part
covered by its child spans and is accumulated for every call, while full span
records are kept in memory only for the first ``span_limit`` calls and written
out once, when the run ends.

Besides calls and self time, a few calls feed exact counters that repeat
between runs of the same code and inputs: keyed-generator keys, perturbation
values drawn, perturbed-history rows, computed kernel flops and emitted bytes.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
from time import perf_counter

#: Module suffix -> layer name. The kernel module is whichever backend
#: ``linens.backend`` selected.
LAYERS = {
    "config": "config",
    "harness": "harness",
    "perturb": "perturb",
    "policies": "policies",
    "linalg": "linalg",
    "_kernels_py": "kernels",
    "_kernels": "kernels",
    "diagnostics": "diagnostics",
    "envs": "envs",
}

#: Private functions that are layers of their own: the harness's
#: interaction loops.
PRIVATE_TRACED = {"harness": ("_diagnosed_replication", "_arm_sequence")}

ROOT = "cli.main"


def _size(shape) -> int:
    if shape is None:
        return 1
    if isinstance(shape, int):
        return shape
    return math.prod(shape)


class Tracer:
    """Call counts, self times, bounded spans and exact counters."""

    def __init__(self, span_limit: int = 50_000):
        self.span_limit = span_limit
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.counters = {
            "keyed_generator_keys": set(),
            "reward_vector_values": 0,
            "sample_values": 0,
            "history_rows": 0,
            "kernel_flops": 0,
            "emitted_bytes": 0,
        }
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(args, kwargs)`` runs ahead of the call and ``after(result)``
        after it; both update exact counters and are timed into the span.
        """
        calls, self_s, stack, spans = self.calls, self.self_s, self._stack, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        limit = self.span_limit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, perf_counter(), 0.0]
            stack.append(frame)
            try:
                if before is not None:
                    before(args, kwargs)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_s[name] += duration - frame[2]
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if sid < limit:
                    spans.append((sid, name, frame[1], end, parent))

        return traced

    # -- counters ---------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def keyed_generator(args, kwargs):
            c["keyed_generator_keys"].add(tuple(args))

        def reward_vector(args, kwargs):
            c["reward_vector_values"] += int(args[2])

        def sample(args, kwargs):
            size = args[2] if len(args) > 2 else kwargs.get("size")
            c["sample_values"] += _size(size)

        def estimator(args, kwargs):
            c["history_rows"] += args[0].step

        # flop counts follow the pure kernels' numpy operations
        def rank1_update(args, kwargs):
            d = len(args[2])
            c["kernel_flops"] += 7 * d * d + 2 * d

        def quad_form(args, kwargs):
            d = len(args[1])
            c["kernel_flops"] += 2 * d * d + 2 * d

        def accumulate_perturbed(args, kwargs):
            c["kernel_flops"] += 2 * args[0].size

        def emitted(paths):
            c["emitted_bytes"] += sum(os.path.getsize(p) for p in paths)

        return {
            "perturb.keyed_generator": (keyed_generator, None),
            "perturb.PerturbationStream.reward_vector": (reward_vector, None),
            "perturb.PerturbationSpec.sample": (sample, None),
            "policies.LinPHE.estimator": (estimator, None),
            "kernels.rank1_update": (rank1_update, None),
            "kernels.quad_form": (quad_form, None),
            "kernels.accumulate_perturbed": (accumulate_perturbed, None),
            "harness.emit_outputs": (None, emitted),
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the linens layers, and
        ``linens.cli.main`` as the root span."""
        import linens.backend
        import linens.cli

        modules = {}
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name.startswith("linens.") and name.rsplit(".", 1)[1] in LAYERS:
                modules[name] = mod
        kernels = linens.backend.kernels
        modules[kernels.__name__] = kernels

        hooks = self._hooks()
        replaced = {}  # id(original function) -> wrapper
        for mod_name, mod in modules.items():
            suffix = mod_name.rsplit(".", 1)[1]
            layer = LAYERS[suffix]
            private = PRIVATE_TRACED.get(suffix, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod_name:
                    continue
                if inspect.isroutine(obj) and (not attr.startswith("_") or attr in private):
                    name = f"{layer}.{attr}"
                    before, after = hooks.get(name, (None, None))
                    replaced[id(obj)] = self.wrap(name, obj, before, after)
                elif inspect.isclass(obj) and not issubclass(obj, (BaseException, tuple)):
                    self._wrap_class(layer, obj, hooks)

        # rebind each wrapped function wherever linens imported it by name
        for mod in [m for n, m in sys.modules.items() if n == "linens" or n.startswith("linens.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

        linens.cli.main = self.wrap(ROOT, linens.cli.main)

    def _wrap_class(self, layer: str, cls, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, before, after)))
            elif isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, before, after)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw, before, after))

    # -- report -----------------------------------------------------------

    def report(self) -> dict:
        c = self.counters
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": {
                "keyed_generator_distinct_keys": len(c["keyed_generator_keys"]),
                "reward_vector_values": c["reward_vector_values"],
                "sample_values": c["sample_values"],
                "history_rows": c["history_rows"],
                "kernel_flops": c["kernel_flops"],
                "emitted_bytes": c["emitted_bytes"],
            },
            "spans_total": self._next_id,
            "spans": [list(s) for s in self.spans],
        }
