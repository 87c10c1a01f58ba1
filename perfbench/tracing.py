"""Spans around calls into the package's public functions, recorded from outside.

The tracer never edits the package. It swaps each traced function for a
wrapper on every already-imported package module that binds the name, which
is where callers look it up at call time (`binpack.classify`,
`cli.solve`, ...). A traced class gets a wrapped `__init__`. A layer whose
module or function no longer exists is reported as missing, never as a
crash.

A span records its layer name, start and end in nanoseconds, the span that
caused it and the benchmark op it belongs to. Aggregates (calls, inclusive
and self time) are kept for every span; the raw spans are kept in memory up
to SPAN_CAP and handed out at the end. A layer's self time is its duration
minus the time its direct child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time

PACKAGE = "harmonic_knapsack"

# Public functions and classes whose calls become spans, as "module.name".
LAYERS = (
    "solvers.solve",
    "ip_model.solve_brute",
    "solvers.solve_closed_form",
    "solvers.greedy_solution",
    "sylvester.sylvester_table",
    "analysis.build_witness",
    "analysis.tinf_bracket",
    "binpack.adversarial_instance",
    "binpack.harmonic_pack",
    "harmonic.KnapsackInstance",
    "harmonic.classify",
    "exactnum.to_decimal",
)

# Work counts read from a layer's arguments and result. Each read is O(1),
# so counting adds no per-item work to the traced run.
COUNTERS = {
    "ip_model.solve_brute": lambda args, result: {
        "nodes": result.nodes_visited,
        "leaves": result.feasible_count,
    },
    "binpack.harmonic_pack": lambda args, result: {
        "items": len(args[1]),
        "bins": result.bins_used,
    },
}

# Counts summed over the first COUNT_OPS ops only, so they depend on the seed
# and never on how many ops a run managed to finish.
COUNT_OPS = 100
SPAN_CAP = 10_000


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.op_id = -1
        self.spans: list[tuple] = []
        self.totals: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.window: dict[str, dict[str, int]] = {}  # counts over ops < COUNT_OPS
        self.overall: dict[str, dict[str, int]] = {}  # counts over every op
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    def _record(self, name, fn, args, kwargs, counter):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0] if stack else None
        frame = [span_id, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, name, start, end, self.op_id))
        if counter is not None:
            self._count(name, counter, args, result)
        return result

    def _count(self, name, counter, args, result):
        try:
            counts = counter(args, result)
        except (AttributeError, IndexError, TypeError):
            if name + " counts" not in self.missing:
                self.missing.append(name + " counts")
            return
        targets = [self.overall.setdefault(name, {})]
        if self.op_id < COUNT_OPS:
            targets.append(self.window.setdefault(name, {}))
        for target in targets:
            for key, value in counts.items():
                target[key] = target.get(key, 0) + value

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, counter)

        return traced

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op as the root span that its layer spans hang off."""
        self.op_id = op_id
        return self._record("op", fn, args, {}, None)

    def install(self):
        """Patch every layer in LAYERS; record the ones that do not exist."""
        found = []
        for layer in LAYERS:
            module_name, attr = layer.split(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(layer)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(layer)
            else:
                found.append((layer, original))
        loaded = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, original in found:
            counter = COUNTERS.get(layer)
            if isinstance(original, type):
                init = original.__init__
                self._patches.append((original, "__init__", init))
                setattr(original, "__init__", self.wrap(layer, init, counter))
                continue
            wrapper = self.wrap(layer, original, counter)
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def self_ns(self, layer):
        return self.totals.get(layer, [0, 0, 0])[2]

    def calls(self, layer):
        return self.totals.get(layer, [0, 0, 0])[0]

    def incl_ns(self, layer):
        return self.totals.get(layer, [0, 0, 0])[1]
