"""Span tracing of the package's layers, installed from outside the package.

`install` wraps the public functions of each layer module and patches every
`ecolever` module namespace that holds them, because `engine`, `analysis`,
`oracle` and `cli` bind names with `from .x import name` and look them up in
their own globals. Each wrapped call records a span (name, start, end, parent
span); the spans of one unit share the unit's id. Spans stay in memory and
are written out by `write_spans` at the end of the run.

A span's self time is its duration minus the durations of its direct
children. Calls are synchronous on one thread, so children never overlap and
the self times of all spans of a unit, the unit's root span included, add up
to the unit's traced time.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

# Per-call helpers cheaper than a span: wrapping them would mostly measure the
# wrapper, so their time stays in the caller's self time.
LEAF_HELPERS = frozenset({
    "to_decimal", "quantize_rate", "net_unit_cost", "format_decimal",
    "policy_dimensions",
})

# cli exposes one entry point; main's self time is parsing, dispatch and
# printing, with the other layers' spans as its children.
CLI_ENTRY = frozenset({"main"})

LAYERS = ("model", "lower", "engine", "analysis", "oracle", "scenario_io", "cli")

# Spans whose per-call durations are kept for medians.
PER_CALL = frozenset({"engine.evaluate_policy", "lower.solve_lower_milp"})

ROOT = "bench.unit"
EVALUATOR = "engine.pso_evaluator"


class Tracer:
    """Collects spans and per-name aggregates while `active` is set."""

    def __init__(self, max_spans: int):
        self.active = False
        self.names = []
        self._index = {}
        self.calls = []
        self.self_s = []
        self.inclusive_s = []
        self.per_call = {}
        self.counters = {}
        self._frames = []          # [span id, child seconds] per open span
        self._next_span = 0
        self.unit = -1
        self.unit_s = []
        self.max_spans = max_spans
        self.spans = []
        self._buffer = None
        self._patched = []

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.inclusive_s.append(0.0)
            if name in PER_CALL:
                self.per_call[idx] = []
        return idx

    def count(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _open(self):
        self._next_span += 1
        parent = self._frames[-1][0] if self._frames else 0
        frame = [self._next_span, 0.0]
        self._frames.append(frame)
        return frame, parent

    def _close(self, idx, frame, parent, start, end):
        self._frames.pop()
        duration = end - start
        if self._frames:
            self._frames[-1][1] += duration
        self.calls[idx] += 1
        self.self_s[idx] += duration - frame[1]
        self.inclusive_s[idx] += duration
        samples = self.per_call.get(idx)
        if samples is not None:
            samples.append(duration)
        if self._buffer is not None:
            if len(self._buffer) < self.max_spans - len(self.spans):
                self._buffer.append((self.unit, frame[0], parent, idx, start, end))
            else:
                self._buffer = None

    def span(self, name, fn, before=None, after=None):
        """Return fn wrapped to record a span while the tracer is active.

        before(args) may return replacement arguments; after(args, kwargs,
        result) may record counters.
        """
        idx = self.name_index(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            frame, parent = self._open()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, frame, parent, start, clock())
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def run_unit(self, unit_id, fn, *args):
        """Run fn(*args) as one traced unit under a root span."""
        idx = self.name_index(ROOT)
        self.unit = unit_id
        self._buffer = [] if len(self.spans) < self.max_spans else None
        self.active = True
        frame, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._close(idx, frame, parent, start, end)
            self.active = False
            self.unit_s.append(end - start)
            if self._buffer is not None:
                self.spans.extend(self._buffer)
            self._buffer = None

    def snapshot(self) -> dict:
        """Call counts and counters so far, keyed by name."""
        out = {name: self.calls[i] for i, name in enumerate(self.names)}
        out.update(self.counters)
        return out

    def install(self, package) -> None:
        """Wrap each layer's public functions wherever a module binds them."""
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in vars(module).items():
                if (not inspect.isfunction(obj) or obj.__module__ != module.__name__
                        or name.startswith("_") or name in LEAF_HELPERS
                        or (layer == "cli" and name not in CLI_ENTRY)):
                    continue
                wrappers[obj] = self.span(f"{layer}.{name}", obj,
                                          *self._hooks(f"{layer}.{name}"))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package.__name__ and not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def _hooks(self, name):
        """Counters read from arguments and results at layer boundaries."""
        if name == "engine.pso_run":
            # Trace the evaluator so pso_run's self time is the swarm loop alone.
            return (lambda args: (self.span(EVALUATOR, args[0]),) + tuple(args[1:]),
                    None)
        if name in ("engine.optimize", "analysis.closed_form_optimize"):
            return None, lambda a, k, r: self.count("engine.evaluations", r.evaluations)
        if name == "oracle.enumerate_lower":
            return None, lambda a, k, r: self.count("oracle.enumerate_lower.allocations", r.count)
        if name == "analysis.budget_sweep":
            def rows(args, kwargs, result):
                budgets = kwargs["budgets"] if "budgets" in kwargs else args[2]
                self.count("analysis.budget_sweep.budgets", len(budgets))
                self.count("analysis.budget_sweep.rows", len(result))
            return None, rows
        return None, None

    def median_s(self, name) -> float:
        """Median seconds per call of a PER_CALL span; 0 if it never ran."""
        samples = self.per_call.get(self._index.get(name), [])
        return statistics.median(samples) if samples else 0.0

    def write_spans(self, path, meta: dict) -> None:
        origin = self.spans[0][4] if self.spans else 0.0
        rows = [[u, s, p, i, round((a - origin) * 1e6, 3), round((b - origin) * 1e6, 3)]
                for u, s, p, i, a, b in self.spans]
        payload = {"meta": meta, "names": self.names,
                   "fields": ["unit", "span", "parent", "name", "start_us", "end_us"],
                   "spans": rows}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
