"""Span tracer that measures the mfbsde layers from outside the package.

`Tracer.install()` wraps every public function of each layer module, the two
hot methods `RegressionBasis.design` and `Generator.component`, and
`numpy.linalg.lstsq` (called only by `engine.project`).  The package binds
names with `from .engine import project` and the like, so a wrapper is
written into every `mfbsde` module (and every module-level dict, such as
`CATALOG`) that holds the original object, not only into the defining
module.  `uninstall()` puts every original back.

A span is a list `[name, start, end, parent, op, error]`: `parent` is the
index of the enclosing span (-1 at the top), `op` the id of the operation or
set-up repeat it belongs to, `error` the exception class name when the call
raised.  Spans stay in memory until `write()`; `summarize()` turns them into
per-name inclusive time, self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "mfbsde"
LAYERS = (
    "engine", "qbsde1d", "picard", "global_solver",
    "model", "constants", "benchmarks", "cli",
)
# (layer, class, method) traced as "<layer>.<method>".
METHODS = (
    ("engine", "RegressionBasis", "design"),
    ("model", "Generator", "component"),
)
# (span name, owner, attribute): functions outside the package, traced
# because one layer spends most of its time in them.
EXTERNAL = (("engine.lstsq", np.linalg, "lstsq"),)


def _inspect_project(counts, result):
    counts["engine.fallbacks"] += int(result[1].fallback)


def _inspect_design(counts, result):
    counts["engine.design_bytes"] += result.nbytes


def _inspect_solve_1d(counts, result):
    counts["qbsde1d.truncation_hits"] += result.truncation_hits


def _inspect_solve_auto(counts, result):
    counts["global_solver.windows"] += len(result.windows)
    counts["global_solver.fallbacks"] += int(result.mode == "full-interval-fallback")


# Counters read off return values at the layer boundary.
INSPECTORS = {
    "engine.project": _inspect_project,
    "engine.design": _inspect_design,
    "qbsde1d.solve_1d": _inspect_solve_1d,
    "global_solver.solve_auto": _inspect_solve_auto,
}


def _layer_functions(module):
    """Public functions defined in (not imported into) a layer module."""
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()      # counters of the open region
        self.op_counts: dict[int, Counter] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ---------------------------------------------------------------- wrapping
    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        inspector = INSPECTORS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, ""]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if inspector is not None:
                inspector(self.counts, result)
            return result

        return traced

    def _set(self, owner, attr, value, is_item=False):
        old = owner[attr] if is_item else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer; raises if the tracer is already installed."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in _layer_functions(module):
                wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        # Every module of the package that holds an original gets the wrapper.
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            self._set(obj, key, wrappers[val], is_item=True)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), cls_name)
            self._set(cls, meth, self._wrap(f"{layer}.{meth}", vars(cls)[meth]))
        for name, owner, attr in EXTERNAL:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, old, is_item in reversed(self._patches):
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    def run(self, op: int, name: str, fn):
        """Call fn() traced, as the root span `name` of operation id `op`."""
        self.install()
        self.op, self.counts = op, Counter()
        try:
            return self._wrap(name, fn)()
        finally:
            self.uninstall()
            self.op_counts[op] = self.counts
            self.op = None

    # --------------------------------------------------------------- results
    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "error": error}) + "\n")


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call adds to an untraced one, timed on a no-op.

    Times spans x span_cost() estimates the tracing overhead of a run more
    steadily than traced minus untraced wall, which is within run-to-run
    noise on a loaded box."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrap("bench.noop", noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(calls):
        noop()
    t1 = clock()
    for _ in range(calls):
        traced()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def summarize(spans, ops=None) -> dict:
    """Inclusive time, self time and calls per span name, plus per-layer self
    time and calls; `ops` restricts to spans of those operation ids.

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside their parent.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    incl, self_t, calls = Counter(), Counter(), Counter()
    errors = Counter()
    for idx, (name, start, end, parent, op, error) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        dur = end - start
        incl[name] += dur
        self_t[name] += dur - child_time[idx]
        calls[name] += 1
        if error:
            errors[(name, error)] += dur
    layer_self, layer_calls = Counter(), Counter()
    for name in calls:
        layer = name.split(".", 1)[0]
        layer_self[layer] += self_t[name]
        layer_calls[layer] += calls[name]
    return {
        "incl": incl, "self": self_t, "calls": calls, "errors": errors,
        "layer_self": layer_self, "layer_calls": layer_calls,
    }
