"""Span tracing around the calls into each dcjac layer.

The tracer replaces public functions at every module binding (``dcjac.cli``
imports ``clarke_jacobian_element`` by name, ``dcjac.oracle`` binds scipy's
``linprog``), plus the two ``SmoothFn`` methods every layer calls.  A span
is named after the module that defines the function, or after the binding
module for a foreign function (``oracle.linprog``).  Spans stay in memory
as tuples and are written out only when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "expr", "dcmax", "jacobian", "oracle", "newton")
FOREIGN = {("oracle", "linprog"), ("newton", "lu_factor")}
METHODS = (("expr", "SmoothFn", "eval"), ("expr", "SmoothFn", "grad"))
PROBE_COUNT = 4096  # samples per brute_force_subdifferential call (oracle default)


class Tracer:
    """Records (name, start, end, parent, op) spans plus the counters the
    per-layer metrics need.  ``parent`` is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct: dict[str, set] = defaultdict(set)
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs
        outside the span and feeds the counters."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters fed from return values -----------------------------------

    def _piece_point(self, key):
        def after(args, result):
            piece, x = args[0], args[1]
            point = np.ascontiguousarray(x, dtype=float).tobytes()
            self.distinct[key].add((self.op, id(piece), point))

        return after

    def _hull(self, args, result):
        self.counts["oracle.hull_membership.iterations"] += result.iterations

    def _brute_force(self, args, result):
        if isinstance(result, tuple):  # called with return_report=True
            self.counts["oracle.samples_kept"] += result[1].samples_kept
        self.counts["oracle.samples_drawn"] += PROBE_COUNT

    def _newton(self, args, result):
        self.counts["newton.iterations"] += len(result.steps) - 1

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        """Wrap every public dcjac function at every binding in the layer
        modules, the foreign functions in FOREIGN and the METHODS."""
        after = {
            "oracle.hull_membership": self._hull,
            "oracle.brute_force_subdifferential": self._brute_force,
            "newton.solve": self._newton,
            "expr.SmoothFn.eval": self._piece_point("expr.eval"),
            "expr.SmoothFn.grad": self._piece_point("expr.grad"),
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dcjac.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if (layer, attr) in FOREIGN:
                    name = f"{layer}.{attr}"
                elif home.startswith("dcjac.") and home != "dcjac.cli":
                    name = f"{home[len('dcjac.'):]}.{obj.__name__}"
                else:
                    continue  # cli's own helpers count as cli.main self time
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(name, obj, after.get(name))
                self._patches.append((module, attr, obj, wrappers[id(obj)]))
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"dcjac.{layer}"), cls_name)
            name = f"{layer}.{cls_name}.{method}"
            original = vars(cls)[method]
            self._patches.append((cls, method, original, self.wrap(name, original, after.get(name))))
        self.enable()

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total self time).

    A span's self time is its duration minus the part of that interval
    covered by its direct children; overlapping children count once."""
    children: dict[int, list] = defaultdict(list)
    for index, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for index, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, total) for name, (calls, total) in out.items()}
