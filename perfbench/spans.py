"""Tracing wrappers installed from outside the program.

`install()` wraps every public function of the traced `qc` modules, plus
`VSpace.__init__`, so each call records a span (name, start, end, parent).
Because the modules import each other's names (`from .vspace import ...`),
every alias of a wrapped function in every loaded `qc` module is rebound.
Quantale element operations are far too many for spans (millions per
verify run); their methods on `ExtendedRationalQuantale` and
`FiniteQuantale` are counted and timed in aggregate instead, and the
element time spent inside each span is recorded with the span so that
self times exclude it.

Spans live in typed arrays in memory and are written out by `dump()` when
the run ends.  A span's self time is its duration minus its child spans
and the element-operation time charged directly to it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("quantale", "vspace", "filters", "completion", "structures", "verify",
          "serialize", "cli")
ELEMENT_CLASSES = ("ExtendedRationalQuantale", "FiniteQuantale")


class Tracer:
    """Span store plus element-operation aggregates for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_elem = array("q")  # element time inside the span, children included
        self._stack: list[int] = []
        self._elem_at_entry: list[int] = []
        self.elem_ns = 0
        self._elem_depth = 0
        self.elem_calls: dict[str, list] = {}
        self.hooks = dict(HOOKS)
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span_wrapper(self, name: str, fn):
        nid = self.name_id(name)
        hook = self.hooks.get(name)
        stack, entry = self._stack, self._elem_at_entry
        names, parents = self.span_name, self.span_parent
        starts, ends, elems = self.span_start, self.span_end, self.span_elem

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            elems.append(0)
            stack.append(idx)
            entry.append(self.elem_ns)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                elems[idx] = self.elem_ns - entry.pop()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def element_wrapper(self, op: str, fn):
        calls = self.elem_calls.setdefault(op, [0])

        def counted(*args, **kwargs):
            calls[0] += 1
            if self._elem_depth:
                return fn(*args, **kwargs)
            self._elem_depth = 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.elem_ns += perf_counter_ns() - t0
                self._elem_depth = 0

        counted.__wrapped__ = fn
        return counted

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # --- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; element aggregates."""
        n = len(self.span_start)
        self_ns = [self.span_end[i] - self.span_start[i] for i in range(n)]
        direct_elem = list(self.span_elem)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                self_ns[p] -= self.span_end[i] - self.span_start[i]
                direct_elem[p] -= self.span_elem[i]
        per_name: dict[str, dict] = {}
        for i in range(n):
            rec = per_name.setdefault(
                self.names[self.span_name[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            rec["calls"] += 1
            rec["total_s"] += (self.span_end[i] - self.span_start[i]) / 1e9
            rec["self_s"] += (self_ns[i] - direct_elem[i]) / 1e9
        return {
            "spans": per_name,
            "element_s": self.elem_ns / 1e9,
            "element_calls": {op: c[0] for op, c in self.elem_calls.items()},
            "counters": dict(self.counters),
        }

    def dump(self, path: str) -> None:
        """Write every span and the aggregates as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "parent", "start_ns", "end_ns", "element_ns"],
                    "spans": [
                        [self.span_name[i], self.span_parent[i], self.span_start[i],
                         self.span_end[i], self.span_elem[i]]
                        for i in range(len(self.span_start))
                    ],
                    "element_ns": self.elem_ns,
                    "element_calls": {op: c[0] for op, c in self.elem_calls.items()},
                    "counters": self.counters,
                },
                fh,
            )


def _count_cauchy(tracer: Tracer, verdict) -> None:
    tracer.add("filters.is_cauchy.true", 1 if verdict else 0)


def _completion_points(tracer: Tracer, comp) -> None:
    tracer.add("completion.complete.points", len(comp.filters))


def _check_runtimes(tracer: Tracer, reports) -> None:
    # per-check times come from the program's own VerificationReport.runtime;
    # the oracle-gate reports repeat in every suite call and are spans instead
    for report in reports:
        if not report.id.startswith("oracle."):
            tracer.add(f"verify.check.{report.id}", report.runtime)


# span name -> callback(tracer, return value), for counts that need results
HOOKS = {
    "filters.is_cauchy": _count_cauchy,
    "completion.complete": _completion_points,
    "verify.run_theorem_suite": _check_runtimes,
    "verify.check_category_laws": _check_runtimes,
}


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def install(tracer: Tracer) -> None:
    """Wrap the traced layers in place; call before running any workload."""
    modules = {layer: importlib.import_module(f"qc.{layer}") for layer in LAYERS}
    replaced = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            replaced[fn] = tracer.span_wrapper(f"{layer}.{attr}", fn)
    vspace_cls = modules["vspace"].VSpace
    vspace_cls.__init__ = tracer.span_wrapper("vspace.VSpace", vspace_cls.__init__)
    for cls_name in ELEMENT_CLASSES:
        cls = getattr(modules["quantale"], cls_name)
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                setattr(cls, attr, tracer.element_wrapper(attr, value))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "qc" and not mod_name.startswith("qc."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replaced:
                setattr(module, attr, replaced[value])
