"""Spans around every public function binding of the egstherm package.

The program's source is not changed: :meth:`Tracer.install` replaces each
public function a module binds, including names imported into another module
such as ``egstherm.cli.multi_fracture_forecast``, with a wrapper that records
a span (name, start, end, parent span, operation id). A span is named after
the module that defines the function, so ``egstherm.cli.multi_fracture_forecast``
records ``laplace.multi_fracture_forecast``. Closures a wrapped function
returns, such as the slab image, are wrapped too (``laplace.image``).

Spans stay in memory until :meth:`Tracer.write`. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from types import FunctionType

MODULES = ("egstherm", "egstherm.__main__", "egstherm.analytic", "egstherm.cli",
           "egstherm.laplace", "egstherm.oracle", "egstherm.scenario",
           "egstherm.specfun", "egstherm.units")


def _layer(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


def _ours(value) -> bool:
    return type(value) is FunctionType and value.__module__.startswith("egstherm")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent index, op id)
        self.stack: list[int] = []
        self.op = -1
        self.op_kinds: list[str] = []
        self.op_keys: list[str] = []
        self._wrapped: dict[int, FunctionType] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op)
            if _ours(result):
                result = self.wrap(result, f"{_layer(fn)}.{result.__name__}")
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function binding in the package."""
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _ours(value):
                    continue
                if id(value) not in self._wrapped:
                    self._wrapped[id(value)] = self.wrap(value, f"{_layer(value)}.{value.__name__}")
                setattr(module, attr, self._wrapped[id(value)])

    @contextmanager
    def operation(self, kind: str, key: str):
        """Spans recorded inside belong to one new operation ``key`` of ``kind``."""
        self.op = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.op_keys.append(key)
        with self.span("op." + kind):
            yield
        self.op = -1

    @contextmanager
    def span(self, name: str):
        nid = self._name_id(name)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx] = (nid, start, time.perf_counter_ns(), parent, self.op)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,kind,name,start_ns,end_ns,parent\n")
            for i, (nid, start, end, parent, op) in enumerate(self.spans):
                kind = self.op_kinds[op] if op >= 0 else ""
                fh.write(f"{i},{op},{kind},{self.names[nid]},{start},{end},{parent}\n")

    def summary(self) -> "Summary":
        return Summary(self)


class Summary:
    """Durations, self times and counts per span name and operation kind."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        child = [0] * len(spans)
        for nid, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start
        self.op_kinds = tracer.op_kinds
        self.op_keys = tracer.op_keys
        self.rows = [(tracer.names[nid], end - start, end - start - child[i],
                      tracer.op_kinds[op] if op >= 0 else "", op)
                     for i, (nid, start, end, parent, op) in enumerate(spans)]

    def ops(self, kind: str) -> int:
        return sum(1 for k in self.op_kinds if k == kind)

    def durations(self, name: str, kind: str | None = None) -> list[int]:
        return [d for n, d, _, k, _ in self.rows if n == name and (kind is None or k == kind)]

    def median_ns(self, name: str, kind: str | None = None) -> float:
        values = self.durations(name, kind)
        return float(statistics.median(values)) if values else float("nan")

    def per_op(self, name: str, kind: str) -> float:
        return len(self.durations(name, kind)) / max(self.ops(kind), 1)

    def layer_self_ns_per_op(self, layer: str, kind: str) -> float:
        total = sum(s for n, _, s, k, _ in self.rows if k == kind and n.split(".")[0] == layer)
        return total / max(self.ops(kind), 1)

    def first_per_op(self, name: str, kind: str) -> list[tuple[str, int]]:
        """(operation key, duration) of the first ``name`` span of each
        operation of ``kind``."""
        first: dict[int, int] = {}
        for n, d, _, k, op in self.rows:
            if n == name and k == kind and op not in first:
                first[op] = d
        return [(self.op_keys[op], d) for op, d in first.items()]
