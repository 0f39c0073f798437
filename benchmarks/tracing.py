"""Spans recorded from outside the package, around calls into each layer.

A traced run calls `qhdyn.runner.run` with the layer functions it uses
temporarily wrapped: while the run lasts, each name in `LAYER_CALLS` is
replaced in the module that calls it by a wrapper that records one span per
call (name, start, end, parent span, run id) and remembers the call's
inputs and result.  Nothing in the package is edited; the originals are
restored when the run ends.  If a refactor removes one of these names, or
stops calling it, its span never appears and the metric built on it is
reported as absent instead of failing the benchmark.

run.py then replays the nine checks one at a time on the captured inputs,
`run_standard_checks(selection=[name])`, as spans `verify.<name>` whose
parent is the `verify.checks` span.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

# (module, attribute, span name): the calls runner.run makes, in its order
LAYER_CALLS = (
    ("qhdyn.runner", "build_dressing_track", "dressing.track"),
    ("qhdyn.dressing", "build_hamiltonian", "model.hamiltonian"),
    ("qhdyn.dressing", "eig_biorthogonal", "spectral.eig"),
    ("qhdyn.dressing", "track_continuity", "spectral.continuity"),
    ("qhdyn.runner", "propagate_quasi", "evolution.propagate"),
    ("qhdyn.runner", "run_standard_checks", "verify.checks"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


class Call(NamedTuple):
    args: tuple
    kwargs: dict
    result: object


class Tracer:
    """In-memory span recorder; spans are written out when the benchmark ends."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.run_id = 0
        self._stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.last: dict[str, Call] = {}
        self.distinct_inputs: dict[str, set[bytes]] = {}

    def begin_run(self):
        self.run_id += 1
        self.calls.clear()
        self.last.clear()
        self.distinct_inputs.clear()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if parent is None and self._stack:
            parent = self._stack[-1]
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.last[name] = Call(args, kwargs, result)
            if name == "spectral.eig":
                self.distinct_inputs.setdefault(name, set()).add(np.asarray(args[0]).tobytes())
            return result

        return traced

    def run_spans(self, run_id: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s is not None and s.run_id == run_id]


@contextmanager
def layers_wrapped(tracer: Tracer):
    """Wrap every name in LAYER_CALLS that still exists; restore on exit."""
    saved = []
    try:
        for module_name, attr, span_name in LAYER_CALLS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original))
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for _, s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for i, s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[i] = (s.end - s.start) - covered
    return out


def object_census(root) -> tuple[int, int]:
    """(Python objects, ndarray bytes) reachable from `root`, each counted once.

    Walks dataclass fields, containers and instance dicts generically, so it
    keeps working when the track changes shape.
    """
    seen: set[int] = set()
    stack = [root]
    nbytes = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            nbytes += obj.nbytes
            if obj.dtype == object:
                stack.extend(obj.ravel().tolist())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return len(seen), nbytes
