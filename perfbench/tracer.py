"""Spans recorded from the benchmark's side of each call into busemetric.

A span is (id, parent, operation, name, start, end).  Spans stay in memory
and are written out once, at the end of a traced run.  Nothing in ``src/``
is instrumented: backends are wrapped in ``TracedBackend`` and handed to the
public ``backend=`` parameters, and the public stage functions are called
inside spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer.stack
        self.record = [len(tracer.spans), stack[-1] if stack else None, tracer.op_id, name,
                       0.0, 0.0]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer.stack.append(self.record[0])
        self.record[4] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[5] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """In-memory span recorder; operations group the spans of one config run or query."""

    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ops: list[dict] = []
        self.op_id = None

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    @contextlib.contextmanager
    def op(self, name: str, phase: str):
        """One operation: a root span whose descendants share its operation id."""
        self.op_id = len(self.ops)
        self.ops.append({"id": self.op_id, "name": name, "phase": phase})
        try:
            with self.span(name):
                yield
        finally:
            self.op_id = None

    def proxy(self, backend) -> "TracedBackend":
        return TracedBackend(backend, self)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for op in self.ops:
                fh.write(json.dumps({"op": op}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")

    def by_phase(self) -> dict:
        """Spans grouped by the phase of their operation."""
        phase = {op["id"]: op["phase"] for op in self.ops}
        out = defaultdict(list)
        for s in self.spans:
            out[phase.get(s[2])].append(s)
        return out


def totals(spans: list) -> tuple[dict, dict]:
    """Per span name: (total seconds, call count)."""
    busy, calls = defaultdict(float), defaultdict(int)
    for s in spans:
        busy[s[3]] += s[5] - s[4]
        calls[s[3]] += 1
    return busy, calls


def child_time(spans: list, parent_name: str) -> float:
    """Seconds spent in direct children of the spans named ``parent_name``."""
    parents = {s[0] for s in spans if s[3] == parent_name}
    return sum(s[5] - s[4] for s in spans if s[1] in parents)


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: no spans, backends unwrapped."""

    enabled = False

    def op(self, name: str, phase: str):
        return contextlib.nullcontext()

    def span(self, name: str):
        return contextlib.nullcontext()

    def proxy(self, backend):
        return backend


class TracedBackend:
    """A backend with the same name and answers whose queries are recorded as spans."""

    def __init__(self, backend, tracer: Tracer):
        self._backend = backend
        self._tracer = tracer
        self.name = backend.name

    def supports(self, nu) -> bool:
        return self._backend.supports(nu)

    def pair(self, nu, x, y, taus=None):
        with self._tracer.span("evaluate.pair" if taus is None else "evaluate.pair_taus"):
            return self._backend.pair(nu, x, y, taus=taus)

    def box_mass(self, nu, lo, hi):
        with self._tracer.span("evaluate.box_mass"):
            return self._backend.box_mass(nu, lo, hi)

    def cube_mass(self, nu, q):
        with self._tracer.span("evaluate.cube_mass"):
            return self._backend.cube_mass(nu, q)
