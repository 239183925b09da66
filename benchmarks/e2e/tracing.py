"""Benchmark-side tracing: spans around the calls into each layer.

The benchmark records its own spans instead of relying on the
program's internal ones, so the per-layer split measures the same
public calls on every commit.  A span has a name, a start, an end, the
span that caused it and the id of the item it belongs to.  Spans stay
in memory and are written out once, at exit, as a Chrome trace plus a
``layers`` summary.

A layer's self time is its span's duration minus the part covered by
its child spans.  Spans read the clock the tracer is given, so that a
clock which leaves out the benchmark's speed sampling (see
:mod:`speed`) keeps that time out of every layer.  The per-item
``item`` span holds the benchmark's own glue; the ``coverage`` of a
traced run is the share of summed item latency that layer spans
(everything but ``item``) account for.
"""

from __future__ import annotations

import json
import threading
import time
from typing import NamedTuple

#: Name of the root span every item runs under.
ITEM = "item"


class _NullSpan:
    """The span handed out while tracing is off: every call is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, counter: str, value: float) -> None:
        """Ignore a counter (tracing is off)."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing off: a span costs one method call and allocates nothing."""

    def span(self, name: str, item: str | None = None) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN


class SpanRecord(NamedTuple):
    """One closed span; *parent* is the enclosing span's name."""

    name: str
    start: float
    end: float
    parent: str | None
    item: str | None
    tid: int
    self_s: float


class _Span:
    __slots__ = ("tracer", "name", "item", "parent", "start", "child_s")

    def __init__(self, tracer: "Tracer", name: str, item: str | None):
        self.tracer = tracer
        self.name = name
        self.item = item
        self.child_s = 0.0

    def __enter__(self):
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        if self.item is None and self.parent is not None:
            self.item = self.parent.item
        stack.append(self)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc):
        end = self.tracer.clock()
        self.tracer._stack().pop()
        duration = end - self.start
        parent = self.parent
        if parent is not None:
            parent.child_s += duration
        record = SpanRecord(
            self.name, self.start, end,
            None if parent is None else parent.name, self.item,
            threading.get_ident(), duration - self.child_s,
        )
        with self.tracer._lock:
            self.tracer.spans.append(record)
        return False

    def add(self, counter: str, value: float) -> None:
        """Accumulate a counter under this span's layer name."""
        self.tracer.add(f"{self.name}.{counter}", value)


class Tracer:
    """Tracing on: records every span in memory (thread-safe)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, item: str | None = None) -> _Span:
        """Open a span; *item* tags a root span, children inherit it."""
        return _Span(self, name, item)

    def add(self, counter: str, value: float) -> None:
        """Accumulate a named counter."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + value

    def layers(self, scale=None) -> dict[str, dict]:
        """Per-span-name ``{"calls", "self_s"}`` totals, ``item`` included.

        With *scale*, each span's self time is multiplied by
        ``scale(start, end)`` (reference seconds per clock second).
        """
        layers: dict[str, dict] = {}
        for record in self.spans:
            entry = layers.setdefault(record.name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += record.self_s * (
                1.0 if scale is None else scale(record.start, record.end))
        return layers

    def coverage(self) -> float:
        """Share of summed item latency covered by layer self time."""
        items = [r for r in self.spans if r.name == ITEM]
        total = sum(r.end - r.start for r in items)
        if total <= 0:
            return 0.0
        return 1.0 - sum(r.self_s for r in items) / total

    def write_chrome(self, path, summary: dict) -> None:
        """Write the spans as a Chrome ``trace_event`` file plus *summary*."""
        events = [
            {
                "name": r.name, "ph": "X", "pid": 1, "tid": r.tid,
                "ts": (r.start - self.t0) * 1e6,
                "dur": (r.end - r.start) * 1e6,
                "args": {"item": r.item, "parent": r.parent},
            }
            for r in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "layers": summary}, handle)
