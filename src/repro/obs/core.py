"""The telemetry recorder: tracing spans, counters, histograms, caches.

This module is the zero-dependency observability substrate of the whole
pipeline (capture -> transform -> optimize -> compile -> run).  Its one
hard design constraint is that **disabled is free**: every hot-seam
instrumentation site guards itself with the module-level :data:`ENABLED`
flag (``if core.ENABLED: core.add(...)``) -- one attribute load per gate,
no allocation, no call -- and :func:`span` returns a shared no-op
singleton, so the instrumentation is safe to leave wired in permanently
(guarded by ``benchmarks/test_obs_overhead.py``: <2% on the kernel
throughput mix even *enabled*).

Recording is scoped: ``with capture() as rec:`` flips :data:`ENABLED`,
installs *rec* as the active :class:`Recorder`, and restores both on
exit.  Three primitive instrument kinds land in the recorder:

* **Spans** (:func:`span`) -- nested wall-time intervals carrying
  attributes (gate counts, pass labels, shots) and a peak-RSS delta.
  The open-span stack lives in a :class:`contextvars.ContextVar`, so
  spans nest correctly across threads: the bounded-queue producer thread
  of :meth:`repro.streaming.GateStream.gates` runs in a copy of the
  consumer's context and its spans attribute to the consumer's open
  span.
* **Counters** (:func:`add`) -- monotone named totals: kernel-class
  dispatches, per-pass rewrite counts, memo hits/misses.
* **Histograms** (:func:`observe`) -- O(1) aggregates (count / total /
  min / max) of sampled values: stream queue depth, retention-buffer
  sizes.

LRU caches register once at import time (:func:`register_cache`); a
recorder snapshots their ``cache_info()`` on entry and turns the deltas
into ``cache.<name>.hits`` / ``.misses`` counters on exit, so cache
hit-rate tracking costs nothing per call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

#: Global fast-path flag.  Hot seams check this (one module-attribute
#: load) before touching any telemetry machinery; it is flipped only by
#: :func:`capture` / :func:`enable`.
ENABLED = False

#: The active recorder (None while disabled).
_recorder: "Recorder | None" = None

#: The open-span stack of the current context (immutable tuple, so a
#: thread running in a copied context sees a consistent snapshot).
_stack: ContextVar[tuple] = ContextVar("repro_obs_stack", default=())

#: name -> lru-cached function whose hit/miss deltas each recorder
#: reports (see :func:`register_cache`).
_caches: dict[str, Callable] = {}


def _rss_kb() -> int:
    """Current peak RSS in KiB (0 where the resource module is absent)."""
    if _resource is None:  # pragma: no cover
        return 0
    return int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)


class SpanRecord:
    """One completed span: a named interval with context and attributes.

    ``path`` is the ``/``-joined chain of enclosing span names (the
    nesting as recorded on the contextvar stack), ``start_us``/``dur_us``
    are microseconds relative to the recorder's start, ``tid`` is the
    recording thread, and ``rss_kb`` is the peak-RSS growth observed
    across the span (0 when the platform cannot report it).
    """

    __slots__ = ("name", "path", "start_us", "dur_us", "tid", "attrs",
                 "rss_kb")

    def __init__(self, name: str, path: str, start_us: float, dur_us: float,
                 tid: int, attrs: dict, rss_kb: int):
        self.name = name
        self.path = path
        self.start_us = start_us
        self.dur_us = dur_us
        self.tid = tid
        self.attrs = attrs
        self.rss_kb = rss_kb

    def as_dict(self) -> dict:
        """The record as a plain dict (the JSONL export row)."""
        return {
            "name": self.name,
            "path": self.path,
            "start_us": round(self.start_us, 1),
            "dur_us": round(self.dur_us, 1),
            "tid": self.tid,
            "rss_kb": self.rss_kb,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return f"<SpanRecord {self.path!r} {self.dur_us / 1e3:.3f}ms>"


class Histogram:
    """An O(1) aggregate of observed values (count/total/min/max)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Fold one sample into the aggregate."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """The running mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """The aggregate as a plain dict (the JSONL export row)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
        }


class Recorder:
    """Everything one telemetry session accumulated.

    Produced by :func:`capture`; consumed by the sinks in
    :mod:`repro.obs.sinks` (summary table, JSONL, Chrome trace) and
    directly by tests and benchmarks (``rec.counters``, ``rec.spans``,
    ``rec.peak_memory``).

    Each closing span updates its path's exact aggregate
    (:meth:`span_totals`).  ``spans`` keeps every :class:`SpanRecord`,
    or, with *max_spans*, only the most recent that many (a ring for the
    Chrome-trace sink), so a session that lives as long as a server
    holds a fixed number of records however many spans close.
    """

    def __init__(self, max_spans: int | None = None):
        self.spans: list[SpanRecord] | deque[SpanRecord] = (
            [] if max_spans is None else deque(maxlen=max_spans)
        )
        self._totals: dict[str, list] = {}
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}
        self.t0 = time.perf_counter()
        self.wall_time = 0.0
        #: tracemalloc high-water mark across the session, in bytes
        #: (None unless ``capture(memory=True)``).
        self.peak_memory: int | None = None
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- lifecycle ----------------------------------------------------------

    def _start(self) -> None:
        self.t0 = time.perf_counter()
        for name, fn in _caches.items():
            info = fn.cache_info()
            self._cache_base[name] = (info.hits, info.misses)

    def _stop(self) -> None:
        self.wall_time = time.perf_counter() - self.t0
        for name, fn in _caches.items():
            base_hits, base_misses = self._cache_base.get(name, (0, 0))
            info = fn.cache_info()
            hits = info.hits - base_hits
            misses = info.misses - base_misses
            if hits or misses:
                self.counters[f"cache.{name}.hits"] = (
                    self.counters.get(f"cache.{name}.hits", 0) + hits
                )
                self.counters[f"cache.{name}.misses"] = (
                    self.counters.get(f"cache.{name}.misses", 0) + misses
                )

    # -- derived metrics -----------------------------------------------------

    def cache_hit_rate(self) -> float | None:
        """Aggregate hit rate over every ``cache.*`` counter, or None."""
        hits = sum(
            v for k, v in self.counters.items()
            if k.startswith("cache.") and k.endswith(".hits")
        )
        misses = sum(
            v for k, v in self.counters.items()
            if k.startswith("cache.") and k.endswith(".misses")
        )
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    def record(self, closed: SpanRecord) -> None:
        """Keep one completed span and fold it into its path's totals."""
        with self._lock:
            self.spans.append(closed)
            total = self._totals.get(closed.path)
            if total is None:
                total = self._totals[closed.path] = [0, 0.0, 0]
            total[0] += 1
            total[1] += closed.dur_us
            total[2] += closed.rss_kb

    def span_totals(self) -> dict[str, tuple[int, float, int]]:
        """Per-path aggregates: ``path -> (calls, total_us, rss_kb)``,
        over every span the session closed (kept in ``spans`` or not).

        Paths keep their first-recorded order, which reads as the
        pipeline's execution order in the summary table.
        """
        with self._lock:
            return {path: tuple(total) for path, total in self._totals.items()}

    def __repr__(self) -> str:
        return (
            f"<Recorder {len(self.spans)} spans, "
            f"{len(self.counters)} counters>"
        )


class _NoopSpan:
    """The shared disabled-mode span: every operation is a no-op.

    A single module-level instance is returned by every disabled
    :func:`span` call, so the disabled path allocates nothing.
    """

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs) -> None:
        """Ignore attributes (disabled mode)."""
        return None


_NOOP_SPAN = _NoopSpan()


class _Span:
    """One open span: a context manager recording on exit."""

    __slots__ = ("name", "attrs", "_path", "_start", "_rss", "_token")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)

    def __enter__(self):
        stack = _stack.get()
        parent = stack[-1]._path if stack else ""
        self._path = f"{parent}/{self.name}" if parent else self.name
        self._token = _stack.set(stack + (self,))
        self._rss = _rss_kb()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        _stack.reset(self._token)
        rec = _recorder
        if rec is not None:
            rec.record(SpanRecord(
                name=self.name,
                path=self._path,
                start_us=(self._start - rec.t0) * 1e6,
                dur_us=(end - self._start) * 1e6,
                tid=threading.get_ident(),
                attrs=self.attrs,
                rss_kb=max(0, _rss_kb() - self._rss),
            ))
        return False


# ---------------------------------------------------------------------------
# The instrumentation surface (what the hot seams call)
# ---------------------------------------------------------------------------


def span(name: str, **attrs):
    """Open a nested tracing span (``with span("optimize"): ...``).

    Returns the shared no-op singleton while telemetry is disabled, so
    uninstrumented runs pay one flag check and no allocation.  The
    returned handle's :meth:`~_Span.set` attaches attributes discovered
    mid-span (gate counts, rewrite totals).
    """
    if not ENABLED:
        return _NOOP_SPAN
    return _Span(name, attrs)


def add(name: str, n: int = 1) -> None:
    """Increment a named counter (callers guard with :data:`ENABLED`)."""
    rec = _recorder
    if rec is not None:
        rec.counters[name] = rec.counters.get(name, 0) + n


def observe(name: str, value: float) -> None:
    """Fold one sample into a named histogram aggregate."""
    rec = _recorder
    if rec is not None:
        hist = rec.histograms.get(name)
        if hist is None:
            hist = rec.histograms[name] = Histogram()
        hist.observe(value)


def register_cache(name: str, fn: Callable) -> None:
    """Register an ``lru_cache``-decorated function for hit/miss deltas.

    Registration is free at runtime: recorders snapshot ``cache_info()``
    on entry and diff it on exit, so per-call cache accounting costs the
    instrumented code nothing.
    """
    _caches[name] = fn


def current_recorder() -> Recorder | None:
    """The active recorder, or None while telemetry is disabled."""
    return _recorder


@contextmanager
def capture(memory: bool = False, max_spans: int | None = None):
    """Enable telemetry for a ``with`` block; yields the :class:`Recorder`.

    Re-entrant: a nested capture installs its own recorder and restores
    the outer one on exit (spans and counters of the inner block land in
    the inner recorder only).  With *memory*, tracemalloc runs across the
    block and the session high-water mark lands in
    :attr:`Recorder.peak_memory` -- the replacement for ad-hoc
    ``tracemalloc.start()`` bracketing in memory-ceiling tests.  With
    *max_spans*, the recorder keeps only that many recent span records
    (see :class:`Recorder`); its span totals stay exact.
    """
    global ENABLED, _recorder
    import tracemalloc

    rec = Recorder(max_spans)
    prev_enabled, prev_recorder = ENABLED, _recorder
    started_tracing = False
    if memory:
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            started_tracing = True
    ENABLED, _recorder = True, rec
    rec._start()
    try:
        yield rec
    finally:
        rec._stop()
        ENABLED, _recorder = prev_enabled, prev_recorder
        if memory:
            rec.peak_memory = tracemalloc.get_traced_memory()[1]
            if started_tracing:
                tracemalloc.stop()
