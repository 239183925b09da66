"""The content-addressed compile cache: hot circuits compile once.

Maps the digest of a canonical compile spec (see
:mod:`repro.service.registry`) to a fully-built pipeline product: the
generated + transformed + optimized hierarchy, its compiled flat stream,
and (lazily) its interchange text for worker shipping and disk
persistence.  Three properties carry the service's load story:

* **Single-flight** -- concurrent requests for one digest coalesce onto
  one build: the first request compiles (in a worker thread, so the
  event loop keeps serving), everyone else awaits the same future.  The
  obs counter ``cache.compiled_stream.misses`` staying at 1 under a
  client hammer is the tested proof.
* **Disk warm-start** -- with a ``cache_dir``, the final (post-
  transform, post-optimize) circuit is persisted as Quipper-ASCII under
  its digest; a restarted server (or a sibling process) parses that
  text instead of re-running capture/transform/optimize.
* **Disk integrity** -- every persisted ``{digest}.quip`` carries a
  one-line checksum header over its circuit text.  Warm-start loads
  re-digest the body and verify both the checksum and the spec digest
  in the filename; a truncated, bit-flipped, or foreign file is moved
  to ``cache_dir/quarantine/`` (``cache.quarantined``) and the circuit
  is recompiled from the spec -- corruption costs one compile, never a
  wrong answer.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import Counter, OrderedDict
from pathlib import Path

from ..obs import core as _obs
from ..program import Program
from .digest import digest_text
from .faults import DELAY_S, FaultPlan
from .metrics import ServiceMetrics
from .registry import ServiceError, build_program
from .serialize import result_payload

#: First line of every persisted cache entry: format version, the spec
#: digest the filename claims, and the checksum of the body that
#: follows.  The loader strips it before parsing; sibling servers
#: racing to persist one digest still produce identical bytes.
_HEADER = "; repro-cache v1 spec={spec} sha256={sha}\n"

#: Domain tag for the body checksum (see :func:`..digest.digest_text`).
_SUM_DOMAIN = "quip-cache"


class CacheEntry:
    """One cached compile product and its memoized cheap queries."""

    __slots__ = ("digest", "program", "from_disk", "compile_ms",
                 "_text", "_results", "_lock")

    def __init__(self, digest: str, program: Program, from_disk: bool,
                 compile_ms: float):
        self.digest = digest
        self.program = program
        self.from_disk = from_disk
        self.compile_ms = compile_ms
        self._text: str | None = None
        self._results: dict[str, dict] = {}
        self._lock = threading.Lock()

    def text(self) -> str:
        """The final circuit as interchange text (computed once)."""
        with self._lock:
            if self._text is None:
                from ..io import dumps

                self._text = dumps(self.program.bcircuit)
            return self._text

    def query(self, action: str) -> dict:
        """Answer one non-run action from the cached product (memoized).

        Every payload is JSON-ready; repeated queries of one action on a
        hot entry are dictionary lookups.
        """
        with self._lock:
            cached = self._results.get(action)
            if cached is not None:
                return cached
        payload = self._compute(action)
        with self._lock:
            self._results.setdefault(action, payload)
            return self._results[action]

    def _compute(self, action: str) -> dict:
        program = self.program
        if action == "compile":
            compiled = program.compiled()
            return {
                "digest": self.digest,
                "gates_stored": len(program.bcircuit),
                "gates_inlined": len(compiled),
                "prefix_len": compiled.prefix_len,
                "width": program.width(),
            }
        if action == "count":
            counts: Counter = program.count()
            return {
                "counts": {str(k): int(v) for k, v in counts.items()},
                "total": int(sum(counts.values())),
            }
        if action == "depth":
            return {"depth": int(program.depth())}
        if action == "t_depth":
            return {"t_depth": int(program.t_depth())}
        if action == "width":
            return {"width": program.width()}
        if action == "resources":
            return result_payload(program.run(backend="resources"))
        if action == "ascii":
            return {"text": program.ascii()}
        if action == "quipper":
            return {"text": self.text()}
        if action == "qasm":
            return {"text": program.qasm()}
        raise ServiceError(f"unknown action {action!r}")


class CompileCache:
    """Digest-keyed LRU of :class:`CacheEntry` with single-flight builds."""

    def __init__(self, metrics: ServiceMetrics, maxsize: int = 128,
                 cache_dir: str | os.PathLike | None = None,
                 faults: FaultPlan | None = None):
        self.metrics = metrics
        self.maxsize = maxsize
        self.faults = faults or FaultPlan()
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._pending: dict[str, asyncio.Future] = {}

    async def get(self, digest: str, cspec: dict) -> tuple[CacheEntry, bool]:
        """The entry for *digest*, building it at most once per flight.

        Returns ``(entry, cache_hit)``; a request that coalesced onto an
        in-flight build counts as a hit (it did not compile).
        """
        entry = self.entries.get(digest)
        if entry is not None:
            self.entries.move_to_end(digest)
            self.metrics.inc("cache.hits")
            return entry, True
        loop = asyncio.get_running_loop()
        pending = self._pending.get(digest)
        if pending is not None:
            self.metrics.inc("cache.hits")
            self.metrics.inc("cache.coalesced")
            return await asyncio.shield(pending), True
        future: asyncio.Future = loop.create_future()
        self._pending[digest] = future
        try:
            entry = await loop.run_in_executor(
                None, self._build_sync, digest, cspec
            )
        except Exception as exc:
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved: waiters re-raise theirs
            raise
        else:
            self.metrics.inc("cache.misses")
            if entry.from_disk:
                self.metrics.inc("cache.disk_hits")
            self.entries[digest] = entry
            self.entries.move_to_end(digest)
            while len(self.entries) > self.maxsize:
                self.entries.popitem(last=False)
            if not future.done():
                future.set_result(entry)
            return entry, False
        finally:
            self._pending.pop(digest, None)

    def _disk_path(self, digest: str) -> Path | None:
        return (
            self.cache_dir / f"{digest}.quip"
            if self.cache_dir is not None else None
        )

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad cache file aside (never silently reuse or delete)."""
        target = path.parent / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            path.replace(target)
        except OSError:
            pass  # racing sibling already moved/removed it
        self.metrics.inc("cache.quarantined")
        self.metrics.inc(f"cache.quarantined.{reason}")

    def _load_disk(self, digest: str, path: Path) -> str | None:
        """Read + verify one persisted entry; None means rebuild.

        The circuit text is trusted only when the header's checksum
        re-digests from the body *and* the header's spec digest matches
        the filename; anything else -- truncation, a flipped bit, a
        legacy or foreign file -- is quarantined and recompiled.
        """
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.metrics.inc("cache.disk_read_errors")
            return None
        rule = self.faults.fire("disk_read")
        if rule is not None:
            self.metrics.inc("faults.injected")
            if rule.mode == "delay":
                time.sleep(DELAY_S)
            elif rule.mode == "corrupt":
                raw = self.faults.corrupt_text(raw, "disk_read")
            else:
                self.metrics.inc("cache.disk_read_errors")
                return None  # injected read failure: treat as a miss
        header, sep, body = raw.partition("\n")
        expected = _HEADER.format(
            spec=digest, sha=digest_text(body, _SUM_DOMAIN)
        )
        if not sep or header + sep != expected:
            self._quarantine(path, "digest_mismatch")
            return None
        return body

    def _build_sync(self, digest: str, cspec: dict) -> CacheEntry:
        """Build one entry (runs in a worker thread off the event loop)."""
        from ..transform.inline import compile_flat

        t0 = time.perf_counter()
        text: str | None = None
        path = self._disk_path(digest)
        if path is not None and path.exists():
            text = self._load_disk(digest, path)
        from_disk = text is not None
        if text is not None:
            program = Program.loads(text, name=f"disk:{digest[:12]}")
        else:
            program = build_program(cspec)
        with _obs.span("service.compile", digest=digest[:12]):
            bc = program.bcircuit  # generate + transform + optimize (or parse)
            # The summary validates the circuit; the entry's width, count
            # and depth queries read it without another walk.
            program.width()
            compile_flat(bc)
        entry = CacheEntry(
            digest, program, from_disk,
            compile_ms=(time.perf_counter() - t0) * 1e3,
        )
        if text is not None:
            entry._text = text
        elif path is not None:
            self._persist(digest, path, entry.text())
        return entry

    def _persist(self, digest: str, path: Path, body: str) -> None:
        """Write one checksummed entry (atomic rename, best effort).

        Per-process temp name + atomic rename: two sibling servers
        persisting one digest race harmlessly to identical bytes.  A
        failed write (disk full, injected fault) is counted and
        dropped -- persistence is an optimization, not a correctness
        requirement.
        """
        rule = self.faults.fire("disk_write")
        if rule is not None:
            self.metrics.inc("faults.injected")
            if rule.mode == "delay":
                time.sleep(DELAY_S)
            else:
                self.metrics.inc("cache.disk_write_errors")
                return  # injected write failure: entry stays memory-only
        header = _HEADER.format(spec=digest, sha=digest_text(body, _SUM_DOMAIN))
        try:
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(header + body, encoding="utf-8")
            tmp.replace(path)
        except OSError:
            self.metrics.inc("cache.disk_write_errors")


__all__ = ["CacheEntry", "CompileCache"]
