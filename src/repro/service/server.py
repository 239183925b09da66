"""The compile-service HTTP server and the ``repro-serve`` entry point.

A single-process asyncio server speaking plain HTTP/1.1 + JSON over
stdlib streams -- no web framework, no new dependencies.  The event loop
owns admission, the job table, and the content-addressed cache; compiles
run in a thread off the loop, simulations fan out to spawned worker
processes (:mod:`repro.service.workers`).  Endpoints:

========================== ================================================
``GET /v1/healthz``         liveness, health state (ok|degraded|draining)
``GET /v1/programs``        registered program families and their params
``GET /v1/stats``           counters, latency percentiles, cache + pool
``GET /v1/profile``         live obs span/counter totals (telemetry on)
``POST /v1/jobs``           submit a job; ``"sync": true`` waits inline
``GET /v1/jobs/<id>``       poll job status
``GET /v1/jobs/<id>/result`` fetch the result payload (chunked if large)
``DELETE /v1/jobs/<id>``    cancel a queued/running job
========================== ================================================

Responses are canonical JSON (sorted keys, minimal separators), so two
servers answering the same seeded run produce byte-identical bodies --
the restart-determinism tests diff raw bytes.  Bodies past 64 KiB go
out with chunked transfer-encoding so a huge statevector or QASM dump
never sits fully buffered twice.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
import time

from .. import __version__
from ..obs import core as _obs
from .cache import CompileCache
from .digest import canonical_json
from .faults import DELAY_S, FaultPlan
from .jobs import JobManager
from .metrics import ServiceMetrics
from .registry import ACTIONS, TRANSFORMS, ServiceError, list_programs
from .workers import ShardedPool

#: Largest request body accepted (circuit submissions), bytes.
MAX_BODY = 8 * 1024 * 1024

#: Response bodies past this size stream out in chunks of this size.
CHUNK_SIZE = 64 * 1024

#: Span records the lifetime telemetry session keeps, the most recent
#: ones; ``/v1/profile`` reads the exact per-path totals instead.
LIFETIME_SPANS = 1024


class ServiceServer:
    """The assembled service: cache + pool + jobs behind an HTTP front.

    ``port=0`` binds an ephemeral port (tests); the bound address is on
    :attr:`host` / :attr:`port` after :meth:`start`.  Unless *telemetry*
    is off, the server's whole lifetime runs inside one
    :func:`repro.obs.capture` session, so ``GET /v1/profile`` totals
    every pipeline span the traffic caused.  The session keeps the last
    :data:`LIFETIME_SPANS` span records (for a trace export) and per-path
    totals, so its memory stays bounded however many jobs it serves.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 shards: int = 2, max_pending: int = 64, max_running: int = 8,
                 job_timeout: float = 120.0, cache_size: int = 128,
                 cache_dir: str | None = None, telemetry: bool = True,
                 faults: FaultPlan | None = None, heartbeat: float = 5.0,
                 max_retries: int = 3, max_respawns: int = 5,
                 backoff_base: float = 0.05):
        self.host = host
        self.port = port
        self.telemetry = telemetry
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.metrics = ServiceMetrics()
        self.cache = CompileCache(
            self.metrics, maxsize=cache_size, cache_dir=cache_dir,
            faults=self.faults,
        )
        self.pool = ShardedPool(
            self.metrics, shards=shards, faults=self.faults,
            max_retries=max_retries, max_respawns=max_respawns,
            backoff_base=backoff_base, heartbeat=heartbeat,
        )
        self.jobs = JobManager(
            self.cache, self.pool, self.metrics, max_pending=max_pending,
            max_running=max_running, job_timeout=job_timeout,
        )
        self.recorder: _obs.Recorder | None = None
        self._capture = None
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle ----------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether a drain has begun (new submissions answer 503)."""
        return self.jobs.draining

    def health_state(self) -> str:
        """The service's coarse state: ``ok``, ``degraded``, ``draining``.

        ``degraded`` means a worker shard has been given up on and run
        jobs are served by the in-process fallback -- correct answers,
        reduced throughput.  ``draining`` means running jobs are being
        finished off and new submissions are refused.
        """
        if self.draining:
            return "draining"
        if self.pool.degraded:
            return "degraded"
        return "ok"

    async def start(self) -> None:
        """Bind and start serving (returns once listening)."""
        if self.telemetry and self._capture is None:
            self._capture = _obs.capture(max_spans=LIFETIME_SPANS)
            self.recorder = self._capture.__enter__()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.pool.start()

    async def stop(self) -> None:
        """Stop listening, cancel live jobs, shut the worker pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for job in list(self.jobs.jobs.values()):
            if not job.done and job.task is not None:
                job.task.cancel()
        await asyncio.sleep(0)
        self.pool.shutdown()
        if self._capture is not None:
            self._capture.__exit__(None, None, None)
            self._capture = None

    async def serve_forever(self) -> None:
        """Serve until cancelled (the ``repro-serve`` main loop)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    def begin_drain(self) -> None:
        """Flip into draining mode: finish running jobs, 503 new ones."""
        if not self.jobs.draining:
            self.jobs.draining = True
            self.metrics.inc("drains")

    async def drain(self, grace: float = 30.0) -> None:
        """Graceful shutdown: drain, wait for live jobs, stop serving.

        Runs on SIGTERM.  Already-admitted jobs get up to *grace*
        seconds to finish (clients polling them still get answers);
        new submissions 503 immediately.  Closing the listener ends
        :meth:`serve_forever`, whose caller runs :meth:`stop`.
        """
        self.begin_drain()
        deadline = time.monotonic() + grace
        while self.jobs.active and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await reader.readline()
                if not request:
                    break
                parts = request.decode("latin-1").split()
                if len(parts) != 3:
                    await self._send(writer, 400, {"error": "bad request"},
                                     keep_alive=False)
                    break
                method, target, _version = parts
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length") or 0)
                if length > MAX_BODY:
                    await self._send(
                        writer, 413,
                        {"error": f"body exceeds {MAX_BODY} bytes"},
                        keep_alive=False,
                    )
                    break
                body = await reader.readexactly(length) if length else b""
                keep_alive = headers.get("connection", "").lower() != "close"
                self.metrics.inc("http.requests")
                status, payload, extra = await self._route(
                    method, target.split("?", 1)[0], body
                )
                await self._send(writer, status, payload, keep_alive, extra)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass  # connection teardown during server shutdown

    _STATUS_TEXT = {
        200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
        405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
        429: "Too Many Requests", 500: "Internal Server Error",
        503: "Service Unavailable", 504: "Gateway Timeout",
    }

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    payload: dict, keep_alive: bool = True,
                    extra: dict | None = None) -> None:
        body = canonical_json(payload).encode()
        reason = self._STATUS_TEXT.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json"]
        for key, value in (extra or {}).items():
            head.append(f"{key}: {value}")
        head.append(
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
        )
        chunked = len(body) > CHUNK_SIZE
        if chunked:
            head.append("Transfer-Encoding: chunked")
            self.metrics.inc("http.chunked_responses")
        else:
            head.append(f"Content-Length: {len(body)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        if chunked:
            for start in range(0, len(body), CHUNK_SIZE):
                chunk = body[start:start + CHUNK_SIZE]
                writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
                writer.write(chunk)
                writer.write(b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
        else:
            writer.write(body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, dict, dict | None]:
        try:
            if path == "/v1/healthz" and method == "GET":
                state = self.health_state()
                return 200, {
                    "ok": state != "draining",
                    "status": state,
                    "version": __version__,
                    "uptime_s": round(time.time() - self.metrics.started, 3),
                }, None
            if path == "/v1/programs" and method == "GET":
                return 200, {
                    "programs": list_programs(),
                    "actions": list(ACTIONS),
                    "transforms": [t for t in TRANSFORMS if t is not None],
                }, None
            if path == "/v1/stats" and method == "GET":
                return 200, self._stats(), None
            if path == "/v1/profile" and method == "GET":
                return self._profile()
            if path == "/v1/jobs" and method == "POST":
                return await self._submit(body)
            if path.startswith("/v1/jobs/"):
                return await self._job_route(method, path)
            return 404, {"error": f"no such endpoint: {method} {path}"}, None
        except ServiceError as exc:
            extra = ({"Retry-After": "1"} if exc.status in (429, 503)
                     else None)
            return exc.status, {"error": str(exc)}, extra
        except Exception as exc:  # noqa: BLE001 - HTTP boundary
            self.metrics.inc("http.errors")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, None

    def _stats(self) -> dict:
        stats = {
            "health": self.health_state(),
            "service": self.metrics.snapshot(),
            "cache": {
                "entries": len(self.cache.entries),
                "maxsize": self.cache.maxsize,
                "pending": len(self.cache._pending),
                "disk": self.cache.cache_dir is not None,
            },
            "pool": self.pool.snapshot(),
            "jobs": {
                "active": self.jobs.active,
                "kept": len(self.jobs.jobs),
                "max_pending": self.jobs.max_pending,
            },
        }
        if self.faults.active():
            stats["faults"] = self.faults.describe()
        return stats

    def _profile(self) -> tuple[int, dict, None]:
        rec = _obs.current_recorder()
        if rec is None:
            return 404, {"error": "telemetry is disabled on this server"}, None
        spans = [
            {"path": path, "calls": calls,
             "total_us": round(total_us, 1), "rss_kb": rss_kb}
            for path, (calls, total_us, rss_kb) in rec.span_totals().items()
        ]
        return 200, {
            "counters": dict(sorted(rec.counters.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(rec.histograms.items())
            },
            "spans": spans,
        }, None

    async def _submit(self, body: bytes) -> tuple[int, dict, dict | None]:
        try:
            spec = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}")
        if not isinstance(spec, dict):
            raise ServiceError("request body must be a JSON object")
        sync = bool(spec.pop("sync", False))
        rule = self.faults.fire("job_admission")
        if rule is not None:
            self.metrics.inc("faults.injected")
            if rule.mode == "delay":
                await asyncio.sleep(DELAY_S)
            elif rule.mode == "crash":
                raise ServiceError("injected admission crash; retry",
                                   status=503)
            else:  # reject / corrupt both shed load retryably
                raise ServiceError("injected admission rejection; retry",
                                   status=429)
        job = self.jobs.submit(spec)
        if not sync:
            status = job.as_status()
            status["links"] = {
                "status": f"/v1/jobs/{job.id}",
                "result": f"/v1/jobs/{job.id}/result",
            }
            return 202, status, None
        await self.jobs.wait(job)
        if job.state == "done":
            return 200, {"job": job.as_status(), "result": job.result}, None
        return job.error_status, {
            "error": job.error or job.state, "job": job.as_status(),
        }, None

    async def _job_route(self, method: str,
                         path: str) -> tuple[int, dict, dict | None]:
        rest = path[len("/v1/jobs/"):]
        job_id, _, tail = rest.partition("/")
        job = self.jobs.get(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, None
        if method == "DELETE" and not tail:
            self.jobs.cancel(job_id)
            await asyncio.sleep(0)  # let the cancellation land
            return 200, job.as_status(), None
        if method != "GET":
            return 405, {"error": f"{method} not allowed here"}, None
        if tail == "":
            return 200, job.as_status(), None
        if tail == "result":
            if job.state in ("queued", "running"):
                return 409, {
                    "error": f"job {job_id} is {job.state}; poll status",
                    "job": job.as_status(),
                }, None
            if job.state != "done":
                return job.error_status, {
                    "error": job.error or job.state,
                    "job": job.as_status(),
                }, None
            return 200, {"job": job.as_status(), "result": job.result}, None
        return 404, {"error": f"no such endpoint: GET {path}"}, None


# ---------------------------------------------------------------------------
# The ``repro-serve`` console entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve the circuit-compilation service over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8766,
                        help="bind port; 0 picks one (default 8766)")
    parser.add_argument("--shards", type=int, default=2,
                        help="simulation worker processes (default 2)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="queued+running job ceiling before 429s")
    parser.add_argument("--max-running", type=int, default=8,
                        help="jobs executing concurrently (default 8)")
    parser.add_argument("--job-timeout", type=float, default=120.0,
                        help="per-job wall-clock budget, seconds")
    parser.add_argument("--cache-size", type=int, default=128,
                        help="compiled circuits kept in memory")
    parser.add_argument("--cache-dir", default=None,
                        help="persist compiled circuits here (warm restarts)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip the lifetime obs capture session")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a Chrome trace of the session's last "
                        "spans on exit")
    parser.add_argument("--inject", action="append", default=[],
                        metavar="SPEC",
                        help="inject faults: point:mode@rate[,...] "
                             "(e.g. worker_exec:crash@0.2); repeatable; "
                             "defaults to $REPRO_FAULTS")
    parser.add_argument("--inject-seed", type=int, default=None,
                        metavar="N",
                        help="seed for the deterministic fault schedule "
                             "(defaults to $REPRO_FAULTS_SEED or 0)")
    parser.add_argument("--heartbeat", type=float, default=5.0,
                        help="worker heartbeat interval, seconds; "
                             "0 disables (default 5)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds running jobs get to finish after "
                             "SIGTERM (default 30)")
    return parser


async def _serve(server: ServiceServer, drain_grace: float = 30.0) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(
            signal.SIGTERM,
            lambda: asyncio.ensure_future(server.drain(drain_grace)),
        )
    except NotImplementedError:  # pragma: no cover - non-POSIX loops
        pass
    print(f"repro-serve: listening on http://{server.host}:{server.port} "
          f"(shards={server.pool.shards}, cache={server.cache.maxsize}"
          + (f", faults={server.faults.spec()}@seed{server.faults.seed}"
             if server.faults.active() else "") + ")",
          file=sys.stderr, flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if server.draining:
            print("repro-serve: drained, shutting down", file=sys.stderr)
        await server.stop()


def main(argv: list[str] | None = None) -> int:
    """Run the server until interrupted (the console-script target)."""
    args = _parser().parse_args(argv)
    if args.inject or args.inject_seed is not None:
        env_plan = FaultPlan.from_env()
        faults = FaultPlan.parse(
            ",".join(args.inject) or env_plan.spec(),
            seed=(args.inject_seed if args.inject_seed is not None
                  else env_plan.seed),
        )
    else:
        faults = FaultPlan.from_env()
    server = ServiceServer(
        args.host, args.port, shards=args.shards,
        max_pending=args.max_pending, max_running=args.max_running,
        job_timeout=args.job_timeout, cache_size=args.cache_size,
        cache_dir=args.cache_dir, telemetry=not args.no_telemetry,
        faults=faults, heartbeat=args.heartbeat,
    )
    try:
        asyncio.run(_serve(server, drain_grace=args.drain_grace))
    except KeyboardInterrupt:
        print("repro-serve: shutting down", file=sys.stderr)
    if args.trace_out and server.recorder is not None:
        from ..obs import dump_chrome_trace

        dump_chrome_trace(server.recorder, args.trace_out)
        print(f"repro-serve: trace written to {args.trace_out}",
              file=sys.stderr)
    return 0


__all__ = ["CHUNK_SIZE", "MAX_BODY", "ServiceServer", "main"]

if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
