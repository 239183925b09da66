"""Compile-service suite: cache keying, concurrency, HTTP, determinism.

The load-bearing claims, each tested against a real server on an
ephemeral port (no mocked transports):

* **Single compile** -- any number of clients submitting the same
  circuit (defaulted or spelled-out params, sync or async, compile or
  run) cause exactly one pipeline build; the obs counters are the proof.
* **Deterministic runs** -- one seed, one byte-stream: canonical-JSON
  run results are identical across worker shards, shard counts, and
  server restarts (the disk warm-start path included).
* **Bounded load** -- full queues answer 429 + Retry-After instead of
  accepting unbounded work; overlong jobs die with a timeout error
  while the server keeps serving.
* **Fault tolerance** -- a SIGKILLed or crash-looping worker, a
  corrupted disk-cache entry, a flaky pipe, or an unavailable pool
  never costs a client a request or a byte of determinism: the
  supervisor respawns and requeues, corrupt entries are quarantined
  and recompiled, and the whole chaos matrix replays deterministically
  under a fixed fault seed.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import asynccontextmanager

import pytest

import repro
from repro.service.cache import CompileCache
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.digest import canonical_json, digest_text, spec_digest
from repro.service.faults import FaultPlan
from repro.service.jobs import canonical_run_options
from repro.service.metrics import LatencyRing, ServiceMetrics, percentile
from repro.service.registry import ServiceError, canonical_spec
from repro.service.server import CHUNK_SIZE, LIFETIME_SPANS, ServiceServer


@asynccontextmanager
async def service(**kwargs):
    """A started server on an ephemeral port, stopped on exit."""
    kwargs.setdefault("shards", 1)
    server = ServiceServer(port=0, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


async def in_thread(fn, *args):
    """Run blocking client code off the server's event loop."""
    return await asyncio.get_running_loop().run_in_executor(None, fn, *args)


def client_for(server: ServiceServer, **kwargs) -> ServiceClient:
    kwargs.setdefault("timeout", 120)
    return ServiceClient("127.0.0.1", server.port, **kwargs)


# ---------------------------------------------------------------------------
# Pure pieces: spec canonicalization, digests, metrics
# ---------------------------------------------------------------------------


class TestImportFootprint:
    def test_client_import_leaves_server_side_unloaded(self):
        # A client process needs only the HTTP client: importing it must
        # not pull in the asyncio server, the job manager or the pool.
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))
        ))
        probe = (
            "import sys, repro.service.client\n"
            "print(','.join(sorted(m for m in ('repro.service.server', "
            "'repro.service.workers', 'asyncio') if m in sys.modules)))"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == ""


class TestCanonicalSpec:
    def test_defaults_fill_to_the_same_digest(self):
        implicit = canonical_spec({"program": "bwt"})
        explicit = canonical_spec({
            "program": "bwt",
            "params": {"n": 4, "s": 1, "t": 0.1, "oracle": "orthodox"},
        })
        assert implicit == explicit
        assert spec_digest(implicit) == spec_digest(explicit)

    def test_per_job_keys_stay_out_of_the_cache_key(self):
        plain = canonical_spec({"program": "bell"})
        decorated = canonical_spec({
            "program": "bell", "action": "run",
            "run": {"shots": 64, "seed": 1}, "sync": True,
        })
        assert spec_digest(plain) == spec_digest(decorated)

    def test_any_compile_relevant_key_changes_the_digest(self):
        base = spec_digest(canonical_spec({"program": "bwt"}))
        for variant in (
            {"program": "bwt", "params": {"n": 5}},
            {"program": "bwt", "transform": "binary"},
            {"program": "bwt", "optimize": True},
            {"program": "bwt", "optimize": ["cancel"]},
        ):
            assert spec_digest(canonical_spec(variant)) != base, variant

    def test_rejections(self):
        cases = [
            ({"program": "no-such"}, 404, "unknown program"),
            ({"program": "bwt", "params": {"bogus": 1}}, 400, "unknown param"),
            ({"program": "bwt", "params": {"n": 0}}, 400, ">="),
            ({"program": "bwt", "params": {"n": "four"}}, 400, "integer"),
            ({"program": "bwt", "transform": "nope"}, 400, "transform"),
            ({"program": "bwt", "optimize": ["nope"]}, 400, "pass"),
            ({"program": "bwt", "optimize": "yes"}, 400, "optimize"),
            ({"program": "bell", "circuit": "x"}, 400, "exactly one"),
            ({}, 400, "exactly one"),
        ]
        for spec, status, fragment in cases:
            with pytest.raises(ServiceError) as excinfo:
                canonical_spec(spec)
            assert excinfo.value.status == status, spec
            assert fragment in str(excinfo.value), spec

    def test_run_option_validation(self):
        ok = canonical_run_options({"shots": 8, "seed": 1,
                                    "in_values": {"0": True}})
        assert ok["in_values"] == {0: True}
        for bad in (
            {"shots": 0}, {"shots": -3}, {"shots": True},
            {"seed": "x"}, {"bogus": 1}, {"in_values": {"q": True}},
            {"in_values": {"0": 1}}, "not-a-dict",
        ):
            with pytest.raises(ServiceError):
                canonical_run_options(bad)

    def test_digest_domains_are_disjoint(self):
        assert digest_text("x", domain="a") != digest_text("x", domain="b")
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.99) == 0.0
        assert percentile([5.0], 0.99) == 5.0
        values = [float(i) for i in range(101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0

    def test_latency_ring_window(self):
        ring = LatencyRing(size=4)
        for i in range(10):
            ring.record(float(i))
        summary = ring.summary()
        assert summary["count"] == 10  # lifetime count survives eviction
        assert summary["max_ms"] == 9.0  # window keeps the recent four
        assert ring.samples.maxlen == 4

    def test_counters_mirror_into_obs_sessions(self):
        from repro import obs

        metrics = ServiceMetrics()
        metrics.inc("test.counter", 2)  # outside any session: local only
        with obs.capture() as rec:
            metrics.inc("test.counter", 3)
        assert metrics.counters["test.counter"] == 5
        assert rec.counters["service.test.counter"] == 3


# ---------------------------------------------------------------------------
# The cache layer: single-flight under concurrency
# ---------------------------------------------------------------------------


class TestCompileCacheSingleFlight:
    def test_concurrent_gets_build_once(self):
        async def hammer():
            metrics = ServiceMetrics()
            cache = CompileCache(metrics)
            cspec = canonical_spec({"program": "bell"})
            digest = spec_digest(cspec)
            results = await asyncio.gather(*[
                cache.get(digest, cspec) for _ in range(8)
            ])
            return metrics, results

        metrics, results = asyncio.run(hammer())
        assert metrics.counters["cache.misses"] == 1
        assert metrics.counters.get("cache.coalesced", 0) == 7
        entries = {id(entry) for entry, _hit in results}
        assert len(entries) == 1  # everyone got the same object
        assert sum(1 for _entry, hit in results if not hit) == 1

    def test_lru_eviction_bounds_the_cache(self):
        async def fill():
            cache = CompileCache(ServiceMetrics(), maxsize=2)
            for n in (2, 3, 4):
                cspec = canonical_spec({"program": "bwt", "params": {"n": n}})
                await cache.get(spec_digest(cspec), cspec)
            return cache

        cache = asyncio.run(fill())
        assert len(cache.entries) == 2

    def test_failed_build_is_not_cached(self):
        async def attempt():
            cache = CompileCache(ServiceMetrics())
            cspec = dict(canonical_spec({"program": "bell"}),
                         circuit="not quipper at all")
            del cspec["program"], cspec["params"]
            digest = spec_digest(cspec)
            with pytest.raises(Exception):
                await cache.get(digest, cspec)
            return cache

        cache = asyncio.run(attempt())
        assert not cache.entries and not cache._pending


# ---------------------------------------------------------------------------
# HTTP end to end
# ---------------------------------------------------------------------------


class TestHttpEndpoints:
    def test_introspection_and_sync_queries(self):
        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        health = svc.health()
                        programs = svc.programs()
                        count_a = svc.query(program="bwt", action="count")
                        count_b = svc.query(
                            program="bwt", action="count",
                            params={"n": 4, "s": 1, "t": 0.1,
                                    "oracle": "orthodox"},
                        )
                        depth = svc.query(program="bell", action="depth")
                        stats = svc.stats()
                        profile = svc.profile()
                        return (health, programs, count_a, count_b, depth,
                                stats, profile)
                return await in_thread(work)

        health, programs, count_a, count_b, depth, stats, profile = (
            asyncio.run(scenario())
        )
        assert health["ok"] is True and "version" in health
        assert {"bell", "bwt", "tf"} <= set(programs["programs"])
        assert count_a == count_b and count_a["total"] > 0
        assert depth["depth"] >= 2
        # Defaulted and explicit params shared one compile.
        assert stats["service"]["counters"]["cache.misses"] == 2  # bwt+bell
        assert stats["service"]["counters"]["cache.hits"] >= 1
        assert stats["service"]["latency"]["hit"]["count"] >= 1
        assert profile["counters"]["cache.compiled_stream.misses"] == 2

    def test_lifetime_telemetry_stays_bounded(self):
        """The server's lifetime obs session keeps at most
        ``LIFETIME_SPANS`` span records however many jobs it serves, and
        ``/v1/profile`` still counts every job."""
        jobs = 2_000

        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        for _ in range(jobs):
                            svc.query(program="bell", action="depth")
                        return svc.profile(), len(server.recorder.spans)
                return await in_thread(work)

        profile, kept = asyncio.run(scenario())
        assert kept == LIFETIME_SPANS
        calls = {row["path"]: row["calls"] for row in profile["spans"]}
        assert calls["service.job"] == jobs

    def test_async_job_lifecycle(self):
        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        job = svc.submit(program="bell", action="compile")
                        assert job["state"] in ("queued", "running", "done")
                        done = svc.wait(job["id"])
                        result = svc.result(job["id"])
                        missing = None
                        try:
                            svc.status("j99999999")
                        except ServiceClientError as exc:
                            missing = exc.status
                        return done, result, missing
                return await in_thread(work)

        done, result, missing = asyncio.run(scenario())
        assert done["state"] == "done" and done["cache_hit"] is False
        assert done["queue_wait_ms"] >= 0 and done["exec_ms"] >= 0
        assert result["result"]["width"] == 2
        assert result["result"]["gates_inlined"] >= 3
        assert missing == 404

    def test_error_statuses_and_bodies(self):
        async def scenario():
            async with service() as server:
                def work():
                    statuses = {}
                    with client_for(server) as svc:
                        for key, spec in [
                            ("unknown_program", {"program": "zzz"}),
                            ("bad_param",
                             {"program": "bwt", "params": {"n": 0}}),
                            ("bad_action",
                             {"program": "bell", "action": "explode"}),
                            ("bad_run", {"program": "bell", "action": "run",
                                         "run": {"shots": -1}}),
                        ]:
                            try:
                                svc.query(**spec)
                            except ServiceClientError as exc:
                                statuses[key] = exc.status
                        # Sync pipeline refusal: unencodable QASM is 400.
                        try:
                            svc.query(program="bwt", action="qasm")
                        except ServiceClientError as exc:
                            statuses["qasm_refusal"] = exc.status
                    return statuses
                return await in_thread(work)

        statuses = asyncio.run(scenario())
        assert statuses == {
            "unknown_program": 404, "bad_param": 400, "bad_action": 400,
            "bad_run": 400, "qasm_refusal": 400,
        }

    def test_malformed_circuit_is_a_client_error(self):
        """A submitted circuit whose wire list is not a number is the
        client's fault (400), not a server error (500)."""
        circuit = ('Inputs: none\nQInit0(0)\nQGate["H"](>)\n'
                   "Outputs: 0:Qubit\n")

        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        try:
                            svc.query(circuit=circuit, action="count")
                        except ServiceClientError as exc:
                            return exc.status, str(exc)
                    return None
                return await in_thread(work)

        status, message = asyncio.run(scenario())
        assert status == 400
        assert "AsciiParseError" in message and "'>'" in message

    def test_deeply_nested_shape_is_a_client_error(self):
        """A submitted circuit whose Shape: line nests 5,000 deep is
        refused by the reader (400), not a stack overflow (500)."""
        deep = "(" * 5000 + "q0" + ")" * 5000
        circuit = (f"Shape: {deep} -> q0\n"
                   "Inputs: 0:Qubit\nOutputs: 0:Qubit\n")

        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        try:
                            svc.query(circuit=circuit, action="count")
                        except ServiceClientError as exc:
                            return exc.status, str(exc)
                    return None
                return await in_thread(work)

        status, message = asyncio.run(scenario())
        assert status == 400
        assert "AsciiParseError" in message
        assert "nested deeper than" in message

    @pytest.mark.parametrize("shape, message", [
        ("{foo:q0}", "bad shape dict key 'foo'"),
        ("{[1]:q0}", "bad shape dict key '[1]'"),
        ("{1:q0,1:q1}", "duplicate shape dict key '1'"),
    ], ids=["name", "unhashable", "repeat"])
    def test_bad_shape_dict_key_is_a_client_error(self, shape, message):
        """A submitted circuit whose Shape: dict key is not a literal, is
        unhashable or is repeated is the client's fault (400), not a
        server error (500) or a silently dropped wire."""
        circuit = (f"Shape: {shape} -> q0\n"
                   "Inputs: 0:Qubit\nOutputs: 0:Qubit\n")

        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        try:
                            svc.query(circuit=circuit, action="count")
                        except ServiceClientError as exc:
                            return exc.status, str(exc)
                    return None
                return await in_thread(work)

        status, text = asyncio.run(scenario())
        assert status == 400
        assert "AsciiParseError" in text and message in text

    def test_unlowerable_gate_is_a_client_error(self):
        """A submitted circuit that the requested gate base cannot lower
        is the client's fault (400); counted as submitted, it is fine."""
        circuit = ('Inputs: 0:Qubit, 1:Qubit, 2:Qubit\n'
                   'QGate["exp(-i0.5ZZ)"](0,1) with controls=[+2]\n'
                   'Outputs: 0:Qubit, 1:Qubit, 2:Qubit\n')

        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        counted = svc.query(circuit=circuit, action="count")
                        try:
                            svc.query(circuit=circuit, transform="binary",
                                      action="count")
                        except ServiceClientError as exc:
                            return counted, exc.status, str(exc)
                    return counted, None, None
                return await in_thread(work)

        counted, status, message = asyncio.run(scenario())
        assert counted
        assert status == 400
        assert "QuipperError" in message
        assert "no binary decomposition" in message

    def test_backpressure_answers_429_with_retry_after(self):
        async def scenario():
            async with service(max_pending=0) as server:
                def work():
                    # max_wait=0 disables client-side retries: the 429
                    # must surface immediately, on the first attempt.
                    with client_for(server, max_wait=0) as svc:
                        try:
                            svc.submit(program="bell")
                        except ServiceClientError as exc:
                            return exc
                return await in_thread(work)

        exc = asyncio.run(scenario())
        assert exc.status == 429
        assert exc.retry_after == 1.0
        assert exc.attempts == 1

    def test_large_bodies_stream_chunked(self):
        async def scenario():
            async with service() as server:
                def work():
                    with client_for(server) as svc:
                        out = svc.query(program="bwt", transform="binary",
                                        action="quipper")
                        return out, svc.stats()
                return await in_thread(work)

        out, stats = asyncio.run(scenario())
        assert len(out["text"]) > CHUNK_SIZE
        assert stats["service"]["counters"]["http.chunked_responses"] >= 1

    def test_timeout_kills_the_job_not_the_server(self):
        async def scenario():
            async with service(job_timeout=0.001) as server:
                def work():
                    with client_for(server) as svc:
                        job = svc.submit(program="bwt", action="compile")
                        done = svc.wait(job["id"], timeout=30)
                        result_status = None
                        try:
                            svc.result(job["id"])
                        except ServiceClientError as exc:
                            result_status = exc.status
                        health = svc.health()
                        return done, result_status, health
                return await in_thread(work)

        done, result_status, health = asyncio.run(scenario())
        assert done["state"] == "error" and "timeout" in done["error"]
        assert result_status == 504
        assert health["ok"] is True

    def test_cancel_queued_job(self):
        async def scenario():
            async with service(max_running=1) as server:
                def work():
                    with client_for(server) as svc:
                        victim = svc.submit(program="bell", action="depth")
                        cancelled = svc.cancel(victim["id"])
                        final = svc.wait(victim["id"], timeout=30)
                        return cancelled, final
                # Hold the single execution slot, so the victim is still
                # queued when the cancel lands.
                await server.jobs._running.acquire()
                try:
                    return await in_thread(work)
                finally:
                    server.jobs._running.release()

        cancelled, final = asyncio.run(scenario())
        assert final["state"] == "cancelled"


# ---------------------------------------------------------------------------
# The acceptance scenario: concurrent clients, one compile, stable bytes
# ---------------------------------------------------------------------------

HAMMER_SPEC = {
    "program": "bwt", "params": {"n": 3}, "action": "run",
    "run": {"backend": "statevector", "shots": 32, "seed": 1234},
}


def _hammer(server: ServiceServer, clients: int) -> list[bytes]:
    """N threads, each its own connection, all submitting one circuit."""
    def one_client(i: int) -> bytes:
        with client_for(server) as svc:
            if i % 2:  # odd clients take the async path
                job = svc.submit(**HAMMER_SPEC)
                status = svc.wait(job["id"], timeout=120)
                assert status["state"] == "done", status
                result = svc.result(job["id"])["result"]
            else:  # even clients take the sync fast path
                result = svc.query(**HAMMER_SPEC)
        return canonical_json(result).encode()

    with ThreadPoolExecutor(max_workers=clients) as pool:
        return list(pool.map(one_client, range(clients)))


class TestConcurrentSingleCompile:
    def test_many_clients_one_compile_identical_bytes(self):
        async def scenario():
            async with service(shards=2, max_running=8) as server:
                payloads = await in_thread(_hammer, server, 6)

                def collect():
                    with client_for(server) as svc:
                        return svc.stats(), svc.profile()
                stats, profile = await in_thread(collect)
                return payloads, stats, profile

        payloads, stats, profile = asyncio.run(scenario())
        # Everyone saw byte-identical seeded results.
        assert len(set(payloads)) == 1
        counts = json.loads(payloads[0])["counts"]
        assert sum(counts.values()) == 32
        # ... and the service compiled the circuit exactly once: one
        # service-cache miss, one pipeline inline, everything else hits.
        assert stats["service"]["counters"]["cache.misses"] == 1
        assert stats["service"]["counters"]["cache.hits"] == 5
        assert profile["counters"]["cache.compiled_stream.misses"] == 1
        assert stats["service"]["counters"]["pool.jobs"] == 6
        assert stats["service"]["latency"]["run"]["count"] == 6

    def test_shard_affinity_reuses_one_warm_worker(self):
        async def scenario():
            async with service(shards=2) as server:
                def work():
                    with client_for(server) as svc:
                        first = svc.query(**HAMMER_SPEC)
                        job = svc.submit(**HAMMER_SPEC)
                        status = svc.wait(job["id"], timeout=120)
                    return first, status
                return await in_thread(work)

        _first, status = asyncio.run(scenario())
        assert status["worker"]["program_warm"] is True
        assert status["worker"]["stream_warm"] is True


class TestRestartDeterminism:
    def test_disk_warm_start_and_identical_bytes(self, tmp_path):
        cache_dir = tmp_path / "compiled"

        async def lifetime():
            async with service(cache_dir=str(cache_dir)) as server:
                def work():
                    with client_for(server) as svc:
                        result = svc.query(**HAMMER_SPEC)
                        return canonical_json(result).encode(), svc.stats()
                return await in_thread(work)

        first_bytes, first_stats = asyncio.run(lifetime())
        assert first_stats["service"]["counters"].get("cache.disk_hits", 0) == 0
        assert list(cache_dir.glob("*.quip")), "compile was not persisted"

        second_bytes, second_stats = asyncio.run(lifetime())
        assert second_bytes == first_bytes
        assert second_stats["service"]["counters"]["cache.disk_hits"] == 1

    def test_shard_count_does_not_change_results(self):
        async def run_with(shards: int):
            async with service(shards=shards) as server:
                def work():
                    with client_for(server) as svc:
                        return canonical_json(
                            svc.query(**HAMMER_SPEC)
                        ).encode()
                return await in_thread(work)

        assert asyncio.run(run_with(1)) == asyncio.run(run_with(3))


# ---------------------------------------------------------------------------
# Fault tolerance: client retries, disk integrity, chaos, degradation
# ---------------------------------------------------------------------------

COUNT_SPEC = {"program": "bwt", "params": {"n": 3}, "action": "count"}

#: A cheap seeded run for the fault matrix (bell compiles in ms).
RUN_SPEC = {
    "program": "bell", "action": "run",
    "run": {"backend": "statevector", "shots": 8, "seed": 5},
}


@functools.lru_cache(maxsize=None)
def _clean_payload(spec_json: str) -> bytes:
    """The byte-exact answer a fault-free server gives for *spec_json*.

    Cached across tests: the whole point of the chaos suite is that no
    injected fault may change these bytes, so one clean boot per spec
    is the reference for every faulted comparison.
    """
    spec = json.loads(spec_json)

    async def scenario():
        async with service() as server:
            def work():
                with client_for(server) as svc:
                    return canonical_json(svc.query(**spec)).encode()
            return await in_thread(work)

    return asyncio.run(scenario())


def _counters(stats: dict) -> dict:
    return stats["service"]["counters"]


class TestClientResilience:
    def test_429_retries_until_capacity_frees_up(self):
        """A full queue costs the client latency, never an error."""
        async def scenario():
            async with service(max_running=1, max_pending=1) as server:
                def blocker():
                    # Occupies the whole admission budget for as long as
                    # the first worker spawn takes (hundreds of ms).
                    with client_for(server) as svc:
                        return svc.submit(**HAMMER_SPEC)["id"]
                job_id = await in_thread(blocker)

                def contender():
                    with client_for(server, max_wait=30,
                                    backoff=0.05) as svc:
                        result = svc.query(**COUNT_SPEC)
                        svc.wait(job_id, timeout=120)
                        return canonical_json(result).encode(), svc.stats()
                return await in_thread(contender)

        payload, stats = asyncio.run(scenario())
        assert payload == _clean_payload(json.dumps(COUNT_SPEC))
        assert _counters(stats)["jobs.rejected"] >= 1
        assert _counters(stats).get("jobs.failed", 0) == 0

    def test_max_wait_budget_bounds_the_retrying(self):
        async def scenario():
            async with service(max_pending=0) as server:
                def work():
                    # Budget fits exactly one Retry-After wait: the
                    # client must retry once, then give up cleanly.
                    with client_for(server, max_wait=1.6) as svc:
                        t0 = time.monotonic()
                        try:
                            svc.submit(program="bell")
                        except ServiceClientError as exc:
                            return exc, time.monotonic() - t0
                return await in_thread(work)

        exc, elapsed = asyncio.run(scenario())
        assert exc.status == 429
        assert exc.attempts == 2
        assert exc.retry_after == 1.0
        assert elapsed < 5.0

    def test_reconnects_across_a_server_restart(self, tmp_path):
        """One client object outlives the server it talked to."""
        async def scenario():
            first_server = ServiceServer(
                port=0, shards=1, cache_dir=str(tmp_path)
            )
            await first_server.start()
            port = first_server.port
            svc = ServiceClient("127.0.0.1", port, timeout=120)
            try:
                first = await in_thread(
                    lambda: canonical_json(svc.query(**COUNT_SPEC)).encode()
                )
                await first_server.stop()
                second_server = ServiceServer(
                    port=port, shards=1, cache_dir=str(tmp_path)
                )
                await second_server.start()
                try:
                    # Same client, same keep-alive connection object:
                    # the dead socket must reconnect-and-resend.
                    second = await in_thread(
                        lambda: canonical_json(
                            svc.query(**COUNT_SPEC)
                        ).encode()
                    )
                finally:
                    await second_server.stop()
            finally:
                svc.close()
            return first, second

        first, second = asyncio.run(scenario())
        assert first == second


class TestDiskIntegrity:
    def _lifetime(self, cache_dir, faults=None, spec=COUNT_SPEC):
        async def scenario():
            async with service(cache_dir=str(cache_dir),
                               faults=faults) as server:
                def work():
                    with client_for(server) as svc:
                        result = svc.query(**spec)
                        return canonical_json(result).encode(), svc.stats()
                return await in_thread(work)

        return asyncio.run(scenario())

    def test_truncated_entry_quarantined_and_recompiled(self, tmp_path):
        clean, _ = self._lifetime(tmp_path)
        [path] = list(tmp_path.glob("*.quip"))
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) // 2], encoding="utf-8")

        healed, stats = self._lifetime(tmp_path)
        assert healed == clean
        assert _counters(stats)["cache.quarantined"] == 1
        assert _counters(stats)["cache.quarantined.digest_mismatch"] == 1
        assert _counters(stats).get("cache.disk_hits", 0) == 0
        assert (tmp_path / "quarantine" / path.name).exists()
        # The rebuild rewrote a good entry: trusted again next lifetime.
        _, third = self._lifetime(tmp_path)
        assert _counters(third)["cache.disk_hits"] == 1

    def test_bitflipped_entry_quarantined(self, tmp_path):
        clean, _ = self._lifetime(tmp_path)
        [path] = list(tmp_path.glob("*.quip"))
        header, _, body = path.read_text(encoding="utf-8").partition("\n")
        pos = len(body) // 2
        flip = "X" if body[pos] != "X" else "Y"
        path.write_text(header + "\n" + body[:pos] + flip + body[pos + 1:],
                        encoding="utf-8")

        healed, stats = self._lifetime(tmp_path)
        assert healed == clean
        assert _counters(stats)["cache.quarantined"] == 1

    def test_legacy_headerless_entry_quarantined(self, tmp_path):
        clean, _ = self._lifetime(tmp_path)
        [path] = list(tmp_path.glob("*.quip"))
        _header, _, body = path.read_text(encoding="utf-8").partition("\n")
        path.write_text(body, encoding="utf-8")  # pre-checksum format

        healed, stats = self._lifetime(tmp_path)
        assert healed == clean
        assert _counters(stats)["cache.quarantined"] == 1

    def test_injected_read_corruption_heals(self, tmp_path):
        clean, _ = self._lifetime(tmp_path)
        plan = FaultPlan.parse("disk_read:corrupt@once", seed=7)
        healed, stats = self._lifetime(tmp_path, faults=plan)
        assert healed == clean
        assert _counters(stats)["faults.injected"] == 1
        assert _counters(stats)["cache.quarantined"] == 1
        assert stats["faults"]["fired"] == {"disk_read.corrupt": 1}

    def test_injected_write_failure_keeps_serving(self, tmp_path):
        plan = FaultPlan.parse("disk_write:crash@once", seed=7)
        first, stats = self._lifetime(tmp_path, faults=plan)
        assert _counters(stats)["cache.disk_write_errors"] == 1
        assert not list(tmp_path.glob("*.quip"))  # entry stayed memory-only
        second, stats2 = self._lifetime(tmp_path)
        assert second == first
        assert _counters(stats2).get("cache.disk_hits", 0) == 0


class TestChaos:
    def test_sigkill_worker_mid_hammer_zero_failures(self):
        """The acceptance scenario: SIGKILL costs nobody a request."""
        async def scenario():
            async with service(shards=1, max_running=8) as server:
                def warm():
                    with client_for(server) as svc:
                        job = svc.submit(**HAMMER_SPEC)
                        status = svc.wait(job["id"], timeout=120)
                        assert status["state"] == "done", status
                        return status["worker"]["pid"]
                pid = await in_thread(warm)

                def hammer_and_kill():
                    def killer():
                        time.sleep(0.05)
                        os.kill(pid, signal.SIGKILL)
                    thread = threading.Thread(target=killer)
                    thread.start()
                    try:
                        payloads = _hammer(server, 6)
                    finally:
                        thread.join()
                    # One more job: even if the kill landed after the
                    # hammer drained, the supervisor must still notice
                    # the corpse and respawn before answering this.
                    with client_for(server) as svc:
                        payloads.append(
                            canonical_json(svc.query(**HAMMER_SPEC)).encode()
                        )
                        return payloads, svc.stats(), svc.profile()
                return await in_thread(hammer_and_kill)

        payloads, stats, profile = asyncio.run(scenario())
        assert len(set(payloads)) == 1  # byte-identical through the murder
        counters = _counters(stats)
        assert counters["worker.respawns"] >= 1
        assert counters.get("jobs.failed", 0) == 0
        assert counters.get("jobs.fallback_sync", 0) == 0  # recovered, not
        # degraded -- and the obs mirror carries the acceptance counter.
        assert profile["counters"]["service.worker.respawns"] >= 1

    def test_pool_restart_between_submissions(self):
        async def scenario():
            async with service(shards=1) as server:
                def ask():
                    with client_for(server) as svc:
                        result = svc.query(**HAMMER_SPEC)
                        return canonical_json(result).encode(), svc.stats()
                first, _ = await in_thread(ask)
                server.pool.shutdown()
                server.pool.start()
                second, stats = await in_thread(ask)
                return first, second, stats

        first, second, stats = asyncio.run(scenario())
        assert first == second
        # The fresh worker lost the circuit; the pool re-shipped it.
        assert _counters(stats)["pool.reships"] >= 1
        assert _counters(stats).get("jobs.failed", 0) == 0

    def test_heartbeat_respawns_idle_killed_worker(self):
        async def scenario():
            async with service(shards=1, heartbeat=0.1) as server:
                def warm():
                    with client_for(server) as svc:
                        job = svc.submit(**HAMMER_SPEC)
                        return svc.wait(job["id"], timeout=120)
                pid = (await in_thread(warm))["worker"]["pid"]
                os.kill(pid, signal.SIGKILL)
                # No job arrives; only the heartbeat can notice.
                for _ in range(200):
                    if server.pool.respawns[0] >= 1:
                        break
                    await asyncio.sleep(0.05)

                def rerun():
                    with client_for(server) as svc:
                        job = svc.submit(**HAMMER_SPEC)
                        status = svc.wait(job["id"], timeout=120)
                        return status, svc.stats()
                status, stats = await in_thread(rerun)
                return pid, status, stats

        pid, status, stats = asyncio.run(scenario())
        counters = _counters(stats)
        assert counters["worker.heartbeat_failures"] >= 1
        assert counters["worker.respawns"] >= 1
        assert status["state"] == "done"
        assert status["worker"]["pid"] != pid
        assert counters.get("jobs.failed", 0) == 0

    def test_injected_crash_schedule_is_deterministic(self):
        """The CI chaos combo, pinned: seed 7 crashes exec arrival 4."""
        plan = FaultPlan.parse("worker_exec:crash@0.2", seed=7)

        async def scenario():
            async with service(shards=1, faults=plan) as server:
                def work():
                    payloads = []
                    with client_for(server) as svc:
                        for _ in range(6):
                            payloads.append(canonical_json(
                                svc.query(**HAMMER_SPEC)
                            ).encode())
                        return payloads, svc.stats()
                return await in_thread(work)

        payloads, stats = asyncio.run(scenario())
        assert len(set(payloads)) == 1
        counters = _counters(stats)
        # Exactly one crash (5th exec in the first worker incarnation;
        # the respawned worker replays its schedule from arrival 0 and
        # survives), one respawn, one requeue -- every run, same story.
        assert counters["worker.crashes"] == 1
        assert counters["worker.respawns"] == 1
        assert counters["worker.retries"] == 1
        assert counters["pool.jobs"] == 6
        assert counters.get("jobs.failed", 0) == 0


class TestDegradation:
    def test_spawn_crash_loop_degrades_to_in_process(self):
        plan = FaultPlan.parse("worker_spawn:crash@1", seed=7)

        async def scenario():
            async with service(shards=1, faults=plan,
                               heartbeat=0) as server:
                def work():
                    payloads = []
                    with client_for(server) as svc:
                        for _ in range(3):
                            payloads.append(canonical_json(
                                svc.query(**RUN_SPEC)
                            ).encode())
                        return payloads, svc.stats(), svc.health()
                return await in_thread(work)

        payloads, stats, health = asyncio.run(scenario())
        # Correct answers, reduced throughput: every job fell back to
        # an in-process run with bytes identical to a healthy server's.
        assert set(payloads) == {_clean_payload(json.dumps(RUN_SPEC))}
        counters = _counters(stats)
        assert counters["jobs.fallback_sync"] == 3
        assert counters["worker.shards_failed"] == 1
        assert counters.get("jobs.failed", 0) == 0
        assert stats["health"] == "degraded"
        assert stats["pool"]["degraded"] is True
        assert health["ok"] is True  # degraded still serves
        assert health["status"] == "degraded"

    def test_drain_finishes_running_jobs_and_503s_new_ones(self):
        async def scenario():
            async with service() as server:
                def start_job():
                    with client_for(server) as svc:
                        return svc.submit(**HAMMER_SPEC)["id"]
                job_id = await in_thread(start_job)
                server.begin_drain()

                def during_drain():
                    with client_for(server, max_wait=0) as svc:
                        health = svc.health()
                        try:
                            svc.submit(program="bell")
                            rejection = None
                        except ServiceClientError as exc:
                            rejection = exc
                        status = svc.wait(job_id, timeout=120)
                        return health, rejection, status, svc.stats()
                health, rejection, status, stats = await in_thread(
                    during_drain
                )
                # Grace-period drain closes the listener once idle.
                await server.drain(grace=10.0)

                def refused():
                    try:
                        with client_for(server, max_wait=0,
                                        retries=0) as svc:
                            svc.health()
                    except OSError as exc:
                        return exc
                    return None
                return health, rejection, status, stats, \
                    await in_thread(refused)

        health, rejection, status, stats, refused = asyncio.run(scenario())
        assert health["ok"] is False
        assert health["status"] == "draining"
        assert rejection is not None
        assert rejection.status == 503
        assert rejection.retry_after == 1.0
        assert status["state"] == "done"  # admitted work still finished
        assert _counters(stats)["jobs.rejected_draining"] == 1
        assert _counters(stats)["drains"] == 1
        assert refused is not None


class TestFaultMatrix:
    """Every (point, mode) combo, deterministic under seed 7.

    The invariant is uniform: requests may get slower, never wrong --
    each faulted workload must succeed end-to-end with bytes identical
    to a fault-free server's, leaving the expected evidence counter.
    """

    RUN_COMBOS = [
        ("worker_spawn:crash@once", "worker.retries"),
        ("worker_spawn:delay@once", "faults.injected"),
        ("worker_exec:crash@0.3", "worker.respawns"),
        ("worker_exec:corrupt@0.5", "worker.retries"),
        ("worker_exec:delay@0.5", None),  # worker-side slow-down only
        ("ipc_send:crash@0.3", "worker.retries"),
        ("ipc_send:delay@0.3", "faults.injected"),
        ("ipc_recv:crash@0.3", "worker.retries"),
        ("ipc_recv:delay@0.5", "faults.injected"),
    ]

    @pytest.mark.parametrize("plan_spec,evidence",
                             RUN_COMBOS, ids=[c[0] for c in RUN_COMBOS])
    def test_worker_and_ipc_faults(self, plan_spec, evidence):
        plan = FaultPlan.parse(plan_spec, seed=7)

        async def scenario():
            async with service(shards=1, faults=plan) as server:
                def work():
                    payloads = []
                    with client_for(server) as svc:
                        for _ in range(5):
                            payloads.append(canonical_json(
                                svc.query(**RUN_SPEC)
                            ).encode())
                        return payloads, svc.stats()
                return await in_thread(work)

        payloads, stats = asyncio.run(scenario())
        assert set(payloads) == {_clean_payload(json.dumps(RUN_SPEC))}
        counters = _counters(stats)
        assert counters.get("jobs.failed", 0) == 0
        assert counters.get("jobs.fallback_sync", 0) == 0
        if evidence is not None:
            assert counters.get(evidence, 0) >= 1, (plan_spec, counters)

    DISK_COMBOS = [
        ("disk_read:corrupt@0.5", "cache.quarantined"),
        ("disk_read:delay@0.5", "faults.injected"),
        ("disk_read:crash@0.5", "cache.disk_read_errors"),
        ("disk_write:crash@0.5", "cache.disk_write_errors"),
        ("disk_write:delay@0.5", "faults.injected"),
    ]

    def _disk_lifetime(self, cache_dir, faults=None):
        specs = [
            {"program": "bwt", "params": {"n": n}, "action": "count"}
            for n in (2, 3, 4, 5)
        ]

        async def scenario():
            async with service(cache_dir=str(cache_dir),
                               faults=faults) as server:
                def work():
                    payloads = []
                    with client_for(server) as svc:
                        for spec in specs:
                            payloads.append(canonical_json(
                                svc.query(**spec)
                            ).encode())
                        return payloads, svc.stats()
                return await in_thread(work)

        return asyncio.run(scenario())

    @pytest.mark.parametrize("plan_spec,evidence",
                             DISK_COMBOS, ids=[c[0] for c in DISK_COMBOS])
    def test_disk_faults(self, plan_spec, evidence, tmp_path):
        plan = FaultPlan.parse(plan_spec, seed=7)
        if plan_spec.startswith("disk_write"):
            # Writes only happen on cold builds: fault the first
            # lifetime, then prove a clean warm-start over whatever
            # subset landed on disk still answers identically.
            baseline, _ = self._disk_lifetime(tmp_path / "clean")
            faulted, stats = self._disk_lifetime(tmp_path / "hot", plan)
            healed, _ = self._disk_lifetime(tmp_path / "hot")
            assert faulted == baseline == healed
        else:
            # Reads only happen on warm starts: populate clean, then
            # re-read the same four entries through the fault.
            baseline, _ = self._disk_lifetime(tmp_path)
            faulted, stats = self._disk_lifetime(tmp_path, plan)
            assert faulted == baseline
        counters = _counters(stats)
        assert counters.get("jobs.failed", 0) == 0
        assert counters.get(evidence, 0) >= 1, (plan_spec, counters)

    ADMISSION_COMBOS = [
        ("job_admission:reject@0.3", 429),
        ("job_admission:crash@0.3", 503),
        ("job_admission:corrupt@0.3", 429),
        ("job_admission:delay@0.3", None),
    ]

    @pytest.mark.parametrize("plan_spec,shed_status", ADMISSION_COMBOS,
                             ids=[c[0] for c in ADMISSION_COMBOS])
    def test_admission_faults(self, plan_spec, shed_status):
        plan = FaultPlan.parse(plan_spec, seed=7)

        async def scenario():
            async with service(faults=plan) as server:
                def work():
                    payloads = []
                    with client_for(server, backoff=0.05) as svc:
                        for _ in range(5):
                            payloads.append(canonical_json(
                                svc.query(**COUNT_SPEC)
                            ).encode())
                        return payloads, svc.stats()
                return await in_thread(work)

        payloads, stats = asyncio.run(scenario())
        assert set(payloads) == {_clean_payload(json.dumps(COUNT_SPEC))}
        counters = _counters(stats)
        assert counters["faults.injected"] >= 1
        assert counters.get("jobs.failed", 0) == 0
        if shed_status is not None:
            # Shed requests surfaced as retryable statuses the client
            # absorbed; nothing reached the job table for them.
            fired = stats["faults"]["fired"]
            assert sum(fired.values()) >= 1, fired
