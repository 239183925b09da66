"""The supervised, sharded simulation worker pool.

Simulation is CPU-bound Python + numpy, so run jobs leave the event
loop for a pool of **single-process shards**: each shard is its own
``ProcessPoolExecutor(max_workers=1)``, and a job's digest picks its
shard deterministically (``int(digest[:8], 16) % shards``).  Digest
affinity is the point -- every run of one circuit lands in the worker
that already holds it, so the worker-side caches do their job:

* a per-worker LRU of parsed Programs keyed by digest (the circuit text
  ships to a shard exactly once, not per job), and
* the per-circuit compiled-stream memo of
  :func:`repro.transform.inline.compile_flat`, warm after the first run.

Workers are plain ``spawn`` processes (no fork-under-threads hazards in
a threaded server): they import :mod:`repro` fresh and never touch the
server's memory, which is why seeded results are byte-identical no
matter which worker -- or which server lifetime -- produced them.

:class:`ShardedPool` *supervises* those shards.  A worker that dies
mid-job (SIGKILL, OOM, injected crash) surfaces as a broken executor;
the pool respawns the shard with bounded exponential backoff, requeues
the in-flight job, and retries it at most :attr:`ShardedPool.max_retries`
times -- safe, because the pipeline is deterministic, so a retried
seeded run returns the same bytes the lost one would have.  A
heartbeat task pings idle shards and respawns silently-dead ones before
the next job finds out.  A shard that keeps dying (more than
:attr:`ShardedPool.max_respawns` consecutive failures) is marked failed
and the pool raises :class:`~repro.service.faults.PoolUnavailable`,
which the job manager answers with an in-process fallback run -- the
service degrades, it does not fail.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from ..obs import core as _obs
from .faults import DELAY_S, FaultPlan, InjectedFault, PoolUnavailable
from .metrics import ServiceMetrics
from .registry import ServiceError

#: Per-worker parsed-Program LRU size (circuits, not gates).
WORKER_CACHE_SIZE = 32

#: Sentinel payload a worker returns when it does not hold the digest
#: (fresh worker, LRU eviction, crashed-and-respawned process) and the
#: call did not ship the circuit text; the server retries with text.
_NEED_TEXT = "_need_text"

# -- worker-side (runs in the spawned process) ------------------------------

_WORKER_PROGRAMS: "OrderedDict[str, object]" = OrderedDict()

_WORKER_FAULTS = FaultPlan()


def _worker_init(fault_spec: str, fault_seed: int) -> None:
    """Executor initializer: arm the worker's own fault schedule.

    Each worker incarnation replays the schedule from arrival 0, so a
    fixed seed fully determines when (and whether) a worker crashes --
    including across respawns.
    """
    global _WORKER_FAULTS
    _WORKER_FAULTS = FaultPlan.parse(fault_spec, seed=fault_seed)


def _worker_ping() -> int:
    """Heartbeat probe: proves the worker process answers (returns pid).

    Deliberately outside the fault schedule -- the supervisor must
    trust its own detector.
    """
    return os.getpid()


def run_program_payload(program, run_kwargs: dict) -> dict:
    """Run one program and flatten the result to its JSON payload.

    The single run path shared by workers and the in-process
    degradation fallback, so both produce byte-identical payloads for
    one seeded job.
    """
    from .serialize import result_payload

    extra = {}
    if run_kwargs.get("batch") is not None:
        extra["batch"] = run_kwargs["batch"]
    result = program.run(
        run_kwargs.get("backend", "statevector"),
        shots=run_kwargs.get("shots"),
        seed=run_kwargs.get("seed"),
        in_values=run_kwargs.get("in_values"),
        **extra,
    )
    return result_payload(result)


def _worker_run(digest: str, text: str | None, run_kwargs: dict) -> dict:
    """Execute one run job inside a worker process.

    Returns a JSON/pickle-safe dict: the serialized
    :class:`~repro.backends.RunResult` payload plus worker provenance
    (pid, whether the program/compiled stream were already warm) that
    the stats endpoint and the cache tests read.

    The ``worker_exec`` injection point fires here: ``crash`` kills the
    process the way SIGKILL would (no cleanup, no exception crosses the
    pipe), anything else raises a picklable
    :class:`~repro.service.faults.InjectedFault` the supervisor retries.
    """
    import time

    from ..program import Program

    rule = _WORKER_FAULTS.fire("worker_exec")
    if rule is not None:
        if rule.mode == "delay":
            time.sleep(DELAY_S)
        elif rule.mode == "crash":
            os._exit(13)  # die like SIGKILL: no unwind, pipe just breaks
        else:
            raise InjectedFault(f"injected worker_exec:{rule.mode}")
    program = _WORKER_PROGRAMS.get(digest)
    program_warm = program is not None
    if program is None:
        if text is None:
            return {_NEED_TEXT: True}
        program = Program.loads(text, name=f"worker:{digest[:12]}")
        program.bcircuit  # parse now: steady-state runs are replay-only
        _WORKER_PROGRAMS[digest] = program
        _WORKER_PROGRAMS.move_to_end(digest)
        while len(_WORKER_PROGRAMS) > WORKER_CACHE_SIZE:
            _WORKER_PROGRAMS.popitem(last=False)
    else:
        _WORKER_PROGRAMS.move_to_end(digest)
    stream_warm = "compiled" in program.bcircuit.memo()
    return {
        "payload": run_program_payload(program, run_kwargs),
        "worker": {
            "pid": os.getpid(),
            "program_warm": program_warm,
            "stream_warm": stream_warm,
        },
    }


# -- server-side ------------------------------------------------------------


class ShardedPool:
    """Digest-affine pool of supervised single-worker process shards.

    Crash handling is three nested safety nets, cheapest first:

    1. **Retry** -- a failed attempt (broken executor, injected ipc
       fault) requeues the job on the same shard, up to *max_retries*
       times (``worker.retries``).
    2. **Respawn** -- a broken executor is torn down and respawned with
       exponential backoff (``worker.respawns``); the shard's shipped-
       digest set is cleared so circuit text ships again.
    3. **Give up per shard** -- more than *max_respawns* consecutive
       failures marks the shard failed (``worker.shards_failed``) and
       jobs for it raise :class:`PoolUnavailable`, the job manager's
       cue to run in-process instead.

    A background heartbeat pings idle started shards every *heartbeat*
    seconds and routes failures through the same respawn path, so a
    worker SIGKILLed *between* jobs is already replaced when the next
    job arrives.
    """

    def __init__(self, metrics: ServiceMetrics, shards: int = 2, *,
                 faults: FaultPlan | None = None, max_retries: int = 3,
                 max_respawns: int = 5, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0, heartbeat: float = 5.0):
        if shards < 1:
            raise ServiceError("worker pool needs at least one shard")
        self.metrics = metrics
        self.shards = shards
        self.faults = faults or FaultPlan()
        self.max_retries = max_retries
        self.max_respawns = max_respawns
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.heartbeat = heartbeat
        self._context = multiprocessing.get_context("spawn")
        self._executors: list[ProcessPoolExecutor | None] = [None] * shards
        #: Digests each shard has been shipped (so text goes over once).
        self._known: list[set[str]] = [set() for _ in range(shards)]
        #: Bumped on every (re)spawn; lets concurrent jobs that crashed
        #: on one incarnation agree on a single respawn.
        self._generation = [0] * shards
        #: Consecutive failed attempts per shard; any success resets.
        self._consecutive = [0] * shards
        self.busy = [0] * shards
        self.jobs_run = [0] * shards
        self.respawns = [0] * shards
        self.failed = [False] * shards
        self._heartbeat_task: asyncio.Task | None = None

    def shard_index(self, digest: str) -> int:
        """The deterministic shard owning *digest*."""
        return int(digest[:8], 16) % self.shards

    @property
    def degraded(self) -> bool:
        """Whether any shard has been given up on (healthz reports it)."""
        return any(self.failed)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Launch the heartbeat supervisor (needs a running loop)."""
        if self.heartbeat and self._heartbeat_task is None:
            self._heartbeat_task = asyncio.get_running_loop().create_task(
                self._heartbeat_loop(), name="repro-service-heartbeat"
            )

    def shutdown(self) -> None:
        """Stop the heartbeat and every started shard process."""
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        for i, executor in enumerate(self._executors):
            if executor is not None:
                executor.shutdown(wait=False, cancel_futures=True)
                self._executors[i] = None

    # -- supervision --------------------------------------------------------

    def _executor(self, index: int) -> ProcessPoolExecutor:
        executor = self._executors[index]
        if executor is None:
            rule = self.faults.fire("worker_spawn")
            if rule is not None:
                self.metrics.inc("faults.injected")
                # delay is a no-op here (spawning is already slow and
                # this is the event-loop thread); everything else is a
                # failed spawn the retry loop handles.
                if rule.mode != "delay":
                    raise InjectedFault(f"injected worker_spawn:{rule.mode}")
            executor = ProcessPoolExecutor(
                max_workers=1, mp_context=self._context,
                initializer=_worker_init,
                initargs=(self.faults.spec(), self.faults.seed),
            )
            self._executors[index] = executor
            self._generation[index] += 1
        return executor

    def _note_failure(self, index: int) -> None:
        """Record one failed attempt; give the shard up past the budget."""
        self._consecutive[index] += 1
        if self._consecutive[index] > self.max_respawns:
            if not self.failed[index]:
                self.failed[index] = True
                self.metrics.inc("worker.shards_failed")
            raise PoolUnavailable(
                f"shard {index} failed {self._consecutive[index]} "
                f"consecutive attempts; giving it up"
            )

    async def _respawn(self, index: int, generation: int,
                       reason: str) -> None:
        """Replace shard *index*'s process (once per broken incarnation).

        Concurrent jobs that all crashed on generation *g* funnel here;
        only the first finds the generation unchanged and pays the
        teardown + backoff, the rest return immediately and retry
        against the fresh incarnation.
        """
        if self._generation[index] != generation:
            return  # a sibling already respawned this incarnation
        executor = self._executors[index]
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
            self._executors[index] = None
        self._generation[index] += 1
        self._known[index].clear()
        self.respawns[index] += 1
        self.metrics.inc("worker.respawns")
        if _obs.ENABLED:
            _obs.add(f"service.worker.respawn.{reason}", 1)
        self._note_failure(index)
        backoff = min(
            self.backoff_base * 2 ** (self._consecutive[index] - 1),
            self.backoff_cap,
        )
        await asyncio.sleep(backoff)

    async def _heartbeat_loop(self) -> None:
        """Ping idle started shards; respawn the ones that stop answering."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat)
            for index in range(self.shards):
                executor = self._executors[index]
                if (executor is None or self.failed[index]
                        or self.busy[index]):
                    continue  # cold, given-up, or legitimately working
                generation = self._generation[index]
                try:
                    await asyncio.wait_for(
                        loop.run_in_executor(executor, _worker_ping),
                        timeout=max(1.0, self.heartbeat),
                    )
                    self.metrics.inc("worker.heartbeats")
                except asyncio.TimeoutError:
                    if self.busy[index]:
                        continue  # a job arrived mid-ping; not a hang
                    self.metrics.inc("worker.heartbeat_failures")
                    await self._try_respawn(index, generation)
                except Exception:  # noqa: BLE001 - dead/broken executor
                    self.metrics.inc("worker.heartbeat_failures")
                    await self._try_respawn(index, generation)

    async def _try_respawn(self, index: int, generation: int) -> None:
        try:
            await self._respawn(index, generation, "heartbeat")
        except PoolUnavailable:
            pass  # shard marked failed; jobs will degrade gracefully

    async def _fire_ipc(self, point: str) -> None:
        """Fire a server-side ipc injection point (delay or raise)."""
        rule = self.faults.fire(point)
        if rule is None:
            return
        self.metrics.inc("faults.injected")
        if rule.mode == "delay":
            await asyncio.sleep(DELAY_S)
        else:
            raise InjectedFault(f"injected {point}:{rule.mode}")

    # -- job execution ------------------------------------------------------

    async def run(self, digest: str, text_provider: Callable[[], str],
                  run_kwargs: dict) -> dict:
        """Fan one run job out to its shard; returns the worker's dict.

        Ships the circuit text only when the shard has not seen the
        digest; a worker that lost it anyway (respawn, LRU eviction)
        answers with a need-text sentinel and the attempt retries once
        with the text attached.  A crashed worker or injected ipc fault
        requeues the whole attempt (respawning first when the process
        died), at most :attr:`max_retries` times, before the pool
        declares itself unavailable for this job.
        """
        index = self.shard_index(digest)
        if self.failed[index]:
            raise PoolUnavailable(f"shard {index} is marked failed")
        self.busy[index] += 1
        try:
            last_error: BaseException | None = None
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self.metrics.inc("worker.retries")
                generation = self._generation[index]
                try:
                    outcome = await self._attempt(
                        index, digest, text_provider, run_kwargs
                    )
                except BrokenProcessPool as exc:
                    last_error = exc
                    self.metrics.inc("worker.crashes")
                    await self._respawn(index, generation, "crash")
                    continue
                except InjectedFault as exc:
                    last_error = exc
                    self._note_failure(index)
                    continue
                self._consecutive[index] = 0
                self.jobs_run[index] += 1
                self.metrics.inc("pool.jobs")
                return outcome
            raise PoolUnavailable(
                f"shard {index}: job still failing after "
                f"{self.max_retries} retries ({last_error})"
            )
        finally:
            self.busy[index] -= 1

    async def _attempt(self, index: int, digest: str,
                       text_provider: Callable[[], str],
                       run_kwargs: dict) -> dict:
        """One dispatch attempt against the shard's current incarnation."""
        loop = asyncio.get_running_loop()
        executor = self._executor(index)
        known = self._known[index]
        text = None
        if digest not in known:
            text = await loop.run_in_executor(None, text_provider)
        await self._fire_ipc("ipc_send")
        outcome = await loop.run_in_executor(
            executor, _worker_run, digest, text, run_kwargs
        )
        if outcome.get(_NEED_TEXT):
            known.discard(digest)
            self.metrics.inc("pool.reships")
            text = await loop.run_in_executor(None, text_provider)
            outcome = await loop.run_in_executor(
                executor, _worker_run, digest, text, run_kwargs
            )
        await self._fire_ipc("ipc_recv")
        known.add(digest)
        return outcome

    def snapshot(self) -> dict:
        """The stats-endpoint view of the pool."""
        return {
            "shards": self.shards,
            "busy": list(self.busy),
            "jobs_run": list(self.jobs_run),
            "known_digests": [len(k) for k in self._known],
            "started": [e is not None for e in self._executors],
            "respawns": list(self.respawns),
            "failed": list(self.failed),
            "degraded": self.degraded,
        }


#: Backward-compatible alias (the pre-supervision class name).
ShardPool = ShardedPool

__all__ = ["ShardPool", "ShardedPool", "WORKER_CACHE_SIZE",
           "run_program_payload"]
