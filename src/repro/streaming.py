"""The fluent streaming surface: one gate stream, every consumer.

A :class:`GateStream` is the streaming counterpart of
:class:`~repro.program.Program`: where a Program generates (and caches) a
:class:`~repro.core.circuit.BCircuit` that consumers walk, a GateStream
re-runs its producer once per consumer and pushes each gate through the
consumer the moment it is emitted -- nothing is ever materialized, so the
circuit's size is bounded by disk (for the writers) or by nothing at all
(for the counters), not by RAM.

::

    prog = Program.capture(huge_circuit)
    prog.stream().count()                  # gate count, nothing stored
    prog.stream().resources()              # counts, depths and width
    prog.stream(to_toffoli).count()        # rules fused into the stream
    with open("circuit.quip", "w") as fp:
        prog.stream().dump(fp)             # incremental interchange dump
    prog.stream().run(shots=64, seed=1)    # simulate while generating

Repeated boxed-subroutine calls stay *symbolic* in the counting
consumers (the body is costed once and multiplied through its call
sites), which is what makes million-to-billion-gate resource estimates
finish in seconds -- the paper's headline scalability result.  A sampled
:meth:`GateStream.run` reaches the simulation backend's one sampler, as
a stored circuit does: the stream is generated once for its
deterministic prefix and once more per fork (:class:`SimulationFeed`).
"""

from __future__ import annotations

from typing import Callable

from .backends.base import (BackendError, RunResult, SimulatorBackend,
                            SuffixScan)
from .backends.registry import get_backend
from .backends.resources import resource_report
from .core.gates import Comment, Discard, Gate, Measure
from .core.stream import StreamConsumer
from .obs import core as _obs
from .optimize.stream import StreamOptimizer
from .transform.count import total_gates, total_logical_gates
from .transform.pipeline import StreamTransformer
from .transform.summary import StreamingSummary
from .transform.transformer import Rule


class GateStream:
    """A re-runnable gate stream with the full consumer surface.

    ``produce(consumer)`` runs the underlying producer -- a generating
    builder (:func:`~repro.core.stream.stream_build`) or a stored-circuit
    replay (:func:`~repro.core.stream.replay_bcircuit`) -- pushing every
    gate to *consumer* and returning its result.  Each consumer method
    below is one fresh pass over the stream.
    """

    def __init__(self, produce: Callable[[StreamConsumer], object], *,
                 name: str = "stream", rules: tuple[Rule, ...] = (),
                 stages: tuple[tuple[str, tuple], ...] | None = None):
        self._produce_raw = produce
        self.name = name
        #: Ordered processing stages, applied producer-side first:
        #: ("rules", rule-tuple) or ("opt", pass-tuple).
        if stages is None:
            stages = (("rules", tuple(rules)),) if rules else ()
        self._stages = stages

    @property
    def _rules(self) -> tuple[Rule, ...]:
        """Every transformer rule in the chain, in application order."""
        return tuple(
            rule
            for kind, items in self._stages
            if kind == "rules"
            for rule in items
        )

    def _produce(self, consumer: StreamConsumer):
        label = type(consumer).__name__
        # Stages wrap inside-out: the first-applied stage is outermost.
        for kind, items in reversed(self._stages):
            if kind == "rules":
                consumer = StreamTransformer(items, consumer)
            else:
                consumer = StreamOptimizer(items, consumer)
        if _obs.ENABLED:
            with _obs.span("stream", stream=self.name, consumer=label):
                return self._produce_raw(consumer)
        return self._produce_raw(consumer)

    @staticmethod
    def _pass_key(peephole) -> tuple:
        """Equality key for a pass: its type plus its configuration."""
        return (type(peephole), tuple(sorted(vars(peephole).items())))

    def _extend(self, kind: str, items: tuple, name: str) -> "GateStream":
        """A new stream with *items* merged into the trailing stage.

        Transformer rules concatenate verbatim (chaining a rule twice
        applies it twice, like the materialized pipeline); optimizer
        passes deduplicate by type + configuration, since re-matching a
        window against an already-present pass is pure overhead.
        """
        stages = self._stages
        if stages and stages[-1][0] == kind:
            if kind == "rules":
                extra = tuple(items)
            else:
                present = {self._pass_key(p) for p in stages[-1][1]}
                extra = tuple(
                    item for item in items
                    if self._pass_key(item) not in present
                )
            stages = stages[:-1] + ((kind, stages[-1][1] + extra),)
        elif items or kind == "opt":
            stages = stages + ((kind, tuple(items)),)
        return GateStream(self._produce_raw, name=name, stages=stages)

    def transform(self, *rules) -> "GateStream":
        """Chain further transformer rules into the streaming chain.

        Rules are callables or gate-base names (``"toffoli"``,
        ``"binary"``), exactly as :meth:`repro.program.Program.transform`
        accepts.  Stage order follows call order: rules chained *after*
        an :meth:`optimize` stage see the optimized stream.
        """
        from .program import _resolve_rules

        return self._extend("rules", _resolve_rules(rules), self.name)

    def optimize(self, *passes) -> "GateStream":
        """Peephole-optimize the stream on its way to the consumer.

        Adds a :class:`~repro.optimize.StreamOptimizer` stage at this
        point of the chain: each gate flows through a bounded sliding
        window (O(window) memory) where adjacent inverse pairs cancel,
        rotations merge, and Clifford runs reduce; boxed subroutine
        bodies are optimized once, on demand.  With no arguments the
        default pass chain applies; calling again on the same stage
        merges (already-present passes are not duplicated).  See
        :mod:`repro.optimize.passes`.

        ::

            prog.stream("binary").optimize().count()
        """
        from .optimize.passes import resolve_passes

        return self._extend(
            "opt", resolve_passes(passes), f"{self.name}.optimize"
        )

    # -- counting and estimation --------------------------------------------

    def count(self):
        """Aggregated gate count of the stream.

        Taken by a :class:`~repro.transform.summary.StreamingSummary`,
        so the stream is validated as it is counted; memory is
        O(top-level wire ids), however many gates flow past.
        """
        return self._produce(StreamingSummary()).counts

    def total_gates(self) -> int:
        """Total gate count of the stream, Init/Term/Meas included."""
        return total_gates(self.count())

    def logical_gates(self) -> int:
        """Gate count excluding initialization/termination/measurement."""
        return total_logical_gates(self.count())

    def depth(self) -> int:
        """Critical-path depth of the stream (O(top-level wire ids) memory)."""
        return self._produce(StreamingSummary()).depth

    def t_depth(self) -> int:
        """Critical-path depth counting only T gates."""
        return self._produce(StreamingSummary(t_only=True)).depth

    def resources(self) -> dict:
        """The full resource report (counts, depth, T-depth, width).

        Two passes: one summary, and one T-depth walk.
        """
        walk = StreamingSummary()
        summary = self._produce(walk)
        t_depth = self._produce(StreamingSummary(t_only=True)).depth
        end = walk.end
        return resource_report(summary, t_depth, end.inputs, end.outputs,
                               end.namespace)

    # -- incremental writers -------------------------------------------------

    def write_ascii(self, fp):
        """Write the printer-style ASCII rendering incrementally to *fp*."""
        from .output.ascii import AsciiStreamWriter

        return self._produce(AsciiStreamWriter(fp))

    def dump(self, fp):
        """Write Quipper-ASCII interchange text incrementally to *fp*.

        The result round-trips through :func:`repro.io.loads` and is
        byte-identical to :func:`repro.io.dumps` of the materialized
        circuit -- but the main circuit is never held in memory.
        """
        from .output.ascii import AsciiStreamWriter

        return self._produce(AsciiStreamWriter(fp, interchange=True))

    def write_qasm(self, fp):
        """Export flat OpenQASM 2.0 incrementally to *fp*.

        Boxed calls are expanded on the fly; the body is spooled to a
        temporary file so the header's register declarations can be
        written first (O(1) memory, O(circuit) disk).
        """
        from .io.qasm import QasmStreamWriter

        return self._produce(QasmStreamWriter(fp))

    # -- simulation ----------------------------------------------------------

    def run(self, backend: str = "statevector", *, shots: int | None = None,
            in_values: dict[int, bool] | None = None,
            seed: int | None = None, **options) -> RunResult:
        """Simulate the gate stream directly on a simulation backend.

        *options* configure the backend, as in :meth:`repro.program.
        Program.run`.  With ``shots=None`` each gate hits the statevector
        kernels (or the growing stabilizer tableau) the moment it is
        emitted.  With ``shots``, the deterministic prefix runs once and
        the backend's one sampler draws the shots from it, as for a
        stored circuit, regenerating the stream to run only its suffix
        on each fork (once per fork batch on the statevector, once per
        shot on the Clifford tableau): the counts are ``Program.run``'s
        at every seed, and the producer must emit the same gates every
        time.
        """
        import numpy as np

        if shots is not None and shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        engine = get_backend(backend, **options)
        if not isinstance(engine, SimulatorBackend):
            raise BackendError(
                f"backend {backend!r} has no streaming feed; streaming "
                "supports 'statevector' and 'clifford' (for cost reports "
                "use .resources())"
            )
        rng = np.random.default_rng(seed)
        feed = SimulationFeed(engine, rng, in_values,
                              sampling=shots is not None)

        def generate(fork=None):
            feed.fork = fork
            if _obs.ENABLED:
                _obs.add("stream.generations")
            self._produce(feed)

        with _obs.span("run." + backend, stream=self.name,
                       shots=shots if shots is not None else 1):
            generate()
            if shots is None:
                return engine.single(feed.state)
            result = engine.sample(feed.state, feed.scan, generate,
                                   feed.outputs, shots, rng)
        result.metadata["streamed"] = True
        return result

    # -- pull-based iteration ------------------------------------------------

    def gates(self):
        """A generator over the stream's gates (bounded-buffer pull API).

        The push-based producer runs on a worker thread feeding a small
        bounded queue, so iteration is O(queue) memory however long the
        stream; abandoning the iterator (``break`` / ``close``) unwinds
        the producer promptly.
        """
        import contextvars
        import queue
        import threading

        done = object()
        stop = threading.Event()
        fifo: queue.Queue = queue.Queue(maxsize=256)
        failure: list[BaseException] = []

        class _Abort(Exception):
            pass

        class _Yielder(StreamConsumer):
            _pushed = 0

            def gate(self, gate):
                if _obs.ENABLED:
                    # Sampled (not per-gate) so telemetry stays off the
                    # queue's hot path: one depth observation per 256
                    # gates is plenty to see back-pressure.
                    self._pushed += 1
                    if not self._pushed & 255:
                        _obs.observe("stream.queue.depth", fifo.qsize())
                while True:
                    if stop.is_set():
                        raise _Abort()
                    try:
                        fifo.put(gate, timeout=0.05)
                        return
                    except queue.Full:
                        continue

        def work():
            try:
                self._produce(_Yielder())
            except _Abort:
                pass
            except BaseException as exc:  # re-raised on the consumer side
                failure.append(exc)
            while True:
                try:
                    fifo.put(done, timeout=0.05)
                    return
                except queue.Full:
                    if stop.is_set():
                        try:
                            fifo.get_nowait()
                        except queue.Empty:
                            pass

        # Run the producer in a copy of the caller's context so open
        # telemetry spans (contextvar-scoped) nest correctly across the
        # thread hop -- producer-side spans attribute to the consumer's
        # enclosing span, not to a detached root.
        ctx = contextvars.copy_context()
        worker = threading.Thread(
            target=lambda: ctx.run(work),
            name=f"{self.name}-producer", daemon=True,
        )
        worker.start()
        try:
            while True:
                item = fifo.get()
                if item is done:
                    break
                yield item
        finally:
            stop.set()
            while worker.is_alive():
                try:
                    fifo.get(timeout=0.05)
                except queue.Empty:
                    pass
            worker.join()
        if failure:
            raise failure[0]

    __iter__ = gates

    def __repr__(self) -> str:
        rules = f" +{len(self._rules)} rules" if self._rules else ""
        return f"<GateStream {self.name!r}{rules}>"


class SimulationFeed(StreamConsumer):
    """One generation of a streamed :meth:`GateStream.run`, gate by gate
    through the backend's :meth:`~repro.backends.base.SimulatorBackend.
    step`.

    The first generation (``fork`` is None) builds the state through the
    backend, which owns its type and width guard, and executes the
    ``prefix`` gates before the first ``Measure``/``Discard``; then it
    executes the rest, or, when *sampling*, feeds it to ``scan``.  A fork
    generation skips the prefix and executes the rest on ``fork``.  When
    sampling, each generation folds its gates into a running hash, and
    a fork generation whose gates differ from the first's in number or
    in hash, in its prefix or in the rest, raises; no gate is kept.
    """

    def __init__(self, backend: SimulatorBackend, rng,
                 in_values: dict[int, bool] | None, *, sampling: bool):
        self.backend, self.rng, self.in_values = backend, rng, in_values or {}
        self.scan = SuffixScan() if sampling else None
        self.prefix = 0
        self.fork = None
        self._digests = None  # the first generation's (prefix, whole) hash

    def begin(self, inputs, namespace) -> None:
        """Start a generation: build the state, or arm the fork."""
        from .transform.inline import StreamExpander

        self._expander = StreamExpander(namespace)
        self._count = 0
        self._digest = 0
        if self.fork is None:
            self.state = self.backend.load(inputs, self.in_values, self.rng)
        self._take = self._prefix_gate

    def gate(self, gate: Gate) -> None:
        """Take each flat gate of *gate* as this generation's phase does."""
        for flat in self._expander.expand(gate):
            if not isinstance(flat, Comment):
                if self.scan is not None:
                    self._digest = hash((self._digest, flat))
                self._take(flat)

    def _prefix_gate(self, gate: Gate) -> None:
        if isinstance(gate, (Measure, Discard)):
            if self.fork is not None:
                self._agree(self._count == self.prefix
                            and self._digest == self._digests[0])
                self._count = 0
                self._take = self._fork_gate
            elif self.scan is None:
                self._take = self._execute
            else:
                self._digests = (self._digest, None)
                self._take = self.scan.add
            self._take(gate)
        elif self.fork is None:
            self.prefix += 1
            self._execute(gate)
        else:
            self._count += 1

    def _execute(self, gate: Gate) -> None:
        self.backend.step(self.state, gate)

    def _fork_gate(self, gate: Gate) -> None:
        self._agree(self._count < self.scan.gates)
        self._count += 1
        self.backend.step(self.fork, gate)

    @staticmethod
    def _agree(same: bool) -> None:
        if not same:
            raise BackendError(
                "the stream generated different gates on a rerun; a "
                "sampled stream is regenerated to run its suffix, so its "
                "producer must emit the same gates every time"
            )

    def finish(self, end) -> None:
        """Keep the outputs, or check a fork generation's gates."""
        if self.fork is None:
            self.outputs = end.outputs
            if self._digests is not None:
                self._digests = (self._digests[0], self._digest)
        else:
            self._agree(self._take == self._fork_gate
                        and self._count == self.scan.gates
                        and self._digest == self._digests[1])


__all__ = ["GateStream"]
