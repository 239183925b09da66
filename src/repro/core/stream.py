"""Streaming circuit emission: generate gates without materializing them.

The paper's headline scalability result is that Quipper *represents*
circuits of trillions of gates without ever building them: boxed
subcircuits are generated once, and everything else is a stream.  The
materializing path of this reproduction (:func:`repro.core.builder.build`)
stores every top-level gate in a list before any consumer sees it, which
caps circuit size at RAM.  This module removes the cap: a
:class:`StreamingCirc` is a :class:`~repro.core.builder.Circ` whose gate
"list" is a sink -- every emitted gate is pushed to a consumer the moment
the builder function emits it, then dropped.  Memory stays O(live wires +
boxed subroutine bodies) no matter how many gates flow past.

The consumer side is the small :class:`StreamConsumer` protocol::

    consumer.begin(inputs, namespace)   # before the first gate
    consumer.gate(g)                    # once per emitted gate, in order
    consumer.finish(end)                # -> the consumer's result

Boxed subroutines are still materialized (they are generated once and are
small by construction); a ``BoxCall`` flows through the stream as a single
gate, which is what lets streaming counters cost repeated subroutine
calls symbolically (count-per-call x calls) instead of re-streaming them.

The user-facing surface is :meth:`repro.program.Program.stream`, which
wraps :func:`stream_build` (regenerate-per-consumer, never materialize)
and :func:`replay_bcircuit` (stream an already-built hierarchy) behind
one fluent handle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..obs import core as _obs
from .builder import Circ
from .circuit import BCircuit, Subroutine
from .errors import QuipperError
from .gates import Gate
from .qdata import qdata_leaves


class StreamConsumer:
    """Base class for push-based consumers of a gate stream.

    Subclasses override any subset of the three hooks.  ``begin`` receives
    the circuit's typed input wires and the *live* namespace dictionary --
    for a generating stream the namespace grows as ``box`` definitions are
    encountered, but every ``BoxCall`` gate arrives strictly after its
    subroutine is defined, so lookups at :meth:`gate` time always succeed.
    ``finish`` receives a :class:`StreamEnd` and returns the consumer's
    result (a count, a report dict, a written file handle, ...).
    """

    def begin(self, inputs: tuple[tuple[int, str], ...],
              namespace: dict[str, Subroutine]) -> None:
        pass

    def gate(self, gate: Gate) -> None:
        pass

    def finish(self, end: "StreamEnd"):
        return None


@dataclass
class StreamEnd:
    """What a consumer learns only once the stream is exhausted."""

    inputs: tuple[tuple[int, str], ...]
    outputs: tuple[tuple[int, str], ...]
    namespace: dict[str, Subroutine]
    #: The structured output data returned by the generator function
    #: (``None`` for replayed circuits, which only know flat wire lists).
    out_struct: object = None
    #: Top-level gates emitted (NOT the inlined count).
    emitted: int = 0


class _StreamGates:
    """The gate "list" of a streaming builder: a sink, not a store.

    Appended gates are forwarded to the consumer and dropped; only the
    last one is kept, for transformer rules that peek at the gate they
    just emitted (``qc.gates[-1]``).  Retention marks support
    :meth:`StreamingCirc.with_computed`, which must replay (inverted) the
    gates of its compute block: between ``push_mark`` and ``pop_mark``
    the appended gates are additionally buffered, so memory is bounded by
    the largest enclosing compute block, not the circuit.
    """

    __slots__ = ("sink", "last", "_emitted", "_buffer", "_marks")

    def __init__(self, sink: Callable[[Gate], None]):
        self.sink = sink
        self.last: Gate | None = None
        self._emitted = 0
        self._buffer: list[Gate] = []
        self._marks: list[int] = []

    def append(self, gate: Gate) -> None:
        self._emitted += 1
        if self._marks:
            self._buffer.append(gate)
        self.last = gate
        self.sink(gate)

    def __len__(self) -> int:
        return self._emitted

    def __getitem__(self, index):
        if index == -1 and self.last is not None:
            return self.last
        raise QuipperError(
            "a streaming builder retains only its last emitted gate and "
            "the compute block of with_computed"
        )

    def push_mark(self) -> None:
        if _obs.ENABLED:
            _obs.add("stream.retention.marks")
        self._marks.append(len(self._buffer))

    def pop_mark(self) -> list[Gate]:
        recorded = self._buffer[self._marks.pop():]
        if _obs.ENABLED:
            _obs.observe("stream.retention.buffered", len(recorded))
        if not self._marks:
            self._buffer.clear()
        return recorded

    def unrecorded(self, call: Callable, *args):
        """``call(*args)``, keeping what it appends out of the open
        compute blocks (it gets a buffer of its own for any it opens).

        A fixpoint transform stage re-applies its rule to the gates the
        rule emits; a compute block holds those gates, not their rewrites.
        """
        if not self._marks:
            return call(*args)
        held = self._marks, self._buffer
        self._marks, self._buffer = [], []
        result = call(*args)
        self._marks, self._buffer = held
        return result


class StreamingCirc(Circ):
    """A circuit builder that pushes every gate to a consumer and drops it.

    Behaves exactly like :class:`~repro.core.builder.Circ` -- same
    liveness checks, same block structure, same boxing (subroutine bodies
    are still traced into the namespace by ordinary materializing scratch
    builders) -- except that the top-level gate stream is never stored.
    """

    def __init__(self, sink: Callable[[Gate], None],
                 namespace: dict[str, Subroutine] | None = None):
        super().__init__(namespace=namespace)
        self.gates = _StreamGates(sink)

    def with_computed(self, compute: Callable[[], object],
                      action: Callable[[object], object]):
        """Compute, act, uncompute -- buffering only the compute block.

        The semantics match :meth:`Circ.with_computed`; the only
        difference is bookkeeping: a streaming builder cannot slice its
        (unstored) gate history, so the compute block's gates are
        buffered between retention marks and replayed inverted.
        """
        self.gates.push_mark()
        mid = compute()
        recorded = self.gates.pop_mark()
        result = action(mid)
        for gate in reversed(recorded):
            self._emit_raw(gate.inverse())
        return result

    def finish(self, outputs=None, on_extra: str = "warn",
               _stacklevel: int = 2):
        raise QuipperError(
            "a StreamingCirc cannot materialize a BCircuit; its gates "
            "were already streamed to the consumer"
        )


def stream_build(fn: Callable, shapes: tuple, consumer: StreamConsumer,
                 on_extra: str = "warn"):
    """Run *fn* over fresh wires, streaming every gate to *consumer*.

    The streaming analogue of :func:`repro.core.builder.build`: the same
    generation step, but no circuit object is ever constructed -- memory
    stays bounded however many gates *fn* emits.  Returns whatever
    ``consumer.finish`` returns.
    """
    qc = StreamingCirc(consumer.gate)
    args = [qc.fresh_like(shape) for shape in shapes]
    qc.snapshot_inputs()
    consumer.begin(qc._inputs, qc.namespace)
    outs = fn(qc, *args)
    out_struct = qc._resolve_outputs(outs, on_extra=on_extra, _stacklevel=3)
    outputs = tuple(
        (leaf.wire_id, leaf.wire_type) for leaf in qdata_leaves(out_struct)
    )
    return consumer.finish(StreamEnd(
        inputs=qc._inputs,
        outputs=outputs,
        namespace=qc.namespace,
        out_struct=out_struct,
        emitted=len(qc.gates),
    ))


def replay_bcircuit(bc: BCircuit, consumer: StreamConsumer,
                    out_struct: object = None):
    """Stream an already-built hierarchy's top-level gates to *consumer*.

    Gives every circuit -- loaded, transformed, or built -- the same
    consumer surface as a generating stream; the materialized counters,
    depths, printers and exporters are such replays.  Returns whatever
    ``consumer.finish`` returns.  Under telemetry the pass is one
    ``replay`` span naming the consumer class.
    """
    with _obs.span("replay", consumer=type(consumer).__name__):
        consumer.begin(bc.circuit.inputs, bc.namespace)
        gate = consumer.gate
        for each in bc.circuit.gates:
            gate(each)
        return consumer.finish(StreamEnd(
            inputs=bc.circuit.inputs,
            outputs=bc.circuit.outputs,
            namespace=bc.namespace,
            out_struct=out_struct,
            emitted=len(bc.circuit.gates),
        ))


__all__ = [
    "StreamConsumer",
    "StreamEnd",
    "StreamingCirc",
    "replay_bcircuit",
    "stream_build",
]
