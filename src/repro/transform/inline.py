"""Box inlining: expand a hierarchical circuit into a flat one.

Inlining is the semantic ground truth for boxed subcircuits: simulation,
printing with ``unbox``, and the testing of hierarchical gate counts all go
through it.  Controls on a box call are distributed over the body's gates
(Init/Term gates pass under controls unchanged, per Quipper's "nocontrol"
convention -- an ancilla is |0> regardless of the control's value, and the
body's assertions guarantee it is returned to |0>).

:func:`iter_flat_gates` is a lazy generator, so simulators can stream
through hierarchies whose inlined size would not fit in memory.
"""

from __future__ import annotations

from typing import Iterator

from ..core.circuit import BCircuit, Circuit
from ..core.errors import BoxError, ScopeError
from ..obs import core as _obs
from ..core.gates import (
    BoxCall,
    Comment,
    Control,
    Discard,
    Gate,
    Measure,
    NamedGate,
    map_gate_wires,
    with_extra_controls,
)


#: Base of the fresh-wire id range used when a *stream* consumer expands
#: boxed calls on the fly (QASM export, simulation feeds).  A generating
#: stream does not know how many wires the builder will eventually
#: allocate, so expansion ids are drawn from far above any realistic
#: builder range; a subroutine's internal wires die before its call
#: returns, so the two ranges never coexist ambiguously.
STREAM_EXPANSION_BASE = 1 << 60


def _max_wire_id(circuit: Circuit) -> int:
    """The largest wire id *circuit* names, or -1 if it names none."""
    top = max((wire for wire, _ in circuit.inputs), default=-1)
    for gate in circuit.gates:
        if gate.__class__ is NamedGate:  # in place: these are all its wires
            for wire in gate.targets:
                if wire > top:
                    top = wire
            for control in gate.controls:
                if control[0] > top:
                    top = control[0]
            continue
        for wire, _ in gate.wires_in() + gate.wires_out():
            if wire > top:
                top = wire
    return top


class _SharedWires:
    """A monotone supply of fresh wire ids above an existing range.

    Everything that allocates into one circuit draws from one supply --
    the recursive expansions of an inline, every stage of a transform
    chain -- so ids never collide however the allocations interleave.
    """

    __slots__ = ("next_wire",)

    def __init__(self, start: int):
        self.next_wire = start

    def fresh(self) -> int:
        wid = self.next_wire
        self.next_wire += 1
        return wid

    def take(self, count: int) -> int:
        """Allocate *count* consecutive ids; return the first."""
        wid = self.next_wire
        self.next_wire += count
        return wid


def _expand(
    gate: Gate,
    controls: tuple[Control, ...],
    namespace: dict,
    source: _SharedWires,
) -> Iterator[Gate]:
    if isinstance(gate, Comment):
        yield gate
        return
    if not isinstance(gate, BoxCall):
        if controls and isinstance(gate, (Measure, Discard)):
            raise ScopeError(
                "cannot distribute controls over a Measure/Discard gate"
            )
        yield with_extra_controls(gate, controls)
        return
    sub = namespace.get(gate.name)
    if sub is None:
        raise BoxError(f"undefined subroutine {gate.name!r}")
    inner_controls = controls + gate.controls
    if gate.inverted:
        body = [g.inverse() for g in reversed(sub.circuit.gates)]
        entry, exit_ = sub.circuit.outputs, sub.circuit.inputs
    else:
        body = sub.circuit.gates
        entry, exit_ = sub.circuit.inputs, sub.circuit.outputs
    for _ in range(gate.repetitions):
        mapping: dict[int, int] = {}
        for (sid, _), (cid, _) in zip(entry, gate.in_wires):
            mapping[sid] = cid
        for (sid, _), (cid, _) in zip(exit_, gate.out_wires):
            existing = mapping.get(sid)
            if existing is not None and existing != cid:
                raise BoxError(
                    f"inconsistent wire binding for box {gate.name!r}"
                )
            mapping[sid] = cid

        def remap(wid: int) -> int:
            if wid not in mapping:
                mapping[wid] = source.fresh()
            return mapping[wid]

        for body_gate in body:
            yield from _expand(
                map_gate_wires(body_gate, remap),
                inner_controls,
                namespace,
                source,
            )


class StreamExpander:
    """Expand the boxed calls of a gate stream on the fly.

    The shared lazy-inlining half of every flat-gate stream consumer
    (QASM export, simulation feeds): non-box gates pass through, a
    ``BoxCall`` expands recursively through :func:`_expand`, with the
    body's fresh internal wires drawn from one monotone supply based at
    :data:`STREAM_EXPANSION_BASE` so they can never collide with wires
    the generating builder allocates later.  The namespace may keep
    growing after construction (a live generating stream); every call is
    defined before its ``BoxCall`` arrives.
    """

    __slots__ = ("namespace", "_source")

    def __init__(self, namespace: dict):
        self.namespace = namespace
        self._source = _SharedWires(STREAM_EXPANSION_BASE)

    def expand(self, gate: Gate) -> Iterator[Gate]:
        if isinstance(gate, BoxCall):
            yield from _expand(gate, (), self.namespace, self._source)
        else:
            yield gate


def iter_flat_gates(bc: BCircuit) -> Iterator[Gate]:
    """Lazily yield the gates of the fully-inlined circuit.

    A top-level gate other than a ``BoxCall`` is yielded as itself.  The
    fresh-wire supply of the calls' internal wires is built at the first
    call, above every wire the main circuit names.
    """
    source = None
    for gate in bc.circuit.gates:
        if not isinstance(gate, BoxCall):
            yield gate
            continue
        if source is None:
            source = _SharedWires(_max_wire_id(bc.circuit) + 1)
        yield from _expand(gate, (), bc.namespace, source)


class CompiledCircuit:
    """A fully inlined, execution-ready gate stream.

    ``gates`` is the flat, box-free, comment-free gate list of the whole
    hierarchy; simulators replay it directly instead of re-walking the box
    tree.  ``prefix_len`` is the length of the longest deterministic prefix
    -- the gates before the first ``Measure``/``Discard`` -- which is what
    lets shot samplers simulate that prefix once and fork the state per
    shot instead of replaying it.

    Compiling materializes the whole inlined stream, so it is for
    *replayed* execution (shot sampling, repeated runs); single-pass
    consumers of hierarchies too large to materialize should stream
    through :func:`iter_flat_gates` instead.
    """

    __slots__ = ("gates", "prefix_len")

    def __init__(self, gates: list[Gate]):
        self.gates = gates
        self.prefix_len = len(gates)
        for i, gate in enumerate(gates):
            if isinstance(gate, (Measure, Discard)):
                self.prefix_len = i
                break

    def __len__(self) -> int:
        return len(self.gates)


def compile_flat(bc: BCircuit) -> CompiledCircuit:
    """Inline *bc* once into a reusable :class:`CompiledCircuit` (cached).

    The result is kept in the hierarchy's :meth:`~repro.core.circuit.
    BCircuit.memo` (so a mutated hierarchy recompiles), which is what lets
    ``Program.run`` and the simulation backends execute the same circuit
    repeatedly -- per-shot replays, repeated ``.run`` calls -- without
    ever re-walking the box hierarchy.  It is the only compile cache:
    equal circuits held as distinct objects inline once each.  Comments
    are dropped: they are no-ops to every executor.  The statevector
    backend keeps its sampled prefix, with small-gate products, in the
    same memo (:meth:`~repro.backends.statevector.StatevectorBackend.
    prefix`); the stream itself is the raw gates.
    """
    memo = bc.memo()
    cached = memo.get("compiled")
    if cached is not None:
        if _obs.ENABLED:
            _obs.add("cache.compiled_stream.hits")
        return cached
    with _obs.span("compile") as sp:
        gates = [
            gate for gate in iter_flat_gates(bc)
            if not isinstance(gate, Comment)
        ]
        compiled = CompiledCircuit(gates)
        sp.set(gates=len(gates), prefix=compiled.prefix_len)
    if _obs.ENABLED:
        _obs.add("cache.compiled_stream.misses")
    memo["compiled"] = compiled
    return compiled


def inline(bc: BCircuit) -> BCircuit:
    """Fully expand every BoxCall, returning a flat, box-free circuit.

    The inlined circuit's gate count equals
    :func:`~repro.transform.count.aggregate_gate_count` of the original --
    this equality is a key invariant of the library (tested property).
    Only call this when the inlined size is tractable.
    """
    flat = Circuit(
        inputs=bc.circuit.inputs,
        gates=list(iter_flat_gates(bc)),
        outputs=bc.circuit.outputs,
    )
    return BCircuit(flat, {})
