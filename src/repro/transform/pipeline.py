"""Single-pass fused transformer pipelines.

Reproduces the workflow highlighted by the paper's Section 4.4.3 ("circuit
transformations, e.g. replacing one elementary gate set by another") and by
the resource-estimation follow-up work: one program definition, then a
*chain* of gate-set transformations and resource counts over it.  The
legacy entry point :func:`~repro.transform.transformer.transform_bcircuit`
applies one rule per call, so a chain of k rules costs k full rewrites of
the box hierarchy -- k traversals and k intermediate namespaces.

:func:`transform_bcircuit_fused` instead fuses the rules into a **single
traversal**: each gate of each subroutine body flows through the rule
chain once, the rewritten output of rule i feeding rule i+1 directly, so
the whole chain costs one pass regardless of k.  Two further economies:

* **Identity memoization** -- a subroutine body that no rule touches is
  detected (the output gate stream compares equal to the input) and the
  original :class:`~repro.core.circuit.Subroutine` object is reused
  instead of allocating a fresh namespace entry per pass.
* **Fixpoint rules** -- a rule wrapped with :func:`fixpoint_rule` has its
  own emissions fed back through itself until they stabilize, which lets
  self-expanding decompositions (the binary base synthesizes new Toffolis
  while eliminating old ones) complete in the same single traversal that
  previously required a whole-circuit fixpoint loop.

The pipeline is the engine behind :meth:`repro.program.Program.transform`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..core.builder import Circ
from ..core.circuit import (BCircuit, Circuit, Subroutine, SubroutineMemo,
                            body_widths)
from ..core.errors import QuipperError
from ..core.gates import BoxCall, Gate, NamedGate, map_gate_wires
from ..core.stream import StreamConsumer
from ..obs import core as _obs
from ..optimize.stream import StreamOptimizer
from .binary import _binary_rule
from .inline import _max_wire_id
from .toffoli import _toffoli_rule
from .transformer import Rule, _rewrite_bodies


def fixpoint_rule(rule: Rule) -> Rule:
    """Mark *rule* so the fused pipeline re-applies it to its own output.

    The wrapped rule's emissions are fed back through the rule until it
    passes them through unchanged, all within the stage's single traversal.
    The rule must be *strictly reducing* (every replacement sequence is
    closer to its normal form than the gate it replaces), otherwise the
    recursion does not terminate.  Gate effects on wire liveness must be
    preserved by each rewrite (true of any unitary-to-unitary rule).
    """

    def wrapped(qc: Circ, gate: Gate):
        return rule(qc, gate)

    wrapped._fused_fixpoint = True  # type: ignore[attr-defined]
    wrapped.__name__ = getattr(rule, "__name__", "rule")
    wrapped.__doc__ = rule.__doc__
    return wrapped


#: The standard gate-base rules, exposed with pipeline-friendly names:
#: ``program.transform(to_toffoli, to_binary)`` is the fused equivalent of
#: ``decompose_generic(BINARY, bc)``.
to_toffoli: Rule = _toffoli_rule
to_binary: Rule = fixpoint_rule(_binary_rule)


class _SharedWires:
    """A mutable wire-id counter shared by every stage of one pipeline.

    All stages rewriting one circuit body allocate ancillas from the same
    monotone supply, so ids never collide even though the stages interleave.
    """

    __slots__ = ("next_wire",)

    def __init__(self, start: int):
        self.next_wire = start

    def fresh(self) -> int:
        wid = self.next_wire
        self.next_wire += 1
        return wid


class _TeeGates(list):
    """A gate list that forwards every appended gate to a sink.

    Stage builders store their emissions (rules such as the Toffoli
    control-reduction inspect ``qc.gates[-1]``) *and* stream each gate
    onward to the next stage the moment it is emitted.
    """

    __slots__ = ("sink",)

    def __init__(self, sink: Callable[[Gate], None]):
        super().__init__()
        self.sink = sink

    def append(self, gate: Gate) -> None:  # type: ignore[override]
        super().append(gate)
        self.sink(gate)


class _LastGateTee:
    """A non-retaining tee: forwards appended gates, keeps only the last.

    The streaming pipeline's replacement for :class:`_TeeGates` -- rules
    may still inspect the gate they just emitted (``qc.gates[-1]``), but
    nothing accumulates, so a stage's memory stays O(1) however many
    gates flow through it.
    """

    __slots__ = ("sink", "last")

    def __init__(self, sink: Callable[[Gate], None]):
        self.sink = sink
        self.last: Gate | None = None

    def append(self, gate: Gate) -> None:
        self.last = gate
        self.sink(gate)

    def __getitem__(self, index):
        if index == -1 and self.last is not None:
            return self.last
        raise QuipperError(
            "a streaming transform stage retains only its last emitted gate"
        )


class _StageCirc(Circ):
    """The builder a rule sees inside one fused-pipeline stage.

    Behaves exactly like the throwaway builder of the legacy
    ``_rewrite_circuit`` -- same liveness checks, same namespace -- except
    that emitted gates flow to the next stage instead of piling up into an
    intermediate circuit, and fresh wires come from the shared supply.
    """

    def __init__(self, namespace: dict[str, Subroutine],
                 inputs: tuple[tuple[int, str], ...], shared: _SharedWires):
        super().__init__(namespace=namespace)
        self._live = dict(inputs)
        self._max_live = len(self._live)
        self._shared = shared

    def _fresh_id(self) -> int:
        return self._shared.fresh()

    def _track_passthrough(self, gate: Gate) -> None:
        """Apply a pass-through gate's wire effects without re-validating.

        Gates that a rule declines to handle arrive from a validated
        source -- the input circuit, or an upstream stage that checked
        them at emission -- so the redundant per-stage re-validation the
        sequential transformer pays on every pass is skipped; only the
        liveness effects (which later rule emissions consult) are applied.
        A named gate has none: its outputs are its inputs.
        """
        if gate.__class__ is NamedGate:
            return
        outs = gate.wires_out()
        out_ids = {w for w, _ in outs}
        live = self._live
        for wire, _ in gate.wires_in():
            if wire not in out_ids:
                live.pop(wire, None)
        for wire, wtype in outs:
            live[wire] = wtype


class _Stage:
    """One rule of the chain, wired to the next stage's intake."""

    __slots__ = ("rule", "qc", "downstream", "fixpoint")

    def __init__(self, rule: Rule, qc: _StageCirc,
                 downstream: Callable[[Gate], None], retain: bool = True):
        self.rule = rule
        self.qc = qc
        self.downstream = downstream
        self.fixpoint = bool(getattr(rule, "_fused_fixpoint", False))
        # Route the rule's emissions: a fixpoint rule's output re-enters
        # this stage (already liveness-tracked by _emit_raw), a plain
        # rule's output flows straight to the next stage.  Streaming
        # chains (*retain* False) keep only the last emitted gate.
        tee_cls = _TeeGates if retain else _LastGateTee
        qc.gates = tee_cls(
            self._reprocess if self.fixpoint else downstream
        )

    def process(self, gate: Gate) -> None:
        """Feed one upstream gate through this stage."""
        if not self.rule(self.qc, gate):
            self.qc._track_passthrough(gate)
            self.downstream(gate)

    def _reprocess(self, gate: Gate) -> None:
        """Feed one of the rule's own emissions back through the rule."""
        if not self.rule(self.qc, gate):
            # Already tracked when the rule emitted it; just pass it on.
            self.downstream(gate)


def _run_chain(
    circuit: Circuit,
    rules: tuple[Rule, ...],
    namespace: dict[str, Subroutine],
    widths: dict[str, int],
) -> list[Gate]:
    """Stream a circuit body through the fused rule chain, once."""
    out_gates: list[Gate] = []
    shared = _SharedWires(_max_wire_id(circuit) + 1)
    intake: Callable[[Gate], None] = out_gates.append
    for rule in reversed(rules):
        qc = _StageCirc(namespace, circuit.inputs, shared)
        qc._widths = widths
        intake = _Stage(rule, qc, intake).process
    for gate in circuit.gates:
        intake(gate)
    return out_gates


def _rewritten(sub: Subroutine, rules: tuple[Rule, ...],
               namespace: dict[str, Subroutine],
               widths: dict[str, int]) -> Subroutine:
    """*sub* through the rule chain: itself if no rule touched its body."""
    gates = _run_chain(sub.circuit, rules, namespace, widths)
    if gates == sub.circuit.gates:
        if _obs.ENABLED:
            _obs.add("transform.bodies.reused")
        return sub
    if _obs.ENABLED:
        _obs.add("transform.bodies.rewritten")
    return dataclasses.replace(
        sub, circuit=dataclasses.replace(sub.circuit, gates=gates)
    )


#: Base of the wire-id range streaming transform stages draw ancillas
#: from.  A streaming chain cannot know how many wires the generating
#: builder will eventually allocate, so stage ancillas live far above any
#: realistic builder range (and below the lazy inliner's
#: :data:`~repro.transform.inline.STREAM_EXPANSION_BASE`).
STREAM_TRANSFORM_BASE = 1 << 59


class StreamTransformer(StreamConsumer):
    """Push a gate stream through a fused rule chain, gate by gate.

    The streaming counterpart of :func:`transform_bcircuit_fused`: the
    main circuit is never materialized -- each streamed gate enters the
    stage chain and its rewritten output flows straight to *downstream*
    (a counter, a writer, a simulation feed...).  Boxed subroutine bodies
    are rewritten **once, on demand**, the first time a ``BoxCall``
    naming them arrives (their callees first, transitively); bodies the
    whole chain leaves untouched are reused, the same identity-reuse
    discipline as the materializing pipeline.
    """

    def __init__(self, rules: tuple[Rule, ...], downstream: StreamConsumer):
        self.rules = tuple(rules)
        self.downstream = downstream

    def begin(self, inputs, namespace) -> None:
        self.out_ns: dict[str, Subroutine] = {}
        self._widths = body_widths(self.out_ns)
        self._bodies = SubroutineMemo(namespace, self._rewrite)
        self.downstream.begin(inputs, self.out_ns)
        shared = _SharedWires(STREAM_TRANSFORM_BASE)
        intake: Callable[[Gate], None] = self.downstream.gate
        for rule in reversed(self.rules):
            qc = _StageCirc(self.out_ns, inputs, shared)
            qc._widths = self._widths
            intake = _Stage(rule, qc, intake, retain=False).process
        self._intake = intake

    def gate(self, gate: Gate) -> None:
        if isinstance(gate, BoxCall):
            self._bodies[gate.name]
        self._intake(gate)

    def _rewrite(self, sub: Subroutine) -> Subroutine:
        """Rewrite *sub* into ``out_ns``, where its callees already are."""
        new = self.out_ns[sub.name] = _rewritten(
            sub, self.rules, self.out_ns, self._widths
        )
        return new

    def finish(self, end):
        return self.downstream.finish(
            dataclasses.replace(end, namespace=self.out_ns)
        )


def transform_bcircuit_fused(bc: BCircuit, *rules: Rule) -> BCircuit:
    """Apply a chain of transformer rules in one traversal of the hierarchy.

    Equivalent (up to ancilla wire numbering) to folding
    :func:`~repro.transform.transformer.transform_bcircuit` over *rules*,
    but every subroutine body and the main circuit are traversed exactly
    once: each gate is offered to rule 1, whose output feeds rule 2, and so
    on, with liveness tracked per stage.  Subroutine bodies left untouched
    by the whole chain are detected and their original
    :class:`~repro.core.circuit.Subroutine` objects reused.
    """
    if not rules:
        return bc
    namespace: dict[str, Subroutine] = {}
    widths = body_widths(namespace)
    _rewrite_bodies(
        bc.namespace,
        lambda sub: _rewritten(sub, rules, namespace, widths),
        namespace,
    )
    gates = _run_chain(bc.circuit, rules, namespace, widths)
    return BCircuit(dataclasses.replace(bc.circuit, gates=gates), namespace)


def canonicalize_wires(bc: BCircuit) -> BCircuit:
    """Renumber wires in first-use order, for structural comparison.

    Fused and sequential rule application produce identical circuits up to
    the numbering of transformer-allocated ancillas (a fused chain draws
    all stages' ancillas from one shared supply).  Canonicalizing both
    sides makes the equivalence checkable with plain ``==``: input wires
    keep their relative order, every later wire is renamed to the order of
    its first appearance in the gate stream.
    """

    def canon(circuit: Circuit) -> Circuit:
        mapping: dict[int, int] = {}

        def rename(wid: int) -> int:
            if wid not in mapping:
                mapping[wid] = len(mapping)
            return mapping[wid]

        for wid, _ in circuit.inputs:
            rename(wid)
        gates = [map_gate_wires(g, rename) for g in circuit.gates]
        return Circuit(
            inputs=tuple((mapping[w], t) for w, t in circuit.inputs),
            gates=gates,
            outputs=tuple((rename(w), t) for w, t in circuit.outputs),
        )

    return BCircuit(
        canon(bc.circuit),
        {name: dataclasses.replace(sub, circuit=canon(sub.circuit))
         for name, sub in bc.namespace.items()},
    )


__all__ = [
    "StreamOptimizer",
    "StreamTransformer",
    "canonicalize_wires",
    "fixpoint_rule",
    "to_binary",
    "to_toffoli",
    "transform_bcircuit_fused",
]
