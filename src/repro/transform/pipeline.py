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
the whole chain costs one pass regardless of k.  Three further economies:

* **Identity memoization** -- a subroutine body that no rule touches is
  detected (the output gate stream compares equal to the input) and the
  original :class:`~repro.core.circuit.Subroutine` object is reused
  instead of allocating a fresh namespace entry per pass.
* **Fixpoint rules** -- a rule wrapped with :func:`fixpoint_rule` has its
  own emissions fed back through itself until they stabilize, which lets
  self-expanding decompositions (the binary base synthesizes new Toffolis
  while eliminating old ones) complete in the same single traversal that
  previously required a whole-circuit fixpoint loop.
* **Lowering by shape** -- what the built-in base rules make of a gate
  depends only on its shape, so a chain of them lowers each shape once per
  call into a template with wire and ancilla slots and renames it for every
  later gate of that shape (see :class:`_Chain`).

The pipeline is the engine behind :meth:`repro.program.Program.transform`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..core.builder import Circ
from ..core.circuit import (BCircuit, BodyWidths, Circuit, RewrittenBodies,
                            Subroutine, _in_place)
from ..core.gates import BoxCall, Control, Gate, NamedGate, map_gate_wires
from ..core.stream import StreamConsumer, StreamingCirc
from ..obs import core as _obs
from ..optimize.stream import StreamOptimizer
from .binary import _binary_rule
from .inline import _SharedWires, _max_wire_id
from .toffoli import _toffoli_rule
from .transformer import Rule


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


def _track_passthrough(live: dict[int, str], gate: Gate) -> None:
    """Apply a declined gate's wire effects to *live* without validating.

    Gates that a rule declines to handle arrive from a validated source
    -- the input circuit, or an upstream stage that checked them at
    emission -- so the redundant per-stage re-validation the sequential
    transformer pays on every pass is skipped; only the liveness effects
    (which later rule emissions consult) are applied.  A named gate has
    none: its outputs are its inputs.
    """
    if gate.__class__ is NamedGate:
        return
    outs = gate.wires_out()
    out_ids = {w for w, _ in outs}
    for wire, _ in gate.wires_in():
        if wire not in out_ids:
            live.pop(wire, None)
    for wire, wtype in outs:
        live[wire] = wtype


class _StageCirc(StreamingCirc):
    """The builder a rule sees inside one fused-pipeline stage.

    Behaves exactly like the throwaway builder of the legacy
    ``_rewrite_circuit`` -- same liveness checks, same namespace -- except
    that emitted gates flow to the next stage instead of piling up into an
    intermediate circuit, and fresh wires come from the shared supply.
    As in any streaming builder, a rule sees the gate it emitted last
    (``qc.gates[-1]``, as the Toffoli control reduction reads), and
    ``with_computed`` buffers only its compute block, so a stage holds
    no more than that however many gates flow through it, stored or
    streamed.
    """

    def __init__(self, namespace: dict[str, Subroutine],
                 inputs: tuple[tuple[int, str], ...], shared: _SharedWires):
        super().__init__(None, namespace=namespace)  # _Stage sets the sink
        self._live = dict(inputs)
        self._max_live = len(self._live)
        self._shared = shared

    def _fresh_id(self) -> int:
        return self._shared.fresh()


class _Stage:
    """One rule of the chain, wired to the next stage's intake."""

    __slots__ = ("rule", "qc", "downstream", "fixpoint")

    def __init__(self, rule: Rule, qc: _StageCirc,
                 downstream: Callable[[Gate], None]):
        self.rule = rule
        self.qc = qc
        self.downstream = downstream
        self.fixpoint = bool(getattr(rule, "_fused_fixpoint", False))
        # Route the rule's emissions: a fixpoint rule's output re-enters
        # this stage (already liveness-tracked by _emit_raw), a plain
        # rule's output flows straight to the next stage.
        qc.gates.sink = self._reprocess if self.fixpoint else downstream

    def process(self, gate: Gate) -> None:
        """Feed one upstream gate through this stage."""
        if not self.rule(self.qc, gate):
            _track_passthrough(self.qc._live, gate)
            self.downstream(gate)

    def _reprocess(self, gate: Gate) -> None:
        """Feed one of the rule's own emissions back through the rule."""
        if not self.qc.gates.unrecorded(self.rule, self.qc, gate):
            # Already tracked when the rule emitted it; just pass it on.
            self.downstream(gate)


class _Template:
    """One gate shape's lowering over wire slots, instantiated by renaming.

    Made from the first gate of the shape and what the per-gate stages
    emitted for it.  Slot ``i < k`` is the ``i``-th wire of that gate (its
    targets, then its controls); slot ``k + j`` is the ``j``-th ancilla
    the rules allocated.  An instance renames the slots to a gate's wires
    and to a block of fresh ids, and builds each distinct gate and
    control of the expansion once, however often the expansion repeats
    it.  A gate of the expansion that carries the first gate's parameter
    takes the instance's.  The slots are laid out on the first instance,
    so a shape lowered once costs no more than the per-gate stages.
    """

    __slots__ = ("source", "gates", "first", "ancillas",
                 "controls", "named", "others", "order")

    def __init__(self, source: NamedGate, gates: list[Gate], first: int,
                 ancillas: int):
        self.source = source
        self.gates = gates
        self.first = first
        self.ancillas = ancillas
        self.order: tuple[int, ...] | None = None

    def _lay_out(self) -> None:
        source, gates = self.source, self.gates
        ends = source.wires_in()
        # Every gate valid on the source's own wires and its ancillas,
        # and the live wires unchanged at the end, proven once.
        Circuit(ends, gates, ends)._check({})
        slot = {wire: index for index, (wire, _) in enumerate(ends)}
        slot.update((self.first + j, len(ends) + j)
                    for j in range(self.ancillas))
        # An instance builds the named gates first, then the Init/Term
        # pairs of the ancillas.
        named = dict.fromkeys(g for g in gates if g.__class__ is NamedGate)
        others = dict.fromkeys(g for g in gates if g.__class__ is not NamedGate)
        index = {g: i for i, g in enumerate([*named, *others])}
        controls: dict[tuple, int] = {}
        self.named = tuple(
            (g.name, tuple([slot[w] for w in g.targets]),
             tuple(controls.setdefault((slot[w], positive, wtype),
                                       len(controls))
                   for w, positive, wtype in g.controls),
             g.inverted, g.param,
             g.param is not None and g.param is source.param)
            for g in named
        )
        self.others = tuple((g.__class__, slot[g.wire], g.value)
                            for g in others)
        self.controls = tuple(controls)
        self.order = tuple(index[g] for g in gates)
        self.source = self.gates = None

    def instantiate(self, gate: NamedGate, supply: _SharedWires,
                    sink: Callable[[Gate], None]) -> None:
        """Emit the lowering of *gate*, whose wires are live and distinct."""
        if self.order is None:
            self._lay_out()
        wires = [*gate.targets, *[c.wire for c in gate.controls]]
        first = supply.take(self.ancillas)
        wires.extend(range(first, first + self.ancillas))
        controls = [Control(wires[w], positive, wtype)
                    for w, positive, wtype in self.controls]
        built = [
            NamedGate(name, tuple([wires[w] for w in targets]),
                      tuple([controls[i] for i in picks]), inverted,
                      gate.param if own_param else param)
            for name, targets, picks, inverted, param, own_param in self.named
        ]
        built += [cls(wires[w], value) for cls, w, value in self.others]
        for index in self.order:
            sink(built[index])


#: The built-in base rules.  What they make of a gate depends only on its
#: shape, they copy its parameter through unread, and they decline every
#: gate that is not a :class:`NamedGate`.
_BASE_RULES = (to_toffoli, to_binary)

#: What the shape memo answers for a shape it has not met in this call.
_UNSEEN = object()


class _Chain:
    """One transform call's rule chain, with its shape memo.

    A chain made only of :data:`_BASE_RULES` lowers each gate shape (name,
    inverted, whether it has a parameter, target count, each control's
    sign and wire type) once per call: ``shapes`` maps a shape to ``None``
    when the rules decline it, or to its :class:`_Template`.  The value
    of a parameter is not part of the shape, so the memo grows with the
    distinct shapes a call lowers, not with its distinct angles.  Any
    other chain runs every gate through its per-gate stages.
    """

    def __init__(self, rules: tuple[Rule, ...]):
        self.rules = rules
        self.namespace: dict[str, Subroutine] = {}
        self.widths = BodyWidths(self.namespace)
        self.shapes: dict[tuple, _Template | None] | None = (
            {} if all(rule in _BASE_RULES for rule in rules) else None
        )
        self.expanded = 0
        self.reused = 0

    def stages(self, inputs: tuple[tuple[int, str], ...],
               supply: _SharedWires,
               sink: Callable[[Gate], None]) -> Callable[[Gate], None]:
        """The per-gate stages of the chain, feeding *sink*: the intake."""
        intake = sink
        for rule in reversed(self.rules):
            qc = _StageCirc(self.namespace, inputs, supply)
            qc._widths = self.widths
            intake = _Stage(rule, qc, intake).process
        return intake

    def intake(self, inputs: tuple[tuple[int, str], ...],
               supply: _SharedWires,
               sink: Callable[[Gate], None]) -> Callable[[Gate], None]:
        """Where one gate stream with live *inputs* enters the chain."""
        if self.shapes is None:
            return self.stages(inputs, supply, sink)
        return _ShapeIntake(self, inputs, supply, sink).process

    def run(self, circuit: Circuit) -> list[Gate]:
        """Stream a circuit body through the chain, once."""
        out_gates: list[Gate] = []
        intake = self.intake(circuit.inputs,
                             _SharedWires(_max_wire_id(circuit) + 1),
                             out_gates.append)
        for gate in circuit.gates:
            intake(gate)
        return out_gates

    def rewritten(self, sub: Subroutine) -> Subroutine:
        """*sub* through the chain: itself if no rule touched its body."""
        gates = self.run(sub.circuit)
        if gates == sub.circuit.gates:
            if _obs.ENABLED:
                _obs.add("transform.bodies.reused")
            return sub
        if _obs.ENABLED:
            _obs.add("transform.bodies.rewritten")
        return dataclasses.replace(
            sub, circuit=dataclasses.replace(sub.circuit, gates=gates)
        )

    def report(self) -> None:
        """Count the call's shape memo, once per call."""
        if _obs.ENABLED and self.shapes is not None:
            _obs.add("transform.shapes.expanded", self.expanded)
            _obs.add("transform.shapes.reused", self.reused)


class _ShapeIntake:
    """One gate stream lowered through its chain's shape memo.

    A gate of a declined shape passes with no rule call; a gate of a
    templated shape whose wires pass the in-place check (live, distinct,
    typed right) is instantiated.  A gate of a new shape, or one the
    in-place check refuses, runs through the chain's per-gate stages,
    built over the wires live at that point; a new shape's result is
    memoized.  ``live`` follows the stream: the base rules leave it as
    they find it.
    """

    __slots__ = ("chain", "live", "supply", "sink")

    def __init__(self, chain: _Chain, inputs: tuple[tuple[int, str], ...],
                 supply: _SharedWires, sink: Callable[[Gate], None]):
        self.chain = chain
        self.live = dict(inputs)
        self.supply = supply
        self.sink = sink

    def process(self, gate: Gate) -> None:
        if gate.__class__ is not NamedGate:
            _track_passthrough(self.live, gate)
            self.sink(gate)
            return
        chain = self.chain
        key = (gate.name, gate.inverted, gate.param is None,
               len(gate.targets), *[c[1:] for c in gate.controls])
        lowering = chain.shapes.get(key, _UNSEEN)
        if lowering is None:
            chain.reused += 1
            self.sink(gate)
        elif lowering is not _UNSEEN and _in_place(self.live, gate):
            chain.reused += 1
            lowering.instantiate(gate, self.supply, self.sink)
        else:
            self._per_gate(gate, key if lowering is _UNSEEN else None)

    def _per_gate(self, gate: NamedGate, key: tuple | None) -> None:
        """Lower *gate* through the per-gate stages; memoize a new *key*."""
        supply = self.supply
        first = supply.next_wire
        out: list[Gate] = []
        self.chain.stages(tuple(self.live.items()), supply, out.append)(gate)
        if key is not None:
            if len(out) == 1 and out[0] is gate:
                self.chain.shapes[key] = None
                self.chain.expanded += 1
            elif _in_place(self.live, gate):
                self.chain.shapes[key] = _Template(
                    gate, out, first, supply.next_wire - first
                )
                self.chain.expanded += 1
        for emitted in out:
            self.sink(emitted)


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
    naming them arrives (their callees first, transitively), and at
    :meth:`finish` the bodies no call reached; bodies the whole chain
    leaves untouched are reused, the same identity-reuse discipline as
    the materializing pipeline.
    """

    def __init__(self, rules: tuple[Rule, ...], downstream: StreamConsumer):
        self.rules = tuple(rules)
        self.downstream = downstream

    def begin(self, inputs, namespace) -> None:
        self._chain = _Chain(self.rules)
        self.out_ns = self._chain.namespace
        self._bodies = RewrittenBodies(
            namespace, self._chain.rewritten, self.out_ns
        )
        self.downstream.begin(inputs, self.out_ns)
        self._intake = self._chain.intake(
            inputs, _SharedWires(STREAM_TRANSFORM_BASE), self.downstream.gate
        )

    def gate(self, gate: Gate) -> None:
        if isinstance(gate, BoxCall):
            self._bodies[gate.name]
        self._intake(gate)

    def finish(self, end):
        # Every source body, called or not, in the source's order: what
        # transform_bcircuit_fused gives.
        self._bodies.fill()
        self._chain.report()
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
    :class:`~repro.core.circuit.Subroutine` objects reused.  A chain of
    the built-in base rules lowers each gate shape once per call and
    renames that lowering for every later gate of the shape.
    """
    if not rules:
        return bc
    chain = _Chain(rules)
    RewrittenBodies(bc.namespace, chain.rewritten, chain.namespace).fill()
    gates = chain.run(bc.circuit)
    chain.report()
    return BCircuit(dataclasses.replace(bc.circuit, gates=gates),
                    chain.namespace)


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
