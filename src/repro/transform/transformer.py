"""The generic circuit transformer framework (``transform_generic``).

A *transformer* is a rule that receives each gate of a circuit together
with a builder positioned at that gate, and either emits replacement gates
or passes the gate through.  Transformers are applied recursively through
the box hierarchy: every subroutine body is transformed once, and box calls
are preserved, so transforming a trillion-gate circuit costs only the size
of its *representation* (Section 4.4: "circuit transformations, e.g.
replacing one elementary gate set by another").
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

from ..core.builder import Circ
from ..core.circuit import (BCircuit, BodyWidths, Circuit, RewrittenBodies,
                            Subroutine)
from ..core.gates import Gate
from .inline import _max_wire_id

#: A transformer rule: ``rule(qc, gate) -> handled``.  It may emit any
#: number of gates into ``qc``; returning False (or None) passes the
#: original gate through unchanged.
Rule = Callable[[Circ, Gate], Optional[bool]]


def _rewrite_circuit(
    circuit: Circuit, rule: Rule, namespace: dict[str, Subroutine],
    widths: dict[str, int],
) -> Circuit:
    qc = Circ(namespace=namespace)
    qc._widths = widths
    qc._live = dict(circuit.inputs)
    qc._next_wire = _max_wire_id(circuit) + 1
    qc._max_live = len(qc._live)
    for gate in circuit.gates:
        handled = rule(qc, gate)
        if not handled:
            qc._emit_raw(gate)
    return Circuit(
        inputs=circuit.inputs, gates=qc.gates, outputs=circuit.outputs
    )


def _legacy_transform_bcircuit(bc: BCircuit, rule: Rule) -> BCircuit:
    """The pre-pipeline transformer: one full hierarchy rewrite per rule.

    Kept as the reference semantics for the fused pipeline's equivalence
    tests and as the sequential baseline of the fused-vs-sequential
    benchmark.  Rewrites *every* subroutine body and allocates a fresh
    namespace even when the rule touches nothing.
    """
    namespace: dict[str, Subroutine] = {}
    widths = BodyWidths(namespace)

    def rewrite(sub: Subroutine) -> Subroutine:
        circuit = _rewrite_circuit(sub.circuit, rule, namespace, widths)
        return dataclasses.replace(sub, circuit=circuit)

    RewrittenBodies(bc.namespace, rewrite, namespace).fill()
    main = _rewrite_circuit(bc.circuit, rule, namespace, widths)
    return BCircuit(main, namespace)


def transform_bcircuit(bc: BCircuit, rule: Rule) -> BCircuit:
    """Apply a transformer rule to a whole circuit hierarchy.

    Every subroutine body and the main circuit are rewritten gate by gate.
    The rule may allocate ancillas and emit multiple gates per input gate;
    wire ids of the original circuit are preserved, and new wires are
    allocated above the existing range.

    A subroutine body that the rule leaves untouched is detected (the
    rewritten gate stream compares equal to the original) and the original
    :class:`~repro.core.circuit.Subroutine` is reused instead of
    allocating a fresh namespace entry.

    This is the single-rule case of the fused pipeline
    (:func:`repro.transform.pipeline.transform_bcircuit_fused`); to apply
    several rules, fuse them into one traversal rather than calling this
    k times.
    """
    from .pipeline import transform_bcircuit_fused

    return transform_bcircuit_fused(bc, rule)
