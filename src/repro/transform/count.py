"""Hierarchical gate counting (the paper's ``-f gatecount``, Section 5.4).

The headline scalability result of the paper is that Quipper can represent
and count circuits of *trillions* of gates -- 30,189,977,982,990 gates for
the full Triangle Finding algorithm -- in minutes on a laptop.  The trick is
that boxed subcircuits are counted once and their counts multiplied by the
number (and repetition factor) of their invocations, never inlining
anything.  Python integers are arbitrary precision, so the counts are exact
at any scale.

Count keys are ``(name, positive_controls, negative_controls)`` triples; the
paper renders the key ``("Not", 1, 1)`` as ``"Not", controls 1+1``
(Section 5.3.1).
"""

from __future__ import annotations

from collections import Counter

from ..core.circuit import BCircuit, Circuit
from ..core.errors import QuipperError
from ..core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    CNot,
    Comment,
    CTerm,
    Discard,
    Gate,
    Init,
    Measure,
    NamedGate,
    Term,
)

#: A gate-count key: (display name, #positive controls, #negative controls).
GateCountKey = tuple[str, int, int]

#: Gate names counted identically to their own inverses.
_NAME_ALIASES = {"X": "Not", "not": "Not"}


def classify(gate: Gate) -> GateCountKey | None:
    """The count key of a gate, or None for non-gates (comments)."""
    if isinstance(gate, Comment):
        return None
    if isinstance(gate, NamedGate):
        name = _NAME_ALIASES.get(gate.name, gate.name)
        if gate.inverted:
            name += "*"
        pos = sum(1 for c in gate.controls if c.positive)
        neg = len(gate.controls) - pos
        return (name, pos, neg)
    if isinstance(gate, Init):
        return (f"Init{int(gate.value)}", 0, 0)
    if isinstance(gate, Term):
        return (f"Term{int(gate.value)}", 0, 0)
    if isinstance(gate, Discard):
        return ("Discard", 0, 0)
    if isinstance(gate, CInit):
        return (f"CInit{int(gate.value)}", 0, 0)
    if isinstance(gate, CTerm):
        return (f"CTerm{int(gate.value)}", 0, 0)
    if isinstance(gate, CDiscard):
        return ("CDiscard", 0, 0)
    if isinstance(gate, Measure):
        return ("Meas", 0, 0)
    if isinstance(gate, CGate):
        name = f"CGate:{gate.name}"
        if gate.uncompute:
            name += "*"
        return (name, 0, 0)
    if isinstance(gate, CNot):
        pos = sum(1 for c in gate.controls if c.positive)
        neg = len(gate.controls) - pos
        return ("CNot", pos, neg)
    if isinstance(gate, BoxCall):
        raise QuipperError("classify() does not apply to BoxCall gates")
    raise TypeError(f"unknown gate kind {gate!r}")


def _invert_key(key: GateCountKey) -> GateCountKey:
    """The count key of the inverse of a gate with the given key."""
    name, pos, neg = key
    swaps = {
        "Init0": "Term0", "Term0": "Init0",
        "Init1": "Term1", "Term1": "Init1",
        "CInit0": "CTerm0", "CTerm0": "CInit0",
        "CInit1": "CTerm1", "CTerm1": "CInit1",
    }
    if name in swaps:
        return (swaps[name], pos, neg)
    if name in ("Meas", "Discard", "CDiscard"):
        # These cannot occur inside a reversed box; keep the key stable.
        return key
    if name.endswith("*"):
        return (name[:-1], pos, neg)
    from ..core.gates import GATE_INFO

    info = GATE_INFO.get(name) or GATE_INFO.get(name.lower())
    if name == "Not" or (info is not None and info["self_inverse"]):
        return key
    if info is not None and info.get("rot"):
        return key  # parameter negation does not change the count key
    # Everything else -- named gates and CGate:<fn> keys alike -- inverts
    # by gaining the dagger suffix (the suffixed form was handled above).
    return (name + "*", pos, neg)


_NON_LOGICAL_PREFIXES = (
    "Init", "Term", "CInit", "CTerm", "Meas", "Discard", "CDiscard",
)

#: Count-key prefixes of the gates a call's controls pass over (the ones
#: :func:`~repro.core.gates.with_extra_controls` leaves unchanged).
_UNCONTROLLED_PREFIXES = _NON_LOGICAL_PREFIXES + ("CGate:",)


def aggregate_gate_count(bc: BCircuit) -> Counter:
    """Count every gate of the fully-inlined circuit, without inlining it.

    Subroutine counts are computed once and multiplied through call sites
    (including their ``repetitions`` factors), so this is fast even for
    circuits whose inlined size is astronomically large.  A copy of the
    hierarchy's summary (:func:`~repro.transform.summary.summarize`).
    """
    from .summary import summarize

    return Counter(summarize(bc).counts)


def count_circuit_flat(circuit: Circuit) -> Counter:
    """Count the gates of a single flat circuit (no box expansion)."""
    counts: Counter = Counter()
    for gate in circuit.gates:
        key = classify(gate)
        if key is not None:
            counts[key] += 1
    return counts


def total_gates(counts: Counter) -> int:
    """Total gates including initializations/terminations/measurements."""
    return sum(counts.values())


def total_logical_gates(counts: Counter) -> int:
    """Total gates excluding Init/Term/Meas, as in the paper's Section 6
    table ("Total refers to the total number of logical gates excluding
    initialization, termination, and measurement")."""
    return sum(
        v
        for (name, _, _), v in counts.items()
        if not name.startswith(_NON_LOGICAL_PREFIXES)
    )


def subroutine_gate_counts(bc: BCircuit) -> dict[str, Counter]:
    """Aggregated (fully-inlined) counts for each subroutine by name,
    copied from the hierarchy's summary."""
    from .summary import body_summaries

    return {name: Counter(summary.counts)
            for name, summary in body_summaries(bc).items()}
