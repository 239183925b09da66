"""Decomposition into the binary (two-qubit) gate base.

This is the second stage of ``decompose_generic(Binary)`` (Section 4.4.3):
Toffoli gates are decomposed into binary gates using the V / V* construction
of Nielsen-Chuang Section 4.3, exactly the shape shown in the paper's
``timestep2`` figure:

    CCX(a, b; t)  =  CV(b; t) CX(a; b) CV*(b; t) CX(a; b) CV(a; t)

where V is the square root of NOT.  Negative controls on a Toffoli are
handled by conjugating the corresponding control wire with X gates.

Controlled two-qubit gates are first expanded:

    W(a, b)    = CX(a; b) CH(b; a) CX(a; b)        (controls land on the CH)
    swap(a, b) = CX(b; a) CX(a; b) CX(b; a)        (controls on the middle)

which can synthesize new multi-controlled gates.  The rule therefore runs
as a fixpoint rule (``pipeline.to_binary``), whose emissions re-enter it
within the one traversal of the hierarchy.
"""

from __future__ import annotations

from ..core.builder import Circ
from ..core.errors import QuipperError
from ..core.gates import Control, Gate, NamedGate
from ..core.wires import QUANTUM
from .toffoli import _reduce_controls


def _quantum_controls(gate: NamedGate) -> list[Control]:
    return [c for c in gate.controls if c.wire_type == QUANTUM]


def _is_binary(gate: Gate) -> bool:
    """True if the gate touches at most two quantum wires."""
    if not isinstance(gate, NamedGate):
        return True
    return len(gate.targets) + len(_quantum_controls(gate)) <= 2


def _emit_toffoli_binary(qc: Circ, gate: NamedGate) -> None:
    """Emit the 5-gate binary expansion of a 2-control NOT."""
    (target,) = gate.targets
    c1, c2 = _quantum_controls(gate)
    classical = tuple(c for c in gate.controls if c.wire_type != QUANTUM)
    flips = [c for c in (c1, c2) if not c.positive]
    for ctl in flips:
        qc._emit_raw(NamedGate("not", (ctl.wire,)))
    a, b = c1.wire, c2.wire

    def cv(tgt: int, ctl: int, inverted: bool = False) -> None:
        qc._emit_raw(
            NamedGate(
                "V",
                (tgt,),
                (Control(ctl, True, QUANTUM),) + classical,
                inverted=inverted,
            )
        )

    cv(target, b)
    qc._emit_raw(
        NamedGate("not", (b,), (Control(a, True, QUANTUM),) + classical)
    )
    cv(target, b, inverted=True)
    qc._emit_raw(
        NamedGate("not", (b,), (Control(a, True, QUANTUM),) + classical)
    )
    cv(target, a)
    for ctl in reversed(flips):
        qc._emit_raw(NamedGate("not", (ctl.wire,)))


def _binary_rule(qc: Circ, gate: Gate) -> bool:
    if _is_binary(gate):
        return False
    assert isinstance(gate, NamedGate)
    quantum_controls = _quantum_controls(gate)
    classical = tuple(c for c in gate.controls if c.wire_type != QUANTUM)
    if gate.name in ("not", "X") and len(quantum_controls) == 2:
        _emit_toffoli_binary(qc, gate)
        return True
    if gate.name == "swap":
        a, b = gate.targets
        qc._emit_raw(NamedGate("not", (a,), (Control(b, True, QUANTUM),)))
        qc._emit_raw(
            NamedGate(
                "not", (b,), (Control(a, True, QUANTUM),) + tuple(gate.controls)
            )
        )
        qc._emit_raw(NamedGate("not", (a,), (Control(b, True, QUANTUM),)))
        return True
    if gate.name == "W":
        a, b = gate.targets
        qc._emit_raw(NamedGate("not", (b,), (Control(a, True, QUANTUM),)))
        qc._emit_raw(
            NamedGate(
                "H", (a,), (Control(b, True, QUANTUM),) + tuple(gate.controls)
            )
        )
        qc._emit_raw(NamedGate("not", (b,), (Control(a, True, QUANTUM),)))
        return True
    if len(gate.targets) == 1 and len(quantum_controls) >= 2:
        # Multi-controlled single-qubit gate (e.g. the CH synthesized by a
        # controlled W): reduce controls with an ancilla chain.  The chain
        # emits 2-control NOTs, which re-enter the fixpoint rule.
        reduced, cleanup = _reduce_controls(qc, gate.controls, 1)
        qc._emit_raw(
            NamedGate(
                gate.name,
                gate.targets,
                reduced,
                inverted=gate.inverted,
                param=gate.param,
            )
        )
        cleanup()
        return True
    raise QuipperError(
        f"no binary decomposition implemented for gate {gate!r}"
    )
