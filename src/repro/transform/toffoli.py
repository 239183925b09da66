"""Decomposition into the Toffoli gate base.

"The decomposition is achieved by first decomposing multiply-controlled
gates into Toffoli gates, and then decomposing the Toffoli gates into binary
gates" (paper, Section 4.4.3).  This module is the first stage: after it,
NOT gates carry at most two controls and every other gate at most one.
Negative controls are preserved (the paper's gate counts report
``"Not", controls 1+1`` for mixed-sign Toffolis).

Control reduction uses the standard ancilla chain: the conjunction of the
controls is accumulated into ancillas with Toffoli gates, the target gate is
applied under the final ancilla, and the chain is uncomputed.
"""

from __future__ import annotations

from ..core.builder import Circ
from ..core.gates import Control, Gate, NamedGate
from ..core.wires import QUANTUM


def _reduce_controls(qc: Circ, controls: tuple[Control, ...], keep: int):
    """Emit an ancilla chain reducing *controls* to at most *keep* controls.

    Returns ``(reduced_controls, cleanup)`` where ``cleanup()`` uncomputes
    the chain.  Quantum Toffoli chains require quantum controls; classical
    controls are passed through untouched (they are free at execution time).
    """
    quantum = [c for c in controls if c.wire_type == QUANTUM]
    classical = [c for c in controls if c.wire_type != QUANTUM]
    if len(quantum) <= keep:
        return tuple(quantum) + tuple(classical), lambda: None

    chain_gates: list[Gate] = []

    def emit(gate: Gate) -> None:
        qc._emit_raw(gate)
        chain_gates.append(gate)

    # Chain just enough controls so that (ancilla + untouched controls)
    # is exactly `keep` controls: a_1 = c_1 & c_2 ; a_i = a_{i-1} & c_{i+1}.
    to_chain = quantum[: len(quantum) - keep + 1]
    rest = quantum[len(quantum) - keep + 1:]
    current = to_chain[0]
    for ctl in to_chain[1:]:
        anc = qc.qinit_qubit(False)
        chain_gates.append(qc.gates[-1])  # the Init gate just emitted
        emit(NamedGate("not", (anc.wire_id,), (current, ctl)))
        current = Control(anc.wire_id, True, QUANTUM)

    def cleanup() -> None:
        for gate in reversed(chain_gates):
            qc._emit_raw(gate.inverse())

    return (current,) + tuple(rest) + tuple(classical), cleanup


def _toffoli_rule(qc: Circ, gate: Gate) -> bool:
    if not isinstance(gate, NamedGate):
        return False
    is_not = gate.name in ("not", "X")
    keep = 2 if is_not else 1
    quantum_controls = [c for c in gate.controls if c.wire_type == QUANTUM]
    if len(quantum_controls) <= keep:
        return False
    reduced, cleanup = _reduce_controls(qc, gate.controls, keep)
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
