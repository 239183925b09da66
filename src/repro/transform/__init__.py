"""Whole-circuit operators: reversal, transformation, decomposition, counting.

These implement the paper's Section 4.4.3 operators (``reverse_simple``,
``decompose_generic``) and the gate-counting machinery behind Section 5.4's
trillion-gate counts.
"""

from .depth import circuit_depth, t_depth
from .count import (
    GateCountKey,
    aggregate_gate_count,
    count_circuit_flat,
    total_gates,
    total_logical_gates,
)
from .summary import StreamingSummary, Summary, summarize
from .inline import CompiledCircuit, compile_flat, inline
from .reverse import reverse_bcircuit, reverse_circuit
from .transformer import transform_bcircuit
from .pipeline import (
    StreamTransformer,
    canonicalize_wires,
    fixpoint_rule,
    to_binary,
    to_toffoli,
    transform_bcircuit_fused,
)

TOFFOLI = "toffoli"
BINARY = "binary"

#: Each gate base's rule chain: :func:`decompose_generic` and
#: ``Program.transform(base)`` both lower through it.
GATE_BASES = {TOFFOLI: (to_toffoli,), BINARY: (to_toffoli, to_binary)}


def decompose_generic(base: str, bc):
    """Decompose a circuit hierarchy into the given gate base.

    ``base`` is :data:`TOFFOLI` (gates with at most two controls on NOT,
    one control elsewhere) or :data:`BINARY` (at most two wires per gate,
    using the V / V* construction of Nielsen-Chuang Section 4.3, as in the
    paper's ``timestep2`` example).
    """
    rules = GATE_BASES.get(base) if isinstance(base, str) else None
    if rules is None:
        raise ValueError(f"unknown gate base {base!r}")
    return transform_bcircuit_fused(bc, *rules)


def decompose_toffoli(bc):
    """Reduce every gate to the Toffoli base throughout the hierarchy."""
    return decompose_generic(TOFFOLI, bc)


def decompose_binary(bc):
    """Reduce a Toffoli-base circuit to two-qubit gates.

    Run :func:`decompose_toffoli` first, or use
    ``decompose_generic(BINARY, ...)``, which chains both rules.
    """
    return transform_bcircuit_fused(bc, to_binary)


__all__ = [
    "GateCountKey",
    "StreamingSummary",
    "StreamTransformer",
    "Summary",
    "summarize",
    "aggregate_gate_count",
    "count_circuit_flat",
    "total_gates",
    "total_logical_gates",
    "circuit_depth",
    "t_depth",
    "inline",
    "compile_flat",
    "CompiledCircuit",
    "reverse_bcircuit",
    "reverse_circuit",
    "decompose_generic",
    "decompose_toffoli",
    "decompose_binary",
    "transform_bcircuit",
    "transform_bcircuit_fused",
    "canonicalize_wires",
    "fixpoint_rule",
    "to_toffoli",
    "to_binary",
    "TOFFOLI",
    "BINARY",
    "GATE_BASES",
]
