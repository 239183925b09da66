"""Text rendering of circuits, in the style of Quipper's ASCII output.

Quipper's text format prints one gate per line, e.g.::

    Inputs: 0:Qubit, 1:Qubit
    QGate["H"](0)
    QGate["not"](1) with controls=[+0]
    QGate["not"](2) with controls=[+0, -1]
    Outputs: 0:Qubit, 1:Qubit

Subroutine definitions are printed after the main circuit, mirroring the
paper's "boxed subcircuits ... with a separate definition on the side".
"""

from __future__ import annotations

from io import StringIO

from ..core.circuit import BCircuit, Circuit
from ..core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    CNot,
    Comment,
    Control,
    CTerm,
    Discard,
    Gate,
    Init,
    Measure,
    NamedGate,
    Term,
)
from ..core.stream import StreamConsumer, replay_bcircuit
from ..core.wires import QUANTUM


def _fmt_controls(controls: tuple[Control, ...]) -> str:
    if not controls:
        return ""
    parts = []
    for ctl in controls:
        sign = "+" if ctl.positive else "-"
        mark = "" if ctl.wire_type == QUANTUM else "c"
        parts.append(f"{sign}{mark}{ctl.wire}")
    return f" with controls=[{', '.join(parts)}]"


def _fmt_endpoint(wires: tuple[tuple[int, str], ...]) -> str:
    if not wires:
        return "none"
    return ", ".join(
        f"{w}:{'Qubit' if t == QUANTUM else 'Bit'}" for w, t in wires
    )


def format_gate(gate: Gate) -> str:
    """Render a single gate as one line of text."""
    if isinstance(gate, NamedGate):
        name = gate.display_name()
        wires = ",".join(str(w) for w in gate.targets)
        return f'QGate["{name}"]({wires}){_fmt_controls(gate.controls)}'
    if isinstance(gate, Init):
        return f"QInit{int(gate.value)}({gate.wire})"
    if isinstance(gate, Term):
        return f"QTerm{int(gate.value)}({gate.wire})"
    if isinstance(gate, Discard):
        return f"QDiscard({gate.wire})"
    if isinstance(gate, CInit):
        return f"CInit{int(gate.value)}({gate.wire})"
    if isinstance(gate, CTerm):
        return f"CTerm{int(gate.value)}({gate.wire})"
    if isinstance(gate, CDiscard):
        return f"CDiscard({gate.wire})"
    if isinstance(gate, Measure):
        return f"QMeas({gate.wire})"
    if isinstance(gate, CGate):
        inputs = ",".join(str(w) for w in gate.inputs)
        star = "*" if gate.uncompute else ""
        return f'CGate{star}["{gate.name}"]({gate.target}; {inputs})'
    if isinstance(gate, CNot):
        return f"CNot({gate.wire}){_fmt_controls(gate.controls)}"
    if isinstance(gate, Comment):
        labels = ", ".join(
            f"{'' if t == QUANTUM else 'c'}{w}:{lab}"
            for w, t, lab in gate.labels
        )
        suffix = f" [{labels}]" if labels else ""
        star = "*" if gate.inverted else ""
        return f'Comment["{gate.text}{star}"]{suffix}'
    if isinstance(gate, BoxCall):
        star = "*" if gate.inverted else ""
        reps = f" x{gate.repetitions}" if gate.repetitions != 1 else ""
        ins = ",".join(str(w) for w, _ in gate.in_wires)
        outs = ",".join(str(w) for w, _ in gate.out_wires)
        return (
            f'Subroutine{star}["{gate.name}"]{reps}({ins}) -> ({outs})'
            f"{_fmt_controls(gate.controls)}"
        )
    raise TypeError(f"unknown gate kind {gate!r}")


def format_circuit(circuit: Circuit) -> str:
    """Render a flat circuit as multi-line text."""
    lines = [f"Inputs: {_fmt_endpoint(circuit.inputs)}"]
    lines.extend(format_gate(g) for g in circuit.gates)
    lines.append(f"Outputs: {_fmt_endpoint(circuit.outputs)}")
    return "\n".join(lines)


def format_bcircuit(bc: BCircuit) -> str:
    """Render a hierarchical circuit: main circuit then subroutines.

    The :class:`AsciiStreamWriter` text of a replay, less its final
    newline.
    """
    writer = AsciiStreamWriter(StringIO())
    return replay_bcircuit(bc, writer).getvalue()[:-1]


class AsciiStreamWriter(StreamConsumer):
    """Write the ASCII rendering of a gate stream incrementally to *fp*.

    One line per gate, written the moment the gate is emitted, so the
    text of circuits too large to hold in memory lands on disk in O(1)
    memory.  The boxed subroutine definitions (small by construction) are
    appended after the main circuit.  With ``interchange`` a ``Shape:``
    line is added per subroutine, so the file round-trips through
    :func:`repro.io.loads`.  :func:`format_bcircuit` and
    :func:`repro.io.dumps` are this writer replayed into a string.
    """

    def __init__(self, fp, interchange: bool = False):
        self.fp = fp
        self.interchange = interchange

    def begin(self, inputs, namespace) -> None:
        self.namespace = namespace
        self.fp.write(f"Inputs: {_fmt_endpoint(inputs)}\n")

    def gate(self, gate: Gate) -> None:
        self.fp.write(format_gate(gate) + "\n")

    def finish(self, end):
        fp = self.fp
        fp.write(f"Outputs: {_fmt_endpoint(end.outputs)}\n")
        for name in sorted(self.namespace):
            sub = self.namespace[name]
            fp.write(f'\nSubroutine: "{name}"\n')
            if self.interchange:
                from ..io.ascii_parser import encode_shape

                fp.write(
                    f"Shape: {encode_shape(sub.in_shape)} -> "
                    f"{encode_shape(sub.out_shape)}\n"
                )
            fp.write(format_circuit(sub.circuit) + "\n")
        return fp


def print_generic(fn, *shape_args, file=None) -> BCircuit:
    """Generate the circuit of *fn* on the given shapes and print it.

    This is the text-format analogue of Quipper's ``print_generic``.
    Returns the generated circuit so callers can inspect it further.

    Deprecation shim: the fluent equivalent is
    ``Program.capture(fn, *shape_args).print(file=file)``.
    """
    from ..program import Program

    return Program.capture(fn, *shape_args).print(file=file)
