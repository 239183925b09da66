"""OpenQASM 2.0 export of the extended circuit model.

Bridges Quipper circuits to the rest of the quantum toolchain: the
flattened circuit is emitted against ``qelib1.inc`` with one qubit per
wire ever used.  The extended-model gates map as follows:

* ``Init(False)`` is free (fresh QASM qubits start in |0>); ``Init(True)``
  emits an ``x``.
* ``Term``/``Discard`` have no QASM counterpart; the assertion is recorded
  as a comment (QASM cannot check it) and the qubit is simply left alone.
* ``Measure`` emits ``measure`` into a dedicated one-bit ``creg`` per
  classical wire, which is what lets classically-controlled gates become
  QASM ``if (c_n == v)`` statements (QASM 2 conditions whole registers,
  so one register per bit is the only faithful encoding).
* Parametrised rotations map to ``rx/ry/rz/u1``; ``exp(-i t Z)`` is
  ``rz(2t)`` and ``exp(-i t ZZ)`` is the standard ``cx / rz / cx``
  conjugation.
* Gates with no qelib1 equivalent (``W``, ``E``, ``omega``, ``V``, ...)
  are declared ``opaque`` once and referenced by sanitized name.

Negative controls are conjugated with ``x`` on the control wire.  Gates
QASM 2 genuinely cannot express (multiple classical controls, classical
logic ``CGate``/``CNot``) raise :class:`QasmExportError` -- decompose or
restructure the circuit first.

The comment lines the exporter writes are a stable dialect, not just
prose: the importer (:mod:`repro.io.qasm_parser`) reads ``// assert``,
``// discard``, ``// cinit``, ``// cterm``, ``// cdiscard``, and
``// global phase`` markers back into the extended-model gates they
stand for, which is what makes export -> import -> export byte-stable
(see ``docs/interchange.md`` for the dialect table).
"""

from __future__ import annotations

import math
import re
from io import StringIO
from typing import Callable

from ..core.circuit import BCircuit
from ..core.errors import QuipperError
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
    Init,
    Measure,
    NamedGate,
    Term,
)
from ..core.stream import StreamConsumer, replay_bcircuit
from ..core.wires import QUANTUM
from ..transform.inline import StreamExpander


class QasmExportError(QuipperError):
    """The circuit uses a construct OpenQASM 2 cannot express."""


#: Zero-control gate translations: repro name -> qelib1 name.
_PLAIN = {
    "X": "x", "not": "x", "Y": "y", "Z": "z", "H": "h", "swap": "swap",
}
_PLAIN_DAGGERED = {"S": ("s", "sdg"), "T": ("t", "tdg")}
_ROTATIONS = {"Rx": "rx", "Ry": "ry", "Rz": "rz"}
#: Single-positive-control translations.
_CONTROLLED = {"X": "cx", "not": "cx", "Z": "cz", "Y": "cy", "H": "ch"}


class _QasmWriter:
    """Register bookkeeping plus a line sink for the statement body."""

    def __init__(self, emit: Callable[[str], None]) -> None:
        self.emit = emit
        self.qubit_index: dict[int, int] = {}
        self.cregs: dict[int, str] = {}
        self.opaques: dict[str, str] = {}

    def qubit(self, wire: int) -> str:
        if wire not in self.qubit_index:
            self.qubit_index[wire] = len(self.qubit_index)
        return f"q[{self.qubit_index[wire]}]"

    def creg(self, wire: int) -> str:
        if wire not in self.cregs:
            # Sequential naming (c0, c1, ... in allocation order) keeps
            # export -> import -> export byte-stable: the importer
            # re-allocates registers in the same first-use order.
            self.cregs[wire] = f"c{len(self.cregs)}"
        return self.cregs[wire]

    def opaque(self, name: str, arity: int) -> str:
        if name not in self.opaques:
            ident = re.sub(r"\W+", "_", name).strip("_") or "gate"
            ident = f"op_{ident}"
            # Distinct display names can sanitize to one ident ('V' and
            # 'V*' both give op_V); suffix until unique so the importer
            # can tell them apart.
            taken = set(self.opaques.values())
            while ident in taken:
                ident += "_"
            args = ", ".join(f"a{i}" for i in range(arity))
            self.emit(f"// no qelib1 equivalent for {name!r}:")
            self.emit(f"opaque {ident} {args};")
            self.opaques[name] = ident
        return self.opaques[name]


def _fmt_angle(value: float) -> str:
    return repr(float(value))


def _split_controls(
    controls: tuple[Control, ...]
) -> tuple[list[Control], list[Control]]:
    quantum = [c for c in controls if c.wire_type == QUANTUM]
    classical = [c for c in controls if c.wire_type != QUANTUM]
    return quantum, classical


def _classical_guard(writer: _QasmWriter,
                     classical: list[Control]) -> str:
    if not classical:
        return ""
    if len(classical) > 1:
        raise QasmExportError(
            "OpenQASM 2 cannot condition one statement on several "
            "classical bits; restructure the circuit"
        )
    ctl = classical[0]
    return f"if ({writer.creg(ctl.wire)} == {int(ctl.positive)}) "


def _negate_controls(writer: _QasmWriter, quantum: list[Control],
                     guard: str) -> list[str]:
    flips = [
        f"{guard}x {writer.qubit(c.wire)};"
        for c in quantum
        if not c.positive
    ]
    return flips


def _emit_named(writer: _QasmWriter, gate: NamedGate) -> None:
    quantum, classical = _split_controls(gate.controls)
    guard = _classical_guard(writer, classical)
    flips = _negate_controls(writer, quantum, guard)
    for line in flips:
        writer.emit(line)
    try:
        _emit_named_core(writer, gate, quantum, guard)
    finally:
        for line in flips:
            writer.emit(line)


def _emit_named_core(writer: _QasmWriter, gate: NamedGate,
                     quantum: list[Control], guard: str) -> None:
    name = gate.name
    targets = [writer.qubit(t) for t in gate.targets]
    ctls = [writer.qubit(c.wire) for c in quantum]
    param = gate.param
    if (
        gate.inverted
        and param is not None
        and (name in _ROTATIONS or name in ("exp(-i%Z)", "exp(-i%ZZ)"))
    ):
        # The dagger of a rotation negates its angle.  The builder's
        # inverse() already folds this into param, but gates constructed
        # directly (or reloaded from text) can carry inverted=True.
        param = -param
    if not quantum:
        if name in _PLAIN:
            writer.emit(f"{guard}{_PLAIN[name]} {', '.join(targets)};")
            return
        if name in _PLAIN_DAGGERED:
            plain, dagger = _PLAIN_DAGGERED[name]
            writer.emit(
                f"{guard}{dagger if gate.inverted else plain} {targets[0]};"
            )
            return
        if name in _ROTATIONS:
            writer.emit(
                f"{guard}{_ROTATIONS[name]}({_fmt_angle(param)}) "
                f"{targets[0]};"
            )
            return
        if name == "exp(-i%Z)":
            writer.emit(
                f"{guard}rz({_fmt_angle(2.0 * param)}) {targets[0]};"
            )
            return
        if name == "exp(-i%ZZ)":
            a, b = targets
            writer.emit(f"{guard}cx {a}, {b};")
            writer.emit(f"{guard}rz({_fmt_angle(2.0 * param)}) {b};")
            writer.emit(f"{guard}cx {a}, {b};")
            return
        if name in ("R(2pi/%)", "rGate"):
            angle = 2.0 * math.pi / (2.0 ** float(gate.param))
            if gate.inverted:
                angle = -angle
            writer.emit(f"{guard}u1({_fmt_angle(angle)}) {targets[0]};")
            return
        if name in ("omega", "phase"):
            writer.emit(f"// global phase {gate.display_name()} omitted")
            return
        ident = writer.opaque(gate.display_name(), len(targets))
        writer.emit(f"{guard}{ident} {', '.join(targets)};")
        return
    if name in ("omega", "phase"):
        # A controlled global phase is a diagonal phase on the control
        # wires themselves: u1 for one control, cu1 for two.
        angle = math.pi / 4.0 if name == "omega" else param
        if gate.inverted:
            angle = -angle
        if len(quantum) == 1:
            writer.emit(f"{guard}u1({_fmt_angle(angle)}) {ctls[0]};")
            return
        if len(quantum) == 2:
            writer.emit(
                f"{guard}cu1({_fmt_angle(angle)}) {ctls[0]}, {ctls[1]};"
            )
            return
    if len(quantum) == 1:
        if name in _CONTROLLED:
            writer.emit(
                f"{guard}{_CONTROLLED[name]} {ctls[0]}, {targets[0]};"
            )
            return
        if name == "swap":
            a, b = targets
            writer.emit(f"{guard}cx {b}, {a};")
            writer.emit(f"{guard}ccx {ctls[0]}, {a}, {b};")
            writer.emit(f"{guard}cx {b}, {a};")
            return
        if name == "Rz":
            writer.emit(
                f"{guard}crz({_fmt_angle(param)}) {ctls[0]}, "
                f"{targets[0]};"
            )
            return
        if name in ("R(2pi/%)", "rGate"):
            angle = 2.0 * math.pi / (2.0 ** float(gate.param))
            if gate.inverted:
                angle = -angle
            writer.emit(
                f"{guard}cu1({_fmt_angle(angle)}) {ctls[0]}, {targets[0]};"
            )
            return
        if name == "V":
            # Controlled sqrt(X): conjugate a cu1(+-pi/2) by Hadamards
            # on the target (H . diag(1, +-i) . H = V / V-dagger).
            angle = -math.pi / 2.0 if gate.inverted else math.pi / 2.0
            writer.emit(f"{guard}h {targets[0]};")
            writer.emit(
                f"{guard}cu1({_fmt_angle(angle)}) {ctls[0]}, {targets[0]};"
            )
            writer.emit(f"{guard}h {targets[0]};")
            return
        if name == "exp(-i%Z)":
            # exp(-i t Z) == Rz(2t) exactly, so the controlled form is
            # crz(2t).
            writer.emit(
                f"{guard}crz({_fmt_angle(2.0 * param)}) {ctls[0]}, "
                f"{targets[0]};"
            )
            return
        if name == "Ry":
            # cu3(theta, 0, 0) is exactly controlled-Ry(theta).
            writer.emit(
                f"{guard}cu3({_fmt_angle(param)}, 0.0, 0.0) {ctls[0]}, "
                f"{targets[0]};"
            )
            return
        if name == "Rx":
            # Rx(theta) == Rz(-pi/2) Ry(theta) Rz(pi/2) exactly, which
            # is cu3(theta, -pi/2, pi/2).
            writer.emit(
                f"{guard}cu3({_fmt_angle(param)}, "
                f"{_fmt_angle(-math.pi / 2.0)}, "
                f"{_fmt_angle(math.pi / 2.0)}) {ctls[0]}, {targets[0]};"
            )
            return
    if len(quantum) == 2 and name in ("X", "not"):
        writer.emit(f"{guard}ccx {ctls[0]}, {ctls[1]}, {targets[0]};")
        return
    raise QasmExportError(
        f"no OpenQASM 2 encoding for {gate.display_name()!r} with "
        f"{len(quantum)} quantum controls; decompose_generic(TOFFOLI/"
        "BINARY, ...) first"
    )


def bcircuit_to_qasm(bc: BCircuit) -> str:
    """Export a hierarchical circuit as an OpenQASM 2.0 program.

    Boxed subroutines are inlined (QASM 2 ``gate`` bodies cannot contain
    measurement or ancilla management, so inlining is the only faithful
    encoding of the extended model).  This is a
    :class:`QasmStreamWriter` replay into a string.
    """
    return replay_bcircuit(bc, QasmStreamWriter(StringIO())).getvalue()


class QasmStreamWriter(StreamConsumer):
    """Incremental OpenQASM 2.0 export of a gate stream.

    The QASM header must declare the quantum register and every classical
    register, which are only known once the last gate has flowed past --
    so the body is spooled to an anonymous temporary file (O(1) memory,
    O(circuit) disk) while declarations accumulate, and :meth:`finish`
    writes ``header + declarations`` to the destination and copies the
    body after them.  Boxed subroutine calls are expanded on the fly
    through the lazy inliner, with fresh internal wires drawn from a
    dedicated id range (:data:`STREAM_EXPANSION_BASE`) so they can never
    collide with wires the generating builder allocates later.
    """

    def __init__(self, fp):
        self.fp = fp

    def begin(self, inputs, namespace) -> None:
        import tempfile

        for wire, wtype in inputs:
            if wtype != QUANTUM:
                raise QasmExportError(
                    "OpenQASM 2 cannot accept classical input wires; "
                    f"bind wire {wire} to a value first"
                )
        self._expander = StreamExpander(namespace)
        self._body = tempfile.TemporaryFile(
            "w+", encoding="utf-8", prefix="repro-qasm-"
        )
        write = self._body.write
        self.writer = _QasmWriter(lambda line: write(line + "\n"))
        for wire, _ in inputs:
            self.writer.qubit(wire)

    def gate(self, gate) -> None:
        try:
            for flat in self._expander.expand(gate):
                _emit_gate(self.writer, flat)
        except BaseException:
            self._body.close()  # a refused export leaves no spool file open
            raise

    def finish(self, end):
        import shutil

        try:
            header = ["OPENQASM 2.0;", 'include "qelib1.inc";']
            decls = [f"qreg q[{max(len(self.writer.qubit_index), 1)}];"]
            decls.extend(
                f"creg {name}[1];" for name in self.writer.cregs.values()
            )
            self.fp.write("\n".join(header + decls) + "\n")
            self._body.seek(0)
            shutil.copyfileobj(self._body, self.fp)
        finally:
            self._body.close()
        return self.fp


def _emit_gate(writer: _QasmWriter, gate) -> None:
    if isinstance(gate, Comment):
        text = gate.text.replace("\n", " ")
        writer.emit(f"// {text}")
        return
    if isinstance(gate, NamedGate):
        _emit_named(writer, gate)
        return
    if isinstance(gate, Init):
        target = writer.qubit(gate.wire)
        if gate.value:
            writer.emit(f"x {target};")
        return
    if isinstance(gate, Term):
        writer.emit(
            f"// assert {writer.qubit(gate.wire)} == |{int(gate.value)}> "
            "(quipper termination)"
        )
        return
    if isinstance(gate, Discard):
        writer.emit(f"// discard {writer.qubit(gate.wire)}")
        return
    if isinstance(gate, Measure):
        qubit = writer.qubit(gate.wire)
        writer.emit(f"measure {qubit} -> {writer.creg(gate.wire)}[0];")
        return
    if isinstance(gate, CInit):
        if gate.value:
            # QASM 2 can only write a creg through measurement: prepare a
            # scratch qubit in |1> and measure it into the register.
            scratch = writer.qubit(-gate.wire - 1)  # ids are never negative
            writer.emit(f"x {scratch};")
            writer.emit(f"measure {scratch} -> {writer.creg(gate.wire)}[0];")
        else:
            # cregs start at 0, so the init itself is free -- but the
            # marker pins the allocation position so the importer can
            # rebuild the CInit (and the declaration order stays stable).
            writer.emit(f"// cinit {writer.creg(gate.wire)} = 0")
        return
    if isinstance(gate, CTerm):
        writer.emit(
            f"// cterm {writer.creg(gate.wire)} == {int(gate.value)} "
            "(quipper classical termination)"
        )
        return
    if isinstance(gate, CDiscard):
        writer.emit(f"// cdiscard {writer.creg(gate.wire)}")
        return
    if isinstance(gate, (CGate, CNot)):
        raise QasmExportError(
            f"OpenQASM 2 has no classical logic gates ({gate!r}); "
            "keep the computation quantum or post-process the counts"
        )
    if isinstance(gate, BoxCall):
        raise QasmExportError("BoxCall survived inlining (internal error)")
    raise QasmExportError(f"cannot export gate {gate!r}")
