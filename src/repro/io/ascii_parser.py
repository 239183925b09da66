"""Parser for the Quipper-ASCII circuit format.

Round-trips the text produced by :mod:`repro.output.ascii`: every gate
line, hierarchical ``Subroutine:`` definition blocks, and the optional
``Shape:`` lines that :func:`repro.io.dumps` adds so boxed subroutine
interfaces survive the trip.  Hierarchical circuits are reloaded *without
inlining* -- a parsed file with boxed subroutines has exactly the same
namespace structure as the circuit that was printed.

Wire types are reconstructed without tracking liveness: every gate line
determines its wire types syntactically (classical wires are marked with a
``c`` prefix in controls and comment labels), except box-call bindings,
whose types are resolved against the callee's printed interface in a
second pass.

Known lossiness of the *text* format (not of :func:`repro.io.dumps` +
:func:`repro.io.loads` on builder-produced circuits):

* a ``Comment`` whose text ends in ``*`` parses as an inverted comment;
* a ``Comment`` wire label containing ``", <digits>:"`` is ambiguous
  with the label-list separator and mis-splits;
* custom register shapes (``QDInt`` etc.) are serialized as their flat
  wire tuple, so a reloaded namespace carries equivalent but
  class-erased shape descriptors for those subroutines.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass

from ..core.circuit import BCircuit, Circuit, Subroutine
from ..core.errors import QuipperError
from ..core.gates import (
    GATE_INFO,
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
from ..core.qdata import _PARAM_TYPES
from ..core.wires import CLASSICAL, QUANTUM, Bit, Qubit


class AsciiParseError(QuipperError):
    """The text is not a well-formed Quipper-ASCII circuit."""


#: A numeric parameter: a float literal, or an exact pi-multiple such as
#: ``pi``, ``-pi/2`` or ``3pi/4`` (see ``format_pi_multiple`` in
#: :mod:`repro.core.gates`).
_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?\d*pi(?:/\d+)?"

_PI_FORM = re.compile(r"^(?P<num>[-+]?\d*)pi(?:/(?P<den>\d+))?$")

#: display_name() templates for parametrised names containing ``%``.
_PARAM_TEMPLATES = (
    (re.compile(rf"^exp\(-i({_NUM})ZZ\)$"), "exp(-i%ZZ)"),
    (re.compile(rf"^exp\(-i({_NUM})Z\)$"), "exp(-i%Z)"),
    (re.compile(rf"^R\(2pi/({_NUM})\)$"), "R(2pi/%)"),
)
_SUFFIX_PARAM = re.compile(rf"^([A-Za-z_]\w*)\(({_NUM})\)$")

_QGATE = re.compile(
    r'^QGate\["(?P<name>.*)"\]\((?P<targets>[^)]*)\)'
    r"(?: with controls=\[(?P<ctl>.*)\])?$"
)
_SIMPLE = re.compile(
    r"^(?P<kind>QInit|QTerm|CInit|CTerm)(?P<value>[01])\((?P<wire>\d+)\)$"
)
_ONEWIRE = re.compile(
    r"^(?P<kind>QDiscard|CDiscard|QMeas)\((?P<wire>\d+)\)$"
)
_CGATE = re.compile(
    r'^CGate(?P<star>\*)?\["(?P<name>\w+)"\]'
    r"\((?P<target>\d+); ?(?P<inputs>[^)]*)\)$"
)
_CNOT = re.compile(
    r"^CNot\((?P<wire>\d+)\)(?: with controls=\[(?P<ctl>.*)\])?$"
)
_COMMENT = re.compile(
    r'^Comment\["(?P<text>.*)"\](?: \[(?P<labels>.*)\])?$'
)
_BOX = re.compile(
    r'^Subroutine(?P<star>\*)?\["(?P<name>.*)"\](?: x(?P<reps>\d+))?'
    r"\((?P<ins>[^)]*)\)(?: -> \((?P<outs>[^)]*)\))?"
    r"(?: with controls=\[(?P<ctl>.*)\])?$"
)
_SECTION = re.compile(r'^Subroutine: "(?P<name>.*)"$')
_SHAPE = re.compile(r"^Shape: (?P<body>.*)$")


@dataclass
class _PendingBox:
    """A parsed box call whose wire types await the callee's interface."""

    name: str
    ins: list[int]
    outs: list[int] | None
    controls: tuple[Control, ...]
    inverted: bool
    repetitions: int


def _parse_number(text: str) -> float | int:
    pi_form = _PI_FORM.match(text)
    if pi_form:
        head = pi_form.group("num")
        num = int(head) if head not in ("", "+", "-") else (1 - 2 * (head == "-"))
        den = int(pi_form.group("den") or 1)
        # Same expression format_pi_multiple verified, so bit-exact.
        return num * math.pi / den
    try:
        return int(text)
    except ValueError:
        return float(text)


def _parse_gate_name(display: str) -> tuple[str, float | None, bool]:
    """Invert ``NamedGate.display_name()``: (name, param, inverted)."""
    inverted = display.endswith("*")
    if inverted:
        display = display[:-1]
    for pattern, name in _PARAM_TEMPLATES:
        match = pattern.match(display)
        if match:
            return name, _parse_number(match.group(1)), inverted
    match = _SUFFIX_PARAM.match(display)
    if match and match.group(1) in GATE_INFO:
        return match.group(1), _parse_number(match.group(2)), inverted
    return display, None, inverted


def _parse_controls(text: str | None) -> tuple[Control, ...]:
    if not text:
        return ()
    controls = []
    for part in text.split(","):
        part = part.strip()
        match = re.fullmatch(r"(?P<sign>[+-])(?P<c>c?)(?P<wire>\d+)", part)
        if match is None:
            raise AsciiParseError(f"bad control {part!r}")
        controls.append(
            Control(
                wire=int(match.group("wire")),
                positive=match.group("sign") == "+",
                wire_type=CLASSICAL if match.group("c") else QUANTUM,
            )
        )
    return tuple(controls)


def _wire(text: str, context: str) -> int:
    """*text* as a wire id; *context* names the offending text."""
    try:
        return int(text)
    except ValueError:
        raise AsciiParseError(f"bad wire {text!r} in {context!r}") from None


def _parse_wire_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [_wire(part, text) for part in text.split(",")]


def _parse_endpoint(text: str) -> tuple[tuple[int, str], ...]:
    text = text.strip()
    if text == "none":
        return ()
    wires = []
    for part in text.split(","):
        wire, _, kind = part.strip().partition(":")
        if kind not in ("Qubit", "Bit"):
            raise AsciiParseError(f"bad endpoint entry {part!r}")
        wires.append((_wire(wire, part),
                      QUANTUM if kind == "Qubit" else CLASSICAL))
    return tuple(wires)


def _parse_gate_line(line: str) -> Gate | _PendingBox:
    match = _QGATE.match(line)
    if match:
        name, param, inverted = _parse_gate_name(match.group("name"))
        return NamedGate(
            name=name,
            targets=tuple(_parse_wire_list(match.group("targets"))),
            controls=_parse_controls(match.group("ctl")),
            inverted=inverted,
            param=param,
        )
    match = _SIMPLE.match(line)
    if match:
        kind = {"QInit": Init, "QTerm": Term, "CInit": CInit,
                "CTerm": CTerm}[match.group("kind")]
        return kind(int(match.group("wire")), match.group("value") == "1")
    match = _ONEWIRE.match(line)
    if match:
        kind = {"QDiscard": Discard, "CDiscard": CDiscard,
                "QMeas": Measure}[match.group("kind")]
        return kind(int(match.group("wire")))
    match = _CGATE.match(line)
    if match:
        return CGate(
            name=match.group("name"),
            target=int(match.group("target")),
            inputs=tuple(_parse_wire_list(match.group("inputs"))),
            uncompute=match.group("star") is not None,
        )
    match = _CNOT.match(line)
    if match:
        return CNot(
            wire=int(match.group("wire")),
            controls=_parse_controls(match.group("ctl")),
        )
    match = _COMMENT.match(line)
    if match:
        text = match.group("text")
        inverted = text.endswith("*")
        if inverted:
            text = text[:-1]
        labels = []
        if match.group("labels"):
            # Split only before a wire anchor so label text containing
            # ", " survives (residual ambiguity: a label that itself
            # contains ", <digits>:" -- see the module docstring).
            for part in re.split(r", (?=c?\d+:)", match.group("labels")):
                entry = re.fullmatch(
                    r"(?P<c>c?)(?P<wire>\d+):(?P<label>.*)", part
                )
                if entry is None:
                    raise AsciiParseError(f"bad comment label {part!r}")
                labels.append(
                    (
                        int(entry.group("wire")),
                        CLASSICAL if entry.group("c") else QUANTUM,
                        entry.group("label"),
                    )
                )
        return Comment(text=text, labels=tuple(labels), inverted=inverted)
    match = _BOX.match(line)
    if match:
        outs = match.group("outs")
        return _PendingBox(
            name=match.group("name"),
            ins=_parse_wire_list(match.group("ins")),
            outs=None if outs is None else _parse_wire_list(outs),
            controls=_parse_controls(match.group("ctl")),
            inverted=match.group("star") is not None,
            repetitions=int(match.group("reps") or 1),
        )
    raise AsciiParseError(f"unrecognized gate line {line!r}")


# ---------------------------------------------------------------------------
# Shape descriptors (the ``Shape:`` line emitted by repro.io.dumps)
# ---------------------------------------------------------------------------


def encode_shape(shape: object) -> str:
    """Serialize a shape descriptor (see :func:`decode_shape`)."""
    if shape is None:
        return "?"
    if isinstance(shape, Qubit):
        return f"q{shape.wire_id}"
    if isinstance(shape, Bit):
        return f"c{shape.wire_id}"
    if isinstance(shape, _PARAM_TYPES):
        return f"<{shape!r}>"
    if isinstance(shape, tuple):
        return "(" + ",".join(encode_shape(s) for s in shape) + ")"
    if isinstance(shape, list):
        return "[" + ",".join(encode_shape(s) for s in shape) + "]"
    if isinstance(shape, dict):
        return "{" + ",".join(
            f"{key!r}:{encode_shape(shape[key])}" for key in sorted(shape)
        ) + "}"
    if hasattr(shape, "qdata_leaves"):
        # Custom register types are class-erased to their wire tuple.
        return "!" + encode_shape(tuple(shape.qdata_leaves()))
    raise AsciiParseError(f"cannot encode shape component {shape!r}")


#: The most brackets and ``!`` markers a ``Shape:`` component may sit
#: inside.  The shapes :func:`repro.io.dumps` writes nest a few levels
#: deep (registers inside an argument tuple).  This reader,
#: :func:`encode_shape` and the walks of :mod:`repro.core.qdata` recurse
#: once or twice per level, so the bound keeps all of them far inside
#: Python's default limit of 1,000 frames, and a line nested deeper is
#: refused as malformed instead of overflowing the stack.
MAX_SHAPE_DEPTH = 100


class _ShapeReader:
    """Recursive-descent reader for :func:`encode_shape` strings, at most
    :data:`MAX_SHAPE_DEPTH` levels deep."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise AsciiParseError(
                f"bad shape syntax at {self.pos} in {self.text!r}: "
                f"expected {char!r}"
            )
        self.pos += 1

    def read(self, depth: int = 0):
        if depth > MAX_SHAPE_DEPTH:
            raise AsciiParseError(
                f"shape nested deeper than {MAX_SHAPE_DEPTH} levels at "
                f"character {self.pos}"
            )
        char = self.peek()
        if char == "?":
            self.pos += 1
            return None
        if char in "qc":
            self.pos += 1
            start = self.pos
            while self.peek().isdigit():
                self.pos += 1
            wire = _wire(self.text[start:self.pos], self.text)
            return Qubit(wire) if char == "q" else Bit(wire)
        if char == "<":
            return self._read_param()
        if char == "!":
            self.pos += 1
            return self.read(depth + 1)
        if char == "(":
            return tuple(self._read_group("(", ")", depth + 1))
        if char == "[":
            return list(self._read_group("[", "]", depth + 1))
        if char == "{":
            return self._read_dict(depth + 1)
        raise AsciiParseError(
            f"bad shape syntax at {self.pos} in {self.text!r}"
        )

    def _read_group(self, open_: str, close: str, depth: int) -> list:
        self.expect(open_)
        items = []
        while self.peek() != close:
            items.append(self.read(depth))
            if self.peek() == ",":
                self.pos += 1
        self.expect(close)
        return items

    def _read_dict(self, depth: int) -> dict:
        self.expect("{")
        result = {}
        while self.peek() != "}":
            key = ast.literal_eval(self._scan_until(":"))
            self.expect(":")
            result[key] = self.read(depth)
            if self.peek() == ",":
                self.pos += 1
        self.expect("}")
        return result

    def _read_param(self):
        self.expect("<")
        literal = self._scan_until(">")
        self.expect(">")
        try:
            return ast.literal_eval(literal)
        except (ValueError, SyntaxError) as exc:
            raise AsciiParseError(f"bad shape parameter {literal!r}") from exc

    def _scan_until(self, stop: str) -> str:
        """Consume up to (not including) *stop*, skipping quoted strings."""
        start = self.pos
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char == stop:
                return self.text[start:self.pos]
            if char in "'\"":
                quote = char
                self.pos += 1
                while self.pos < len(self.text):
                    if self.text[self.pos] == "\\":
                        self.pos += 2
                        continue
                    if self.text[self.pos] == quote:
                        break
                    self.pos += 1
            self.pos += 1
        raise AsciiParseError(
            f"unterminated shape component in {self.text!r}"
        )


def decode_shape(text: str) -> object:
    reader = _ShapeReader(text)
    shape = reader.read()
    if reader.pos != len(text):
        raise AsciiParseError(f"trailing shape text {text[reader.pos:]!r}")
    return shape


def _split_shape_line(body: str) -> tuple[object, object]:
    reader = _ShapeReader(body)
    in_shape = reader.read()
    if body[reader.pos:reader.pos + 4] != " -> ":
        raise AsciiParseError(f"bad Shape line {body!r}")
    reader.pos += 4
    out_shape = reader.read()
    if reader.pos != len(body):
        raise AsciiParseError(f"trailing shape text {body[reader.pos:]!r}")
    return in_shape, out_shape


# ---------------------------------------------------------------------------
# Section assembly
# ---------------------------------------------------------------------------


@dataclass
class _Section:
    name: str | None  # None for the main circuit
    in_shape: object = None
    out_shape: object = None
    inputs: tuple = ()
    outputs: tuple = ()
    gates: list = None  # Gate | _PendingBox entries


def _split_sections(text: str) -> list[_Section]:
    sections: list[_Section] = []
    current = _Section(name=None, gates=[])
    saw_inputs = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        header = _SECTION.match(line)
        if header:
            sections.append(current)
            current = _Section(name=header.group("name"), gates=[])
            saw_inputs = False
            continue
        shape = _SHAPE.match(line)
        if shape:
            current.in_shape, current.out_shape = _split_shape_line(
                shape.group("body")
            )
            continue
        if line.startswith("Inputs: "):
            current.inputs = _parse_endpoint(line[len("Inputs: "):])
            saw_inputs = True
            continue
        if line.startswith("Outputs: "):
            current.outputs = _parse_endpoint(line[len("Outputs: "):])
            continue
        if not saw_inputs:
            raise AsciiParseError(f"gate line before Inputs: {line!r}")
        current.gates.append(_parse_gate_line(line))
    sections.append(current)
    if sections[0].name is not None:
        raise AsciiParseError("text does not start with a main circuit")
    return sections


def _resolve_box(pending: _PendingBox,
                 namespace: dict[str, Subroutine]) -> BoxCall:
    sub = namespace.get(pending.name)
    if sub is None:
        raise AsciiParseError(f"undefined subroutine {pending.name!r}")
    if pending.inverted:
        entry, exit_ = sub.circuit.outputs, sub.circuit.inputs
    else:
        entry, exit_ = sub.circuit.inputs, sub.circuit.outputs
    if len(pending.ins) != len(entry):
        raise AsciiParseError(
            f"box {pending.name!r} expects {len(entry)} wires, "
            f"got {len(pending.ins)}"
        )
    in_wires = tuple(
        (wire, wtype) for wire, (_, wtype) in zip(pending.ins, entry)
    )
    if pending.outs is None:
        # Legacy line without "-> (...)": derivable only when the callee's
        # output wires are a permutation of its input wires (endo calls).
        mapping = {sid: wire for (sid, _), wire in zip(entry, pending.ins)}
        try:
            out_wires = tuple((mapping[sid], t) for sid, t in exit_)
        except KeyError:
            raise AsciiParseError(
                f"box call {pending.name!r} lacks output wires and the "
                "callee is not endomorphic; re-export with repro.io.dumps"
            ) from None
    else:
        if len(pending.outs) != len(exit_):
            raise AsciiParseError(
                f"box {pending.name!r} returns {len(exit_)} wires, "
                f"got {len(pending.outs)}"
            )
        out_wires = tuple(
            (wire, wtype) for wire, (_, wtype) in zip(pending.outs, exit_)
        )
    return BoxCall(
        name=pending.name,
        in_wires=in_wires,
        out_wires=out_wires,
        controls=pending.controls,
        inverted=pending.inverted,
        repetitions=pending.repetitions,
    )


def parse_bcircuit(text: str, check: bool = True) -> BCircuit:
    """Parse Quipper-ASCII text back into a hierarchical circuit.

    With ``check`` (the default) the reconstructed circuit is validated
    with :meth:`~repro.core.circuit.BCircuit.check`, so malformed input is
    rejected rather than producing an inconsistent hierarchy.
    """
    sections = _split_sections(text)
    main = sections[0]
    namespace: dict[str, Subroutine] = {}
    for section in sections[1:]:
        if section.name in namespace:
            raise AsciiParseError(f"duplicate subroutine {section.name!r}")
        namespace[section.name] = Subroutine(
            name=section.name,
            circuit=Circuit(
                inputs=section.inputs,
                gates=section.gates,
                outputs=section.outputs,
            ),
            in_shape=section.in_shape,
            out_shape=section.out_shape,
        )
    # Second pass: resolve box-call wire types against callee interfaces.
    for gates in [main.gates] + [sub.circuit.gates for sub in namespace.values()]:
        gates[:] = [
            _resolve_box(g, namespace) if isinstance(g, _PendingBox) else g
            for g in gates
        ]
    bc = BCircuit(
        Circuit(inputs=main.inputs, gates=main.gates, outputs=main.outputs),
        namespace,
    )
    if check:
        bc.check()
    return bc
