"""OpenQASM 2.0 importer feeding the :class:`~repro.program.Program` pipeline.

Inverts :func:`repro.io.qasm.bcircuit_to_qasm` and accepts general
OpenQASM 2 programs against ``qelib1.inc``:

* every ``qreg`` qubit becomes a circuit *input* wire (QASM qubits are
  implicitly |0>-initialized, which is exactly how the equivalence
  backend pads missing inputs);
* the qelib1 gate set maps back onto the repro vocabulary through a
  fixed table (``x`` -> ``X``, ``sdg`` -> ``S`` inverted, ``rz`` ->
  ``Rz``, ``u1`` -> ``R(2pi/%)`` when the angle is bit-exactly
  ``+-2pi/2^p``, ``ccx`` -> doubly-controlled ``X``, ...), with
  ``u2``/``u3``/``U`` decomposed into ``Rz``/``Ry`` and an explicit
  global-phase gate so the operator is reproduced exactly, not just up
  to phase;
* ``measure`` becomes the extended-model :class:`~repro.core.gates.Measure`
  (the wire id is preserved and its type flips to classical), and
  ``if (c == v) ...`` becomes a classical :class:`~repro.core.gates.Control`;
* parameterless ``gate`` definitions become
  :class:`~repro.core.circuit.Subroutine` entries, and every call to one,
  at top level or inside another definition, is a
  :class:`~repro.core.gates.BoxCall`; parametrized definitions are
  inlined at each call site with the angle expressions evaluated;
* the comment dialect written by the exporter (``// assert``,
  ``// discard``, ``// cinit``, ``// cterm``, ``// cdiscard``,
  ``// global phase``, and the ``opaque`` preamble) is read back into
  the extended-model gates it stands for, which makes
  export -> import -> export byte-stable; unrecognized ``//`` lines
  become :class:`~repro.core.gates.Comment` gates.

Angle expressions support the OpenQASM 2 grammar (``pi``, ``+ - * / ^``,
``sin``/``cos``/``tan``/``exp``/``ln``/``sqrt``); plain float literals
round-trip bit-exactly, and an angle without a finite real value is
rejected.  Constructs outside the dialect (``reset``, conditioned
measurement, conditions on multi-bit registers) raise
:class:`QasmParseError`.  See ``docs/interchange.md`` for the coverage
table.
"""

from __future__ import annotations

import math
import operator
import re
import reprlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..core.circuit import BCircuit, Circuit, Subroutine
from ..core.errors import QuipperError
from ..core.gates import (
    BoxCall,
    CDiscard,
    CInit,
    Comment,
    Control,
    CTerm,
    Discard,
    Init,
    Measure,
    NamedGate,
    Term,
)
from ..core.wires import CLASSICAL, QUANTUM, Qubit
from .ascii_parser import _parse_number


class QasmParseError(QuipperError):
    """The text is not an OpenQASM 2 program this dialect can read."""


# ---------------------------------------------------------------------------
# Angle expressions
# ---------------------------------------------------------------------------

#: Negation (``"u-"``) and the function-call markers (name plus ``"("``).
_UNARY = {
    "u-": operator.neg, "sin(": math.sin, "cos(": math.cos,
    "tan(": math.tan, "exp(": math.exp, "ln(": math.log, "sqrt(": math.sqrt,
}
#: ``math.pow`` raises where ``**`` would return a complex number.
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "^": math.pow,
}

#: Binding strength.  ``^`` is right-associative and binds tighter than
#: a sign on its left, as Python's ``**`` does (``-2^2 == -4``,
#: ``2^-1 == 0.5``), so angles keep the floats Python arithmetic gives.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "u-": 3, "^": 4}

#: Longer angle expressions are rejected, not evaluated.
_MAX_ANGLE_TOKENS = 1000

_ANGLE_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)(?P<junk>[\w.]*)"
    r"|(?P<name>[^\W\d]\w*)(?P<call>\s*\()?|(?P<op>[-+*/^()])|(?P<other>.))",
    re.DOTALL,
)


def _compile_angle(expr: str) -> list:
    """Compile an angle expression to postfix code for :func:`_run_angle`.

    Code items are float constants, parameter names and the operators
    of :data:`_BINARY` and :data:`_UNARY`.  One shunting-yard pass: no
    recursion, whatever the nesting.
    """
    text = expr.strip()
    if not text:
        raise QasmParseError("empty angle expression")
    code: list = []
    ops: list[str] = []
    operand = True  # an operand or a prefix sign comes next
    for count, token in enumerate(_ANGLE_TOKEN.finditer(text)):
        if count == _MAX_ANGLE_TOKENS:
            raise QasmParseError(
                f"angle expression longer than {_MAX_ANGLE_TOKENS} tokens"
            )
        num, junk, name, call, op, other = token.groups()
        if other:
            raise QasmParseError(
                f"unsupported construct in angle expression {expr!r}"
            )
        if op is None or op == "(":
            if not operand:
                break
            if junk:
                raise QasmParseError(f"bad literal in {expr!r}")
            if call and name + "(" not in _UNARY:
                raise QasmParseError(f"bad function call in {expr!r}")
            if op or call:
                ops.append(name + "(" if call else "(")
            else:
                code.append(float(num) if num else
                            math.pi if name == "pi" else name)
                operand = False
        elif op == ")":
            if operand:
                break
            while ops and ops[-1][-1] != "(":
                code.append(ops.pop())
            if not ops:
                break
            if ops[-1] != "(":
                code.append(ops[-1])
            ops.pop()
        elif operand:
            if op not in "+-":
                break
            if op == "-":
                ops.append("u-")
        else:
            rank = _PRECEDENCE[op] + (op == "^")  # right-associative
            while ops and ops[-1][-1] != "(" and _PRECEDENCE[ops[-1]] >= rank:
                code.append(ops.pop())
            ops.append(op)
            operand = True
    else:
        if not operand and all(op[-1] != "(" for op in ops):
            return code + ops[::-1]
    raise QasmParseError(f"bad angle expression {expr!r}")


def _run_angle(code: list, expr: str, env: dict[str, float]) -> float:
    """Evaluate compiled angle *code*; *env* binds gate parameters."""
    stack: list[float] = []
    try:
        for item in code:
            if item.__class__ is float:
                stack.append(item)
            elif item in _BINARY:
                right = stack.pop()
                stack[-1] = _BINARY[item](stack[-1], right)
            elif item in _UNARY:
                stack[-1] = _UNARY[item](stack[-1])
            elif item in env:
                stack.append(env[item])
            else:
                raise QasmParseError(f"unknown name {item!r} in {expr!r}")
    except (ArithmeticError, ValueError) as exc:
        raise QasmParseError(f"cannot evaluate angle {expr!r}: {exc}") from None
    if not math.isfinite(stack[0]):
        raise QasmParseError(f"angle expression {expr!r} is not finite")
    return stack[0]


#: ``2pi/2^p -> p``: the ``u1``/``cu1`` angles that read as ``R(2pi/%)``.
_PI_POWERS = {2.0 * math.pi / (2.0 ** power): float(power)
              for power in range(64)}


class _Builtin(NamedTuple):
    """A qelib1 gate: arity and ``emit(params, wires, guard tuple, sink)``."""

    n_params: int
    n_wires: int
    emit: Callable[[list, list, tuple, list], None]


def _named(name: str, n_controls: int = 0, inverted: bool = False):
    """Emit one NamedGate: the first *n_controls* wires control it."""
    def emit(params, wires, extra, sink):
        sink.append(NamedGate(
            name, tuple(wires[n_controls:]),
            tuple(map(Control, wires[:n_controls])) + extra, inverted,
            params[0] if params else None,
        ))
    return emit


def _u1(params, wires, extra, sink) -> None:
    angle = params[0]
    power = _PI_POWERS.get(abs(angle))
    if power is not None:
        sink.append(NamedGate("R(2pi/%)", (wires[-1],),
                              tuple(map(Control, wires[:-1])) + extra,
                              angle < 0, power))
    else:
        # diag(1, e^{i a}) on a wire is exactly a global phase
        # controlled on that wire (the exporter's encoding of
        # controlled phase gates, so this round-trips).
        sink.append(NamedGate("phase", (), tuple(map(Control, wires)) + extra,
                              param=angle))


def _u3(params, wires, extra, sink) -> None:
    # U(theta, phi, lam) == phase((phi+lam)/2) Rz(phi) Ry(theta) Rz(lam),
    # exactly (not just up to phase), and u2 is U(pi/2, ...).  The two
    # angle patterns the exporter emits fold back into single rotations.
    theta, phi, lam = params if len(params) == 3 else (math.pi / 2.0, *params)
    target, controls = (wires[-1],), tuple(map(Control, wires[:-1])) + extra
    if phi == 0.0 and lam == 0.0:
        sink.append(NamedGate("Ry", target, controls, param=theta))
    elif phi == -math.pi / 2.0 and lam == math.pi / 2.0:
        # Rz(-pi/2) Ry(theta) Rz(pi/2) == Rx(theta).
        sink.append(NamedGate("Rx", target, controls, param=theta))
    else:
        if lam != 0.0:
            sink.append(NamedGate("Rz", target, controls, param=lam))
        sink.append(NamedGate("Ry", target, controls, param=theta))
        if phi != 0.0:
            sink.append(NamedGate("Rz", target, controls, param=phi))
        if (phi + lam) / 2.0 != 0.0:
            sink.append(NamedGate("phase", (), controls,
                                  param=(phi + lam) / 2.0))


_BUILTINS = {
    "x": _Builtin(0, 1, _named("X")), "y": _Builtin(0, 1, _named("Y")),
    "z": _Builtin(0, 1, _named("Z")), "h": _Builtin(0, 1, _named("H")),
    "s": _Builtin(0, 1, _named("S")), "t": _Builtin(0, 1, _named("T")),
    "sdg": _Builtin(0, 1, _named("S", inverted=True)),
    "tdg": _Builtin(0, 1, _named("T", inverted=True)),
    "id": _Builtin(0, 1, lambda params, wires, extra, sink: None),
    "rx": _Builtin(1, 1, _named("Rx")), "ry": _Builtin(1, 1, _named("Ry")),
    "rz": _Builtin(1, 1, _named("Rz")),
    "u1": _Builtin(1, 1, _u1), "u2": _Builtin(2, 1, _u3),
    "u3": _Builtin(3, 1, _u3), "U": _Builtin(3, 1, _u3),
    "u": _Builtin(3, 1, _u3),
    "cx": _Builtin(0, 2, _named("X", 1)), "CX": _Builtin(0, 2, _named("X", 1)),
    "cy": _Builtin(0, 2, _named("Y", 1)), "cz": _Builtin(0, 2, _named("Z", 1)),
    "ch": _Builtin(0, 2, _named("H", 1)),
    "ccx": _Builtin(0, 3, _named("X", 2)),
    "crz": _Builtin(1, 2, _named("Rz", 1)),
    "cu1": _Builtin(1, 2, _u1), "cu3": _Builtin(3, 2, _u3),
    "swap": _Builtin(0, 2, _named("swap")),
    "cswap": _Builtin(0, 3, _named("swap", 1)),
}


# ---------------------------------------------------------------------------
# Statement splitting
# ---------------------------------------------------------------------------

_NAME = re.compile(r"([A-Za-z_]\w*)\s*")


def _split_call(stmt: str) -> tuple[str, list[str], list[str]]:
    """Split ``name(p1, p2) a, b`` into (name, param exprs, arg tokens)."""
    match = _NAME.match(stmt)
    if not match:
        raise QasmParseError(f"bad statement {stmt!r}")
    rest = stmt[match.end():]
    params: list[str] = []
    if rest.startswith("("):
        close = rest.rfind(")")
        inner = rest[1:close]
        if close < 0 or inner.count("(") != inner.count(")"):
            raise QasmParseError(f"unbalanced parentheses in {stmt!r}")
        params = [p.strip() for p in inner.split(",")] if inner.strip() else []
        rest = rest[close + 1:].strip()
    args = [a.strip() for a in rest.split(",")] if rest else []
    if any(not a for a in args):
        raise QasmParseError(f"bad argument list in {stmt!r}")
    return match.group(1), params, args


@dataclass
class _GateDef:
    """A parsed custom ``gate`` definition."""

    params: tuple[str, ...]
    args: tuple[str, ...]
    #: (name, callee bound at definition, param exprs, args) per statement.
    body: list[tuple] = field(default_factory=list)


@dataclass
class _Creg:
    """A classical register: declared size and per-bit wire bindings."""

    size: int
    bits: dict[int, int] = field(default_factory=dict)


_WORD = re.compile(r"[A-Za-z_]\w*")
_GATE_WORD = re.compile(r"\s*gate(?:\s|$)")
_HEADER = re.compile(r"^OPENQASM\s+(\S+)$")
_ARG = re.compile(r"^(\w+)(?:\[(\d+)\])?$")

#: Entries a per-import memo holds before it starts over, so input that
#: seldom repeats itself costs bounded memory.
_MEMO_ENTRIES = 4096


def _remember(memo: dict, key: str, value) -> None:
    if len(memo) >= _MEMO_ENTRIES:
        memo.clear()
    memo[key] = value


def _check_arity(define: _GateDef, name: str, params, wires) -> None:
    if len(params) != len(define.params) or len(wires) != len(define.args):
        raise QasmParseError(
            f"gate {name!r} expects {len(define.params)} "
            f"params / {len(define.args)} qubits"
        )


class _Importer:
    """Single-pass OpenQASM 2 reader building the extended circuit model."""

    def __init__(self) -> None:
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
        self.cregs: dict[str, _Creg] = {}
        self.gates: list = []
        self.live: dict[int, str] = {}  # live wire -> its type
        self.gate_defs: dict[str, _GateDef] = {}
        self.opaques: dict[str, tuple[str, bool]] = {}
        self.namespace: dict[str, Subroutine] = {}
        self.pending_opaque: str | None = None
        self.saw_header = False
        self._next_fresh = 0
        # Per-import memos: operand token -> wire, angle text -> compiled
        # code, unguarded statement -> (what, wires, gates).
        self.wires: dict[str, int] = {}
        self.codes: dict[str, list] = {}
        self.applied: dict[str, tuple[str, list[int], tuple]] = {}

    # -- wires and angles ---------------------------------------------

    def _fresh_wire(self) -> int:
        wire = self._next_fresh
        self._next_fresh += 1
        return wire

    def _qubit_wire(self, token: str) -> int:
        wire = self.wires.get(token)
        if wire is not None:
            return wire
        match = _ARG.match(token)
        if not match or match.group(2) is None:
            raise QasmParseError(f"expected an indexed qubit, got {token!r}")
        name, index = match.group(1), int(match.group(2))
        if name not in self.qregs:
            raise QasmParseError(f"undeclared quantum register {name!r}")
        offset, size = self.qregs[name]
        if index >= size:
            raise QasmParseError(f"{token}: index out of range (size {size})")
        self.wires[token] = offset + index
        return offset + index

    def _touch(self, wires, what: str) -> None:
        """Require *wires* to be live qubits, resurrecting dead ones.

        The exporter emits ``Init(False)`` silently, and the builder
        reuses wire ids after ``Term``/``Discard`` -- so a qubit column
        that was terminated and is then used again stands for a fresh
        |0> allocation on the same column.  (``Init(True)`` reuse is
        covered too: the exporter renders it as the silent init plus an
        ``x``.)
        """
        live = self.live
        for wire in wires:
            kind = live.get(wire)
            if kind is None:
                self.gates.append(Init(wire, False))
                live[wire] = QUANTUM
            elif kind != QUANTUM:
                raise QasmParseError(f"{what} touches classical wire {wire}")

    def _angle(self, expr: str, env: dict[str, float]) -> float:
        code = self.codes.get(expr)
        if code is None:
            code = _compile_angle(expr)
            _remember(self.codes, expr, code)
        return _run_angle(code, expr, env)

    # -- comment dialect ----------------------------------------------

    def comment(self, text: str) -> None:
        """Dispatch one ``//`` comment line (dialect marker or prose)."""
        entry = _COMMENTS.get(text.split(" ", 1)[0])
        match = entry[0].match(text) if entry else None
        if match:
            entry[1](self, *match.groups())
        else:
            self.gates.append(Comment(text))

    def _opaque_comment(self, display: str) -> None:
        self.pending_opaque = display

    def _end(self, gate) -> None:
        """Append *gate*, which ends the life of its wire."""
        self.gates.append(gate)
        self.live.pop(gate.wire, None)

    def _cinit(self, name: str) -> None:
        creg = self._creg(name)
        wire = self._fresh_wire()
        creg.bits[0] = wire
        self.gates.append(CInit(wire, False))
        self.live[wire] = CLASSICAL

    def _phase_comment(self, name: str, param, star) -> None:
        try:
            value = None if param is None else _parse_number(param)
        except (ArithmeticError, ValueError):
            raise QasmParseError(f"bad global phase {param!r}") from None
        self.gates.append(NamedGate(name, (), param=value, inverted=bool(star)))

    def _creg(self, name: str) -> _Creg:
        if name not in self.cregs:
            raise QasmParseError(f"undeclared classical register {name!r}")
        return self.cregs[name]

    def _bound_bit(self, name: str) -> int:
        creg = self._creg(name)
        if creg.size != 1:
            raise QasmParseError(
                f"register {name!r} has {creg.size} bits; the dialect "
                "only tracks one-bit classical registers as wires"
            )
        if 0 not in creg.bits:
            raise QasmParseError(f"register {name!r} was never written")
        return creg.bits[0]

    # -- statements ---------------------------------------------------

    def statement(self, stmt: str) -> None:
        """Dispatch one ``;``-terminated statement."""
        seen = self.applied.get(stmt)
        if seen is not None:
            self._touch(seen[1], seen[0])
            self.gates += seen[2]
            return
        if not self.saw_header:
            match = _HEADER.match(stmt)
            if not match or not match.group(1).startswith("2"):
                raise QasmParseError(
                    "expected an 'OPENQASM 2.x;' header, got "
                    f"{stmt + ';'!r}"
                )
            self.saw_header = True
            return
        word = _WORD.match(stmt)
        entry = _STATEMENTS.get(word.group()) if word else None
        match = entry[0].match(stmt) if entry else None
        if match:
            entry[1](self, *match.groups())
        else:
            self._apply(stmt, None)

    def _include(self, path: str) -> None:
        if path != "qelib1.inc":
            raise QasmParseError(
                f"unsupported include {path!r} (only qelib1.inc is built in)"
            )

    def _register(self, kind: str, name: str, size: str) -> None:
        if name in self.qregs or name in self.cregs:
            raise QasmParseError(f"duplicate register {name!r}")
        if kind == "c":
            self.cregs[name] = _Creg(int(size))
            return
        offset = self._next_fresh
        self._next_fresh += int(size)
        self.qregs[name] = (offset, int(size))
        self.live.update(dict.fromkeys(range(offset, self._next_fresh),
                                       QUANTUM))

    def _opaque_decl(self, rest: str) -> None:
        name = _split_call(rest)[0]
        display, self.pending_opaque = self.pending_opaque, None
        if display is None:
            display = name[3:] if name.startswith("op_") else name
        self.opaques[name] = (display.rstrip("*"), display.endswith("*"))
        self.applied.clear()  # the name may shadow a built-in gate

    def _measure(self, src: str, dst: str) -> None:
        src_m, dst_m = _ARG.match(src), _ARG.match(dst)
        if (not src_m or not dst_m
                or (src_m.group(2) is None) != (dst_m.group(2) is None)):
            raise QasmParseError(f"bad measure operands {src!r} -> {dst!r}")
        qname, cname = src_m.group(1), dst_m.group(1)
        if dst_m.group(2) is not None:
            self._measure_one(src, cname, int(dst_m.group(2)))
            return
        # Whole-register broadcast: measure q -> c;
        if qname not in self.qregs:
            raise QasmParseError(f"undeclared quantum register {qname!r}")
        size = self.qregs[qname][1]
        if self._creg(cname).size != size:
            raise QasmParseError(f"measure {src} -> {dst}: register sizes differ")
        for i in range(size):
            self._measure_one(f"{qname}[{i}]", cname, i)

    def _measure_one(self, src: str, cname: str, bit: int) -> None:
        wire = self._qubit_wire(src)
        self._touch((wire,), f"measure {src}")
        creg = self._creg(cname)
        if bit >= creg.size:
            raise QasmParseError(f"{cname}[{bit}]: index out of range")
        self.gates.append(Measure(wire))
        self.live[wire] = CLASSICAL
        creg.bits[bit] = wire

    def _conditional(self, cname: str, value: str, inner: str) -> None:
        creg = self._creg(cname)
        if creg.size != 1:
            raise QasmParseError(
                f"if ({cname} == ...): conditions on multi-bit registers "
                "are outside the dialect"
            )
        if int(value) not in (0, 1):
            raise QasmParseError(
                f"if ({cname} == {value}): a one-bit register is 0 or 1"
            )
        if 0 not in creg.bits:
            # An unwritten creg reads 0: bind it to a fresh classical
            # wire initialized False so the guard simulates faithfully.
            self._cinit(cname)
        inner = inner.strip()
        if inner.startswith("measure") or inner.startswith("if"):
            raise QasmParseError(
                f"conditioned {inner.split()[0]!r} is outside the dialect"
            )
        self._apply(inner, Control(creg.bits[0], int(value) == 1, CLASSICAL))

    def _reset(self) -> None:
        raise QasmParseError(
            "'reset' is outside the dialect (no extended-model "
            "equivalent that preserves the wire)"
        )

    # -- gate applications --------------------------------------------

    def _apply(self, stmt: str, guard: Control | None) -> None:
        """Apply one gate statement; whole-register operands broadcast."""
        name, exprs, tokens = _split_call(stmt)
        params = [self._angle(p, {}) for p in exprs]
        operands = [_ARG.match(token) for token in tokens]
        if None in operands:
            raise QasmParseError(f"bad operand in {stmt!r}")
        if operands and all(m.group(2) is None for m in operands):
            # Whole-register broadcast: h q;  cx a, b;
            sizes = set()
            for token, m in zip(tokens, operands):
                if m.group(1) not in self.qregs:
                    raise QasmParseError(
                        f"undeclared quantum register {token!r}"
                    )
                sizes.add(self.qregs[m.group(1)][1])
            if len(sizes) != 1:
                raise QasmParseError(
                    f"broadcast over differently-sized registers in {stmt!r}"
                )
            rows = [[self._qubit_wire(f"{m.group(1)}[{i}]") for m in operands]
                    for i in range(sizes.pop())]
        else:
            rows = [[self._qubit_wire(token) for token in tokens]]
        what = f"gate {name!r}"
        for wires in rows:
            if len(set(wires)) != len(wires):
                raise QasmParseError(f"repeated qubit operand in {stmt!r}")
            self._touch(wires, what)
            start = len(self.gates)
            self._call(self._callee(name), name, params, wires, guard,
                       self.gates)
        if guard is None and len(rows) == 1:
            _remember(self.applied, stmt,
                      (what, rows[0], tuple(self.gates[start:])))

    def _callee(self, name: str):
        """What *name* applies: a definition, an opaque or a built-in."""
        callee = (self.gate_defs.get(name) or self.opaques.get(name)
                  or _BUILTINS.get(name))
        if callee is None:
            raise QasmParseError(f"unknown gate {name!r}")
        return callee

    def _call(self, callee, name, params, wires, guard, sink) -> None:
        """Resolve one application into extended-model gates on *sink*."""
        extra = (guard,) if guard else ()
        if callee.__class__ is _Builtin:
            if len(params) != callee.n_params or len(wires) != callee.n_wires:
                raise QasmParseError(
                    f"{name} expects {callee.n_params} params / "
                    f"{callee.n_wires} qubits"
                )
            callee.emit(params, wires, extra, sink)
        elif callee.__class__ is _GateDef:
            _check_arity(callee, name, params, wires)
            if callee.params:
                self._inline(callee, dict(zip(callee.params, params)),
                             wires, guard, sink)
            else:
                # Parameterless definitions stay hierarchical: one
                # Subroutine, called through BoxCall (Quipper's boxed
                # subcircuits), from other definitions too.
                endpoints = tuple((w, QUANTUM) for w in wires)
                sink.append(BoxCall(name=name, in_wires=endpoints,
                                    out_wires=endpoints, controls=extra))
        else:  # opaque: (display name, inverted)
            sink.append(NamedGate(callee[0], tuple(wires), extra, callee[1]))

    def _inline(self, define, env, wires, guard, sink) -> None:
        """Expand *define*'s body onto *wires*, parameters bound by *env*.

        Parametrized callees expand on an explicit stack of bodies, not
        by recursion, so a chain of definitions of any depth inlines.
        """
        stack = [(iter(define.body), env, dict(zip(define.args, wires)))]
        while stack:
            body, env, wire_map = stack[-1]
            for name, callee, exprs, args in body:
                params = [self._angle(p, env) for p in exprs]
                wires = [wire_map[a] for a in args]
                if callee.__class__ is _GateDef and callee.params:
                    _check_arity(callee, name, params, wires)
                    stack.append((iter(callee.body),
                                  dict(zip(callee.params, params)),
                                  dict(zip(callee.args, wires))))
                    break
                self._call(callee, name, params, wires, guard, sink)
            else:
                stack.pop()

    # -- gate definitions ---------------------------------------------

    def define_gate(self, source: str) -> None:
        """Read ``gate name(params) args { body``; body calls bind to the
        gates defined before it, so a definition cannot reach itself."""
        brace = source.find("{")
        if brace < 0:
            raise QasmParseError(f"gate definition without a body {source!r}")
        name, params, args = _split_call(source[len("gate"):brace].strip())
        if (name in self.gate_defs or name in self.opaques
                or name in self.qregs or name in self.cregs):
            raise QasmParseError(f"duplicate definition of {name!r}")
        define = _GateDef(tuple(params), tuple(args))
        for raw in source[brace + 1:].split(";"):
            stmt = raw.strip()
            if not stmt or stmt.startswith("barrier"):
                continue
            cname, cparams, cargs = _split_call(stmt)
            unknown = [a for a in cargs if a not in define.args]
            if unknown:
                raise QasmParseError(
                    f"gate {name!r} body uses undeclared qubits {unknown}"
                )
            define.body.append((cname, self._callee(cname), cparams, cargs))
        if not params:
            # Parameterless: build the Subroutine now so call sites can
            # stay hierarchical BoxCalls.
            formals = list(range(len(args)))
            gates: list = []
            self._inline(define, {}, formals, None, gates)
            endpoints = tuple((w, QUANTUM) for w in formals)
            shape = tuple(Qubit(w) for w in formals)
            self.namespace[name] = Subroutine(
                name, Circuit(endpoints, gates, endpoints), shape, shape
            )
        self.gate_defs[name] = define
        self.applied.clear()  # the name may shadow a built-in gate

    # -- assembly -----------------------------------------------------

    def finish(self, check: bool) -> BCircuit:
        """Assemble the accumulated program into a checked circuit."""
        if not self.saw_header:
            raise QasmParseError("empty input (no OPENQASM header)")
        inputs = tuple((wire, QUANTUM)
                       for offset, size in sorted(self.qregs.values())
                       for wire in range(offset, offset + size))
        outputs = tuple(sorted(self.live.items()))
        bc = BCircuit(Circuit(inputs, self.gates, outputs), self.namespace)
        if check:
            bc.check()
        return bc


_ALWAYS = re.compile("")

#: Keyword -> (statement pattern, handler taking the pattern's groups).
#: A statement that misses its pattern is read as a gate application.
_STATEMENTS = {
    "include": (re.compile(r'^include\s+"([^"]+)"$'), _Importer._include),
    "qreg": (re.compile(r"^([qc])reg\s+(\w+)\s*\[\s*(\d+)\s*\]$"),
             _Importer._register),
    "opaque": (re.compile(r"^opaque\s+(.*)$"), _Importer._opaque_decl),
    "measure": (re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$"),
                _Importer._measure),
    "if": (re.compile(r"^if\s*\(\s*(\w+)\s*==\s*(\d+)\s*\)\s*(.+)$"),
           _Importer._conditional),
    "barrier": (_ALWAYS, lambda importer: None),
    "reset": (_ALWAYS, _Importer._reset),
}
_STATEMENTS["creg"] = _STATEMENTS["qreg"]

#: First word of a dialect comment -> (exact pattern, reader).
_COMMENTS = {
    "no": (re.compile(r"^no qelib1 equivalent for '(.*)':$"),
           _Importer._opaque_comment),
    "assert": (
        re.compile(r"^assert (\w+\[\d+\]) == \|([01])> "
                   r"\(quipper termination\)$"),
        lambda imp, token, bit: imp._end(
            Term(imp._qubit_wire(token), bit == "1"))),
    "discard": (re.compile(r"^discard (\w+\[\d+\])$"),
                lambda imp, token: imp._end(Discard(imp._qubit_wire(token)))),
    "cinit": (re.compile(r"^cinit (\w+) = 0$"), _Importer._cinit),
    "cterm": (
        re.compile(r"^cterm (\w+) == ([01]) "
                   r"\(quipper classical termination\)$"),
        lambda imp, name, bit: imp._end(
            CTerm(imp._bound_bit(name), bit == "1"))),
    "cdiscard": (re.compile(r"^cdiscard (\w+)$"),
                 lambda imp, name: imp._end(CDiscard(imp._bound_bit(name)))),
    "global": (re.compile(r"^global phase (omega|phase)(?:\(([^)]*)\))?"
                          r"(\*)? omitted$"), _Importer._phase_comment),
}


def parse_qasm(text: str, check: bool = True) -> BCircuit:
    """Parse OpenQASM 2 text into a hierarchical extended-model circuit.

    With ``check`` (the default) the reconstructed circuit is validated
    with :meth:`~repro.core.circuit.BCircuit.check`, so malformed input
    is rejected rather than producing an inconsistent hierarchy.  Raises
    :class:`QasmParseError` for syntax errors and for constructs outside
    the supported dialect.  One pass over the lines: a statement spread
    over several lines is collected and joined once.
    """
    importer = _Importer()
    parts: list[str] = []  # an unfinished statement, one piece per line
    gate = False  # ... is a gate definition, which ends at "}"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("//"):
            if not parts:
                importer.comment(line[2:].strip())
            continue
        try:
            cut = line.find("//")
            if cut >= 0:
                line = line[:cut].rstrip()
            pos = 0
            while pos < len(line):
                if not parts:
                    gate = _GATE_WORD.match(line, pos) is not None
                end = line.find("}" if gate else ";", pos)
                if end < 0:
                    parts.append(line[pos:])
                    break
                parts.append(line[pos:end])
                stmt, parts, pos = " ".join(parts).strip(), [], end + 1
                if gate:
                    importer.define_gate(stmt)
                elif stmt:
                    importer.statement(stmt)
        except QasmParseError as exc:
            raise QasmParseError(f"line {lineno}: {exc}") from None
    if parts:  # reprlib shortens what may be the rest of a long file
        unfinished = reprlib.repr(" ".join(parts).strip())
        raise QasmParseError(f"unterminated statement {unfinished}")
    return importer.finish(check)
