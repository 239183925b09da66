"""The OpenQASM 2 importer, pinned on QASM the exporter did not write.

The round-trip suites (``tests/test_qasm_roundtrip.py``,
``tests/test_io.py``) only feed the importer its own exporter's text.
Here it reads hand-written programs: one per row of the dialect table in
``docs/interchange.md`` plus the layouts foreign files use (definitions,
guards, broadcast, ``barrier``, inline comments, several statements on
one line, one statement over several lines), one per
:class:`QasmParseError` message, and the seven golden exports.

The expected ``repro.io.dumps()`` text of each corpus program lives in
``golden/qasm_import/<case>.quip``.  The files are a frozen reference:
regenerate one only when a change to the importer's output is intended.

The later classes cover what the corpus cannot: malformed angles are
rejected, nested parameterless definitions stay boxed, chains of
definitions deeper than the Python stack import, count and pass through
the CLI, reading time is linear in the input, the per-import memos stay
bounded, and corrupted
input never escapes as anything but a
:class:`~repro.core.errors.QuipperError`.
"""

from __future__ import annotations

import hashlib
import math
import pathlib
import random
import time

import pytest

from repro.algorithms.gse.main import main as gse_main
from repro.core.circuit import BCircuit, Circuit, Subroutine
from repro.core.errors import QuipperError
from repro.core.gates import BoxCall, Control, NamedGate
from repro.io import QasmParseError, dumps, parse_qasm, qasm_parser
from repro.program import Program

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

CORPUS = {
    "single_qubit_gates": HEAD + """\
qreg q[2];
x q[0];
y q[1];
z q[0];
h q[1];
s q[0];
t q[1];
sdg q[0];
tdg q[1];
id q[0];
""",
    # Negative controls arrive conjugated by x on the control wire.
    "controlled_gates": HEAD + """\
qreg q[3];
cx q[0], q[1];
CX q[1], q[2];
cy q[2], q[0];
cz q[0], q[2];
ch q[1], q[0];
ccx q[0], q[1], q[2];
x q[0];
cx q[0], q[2];
x q[0];
""",
    # cu3(t,0,0) is a controlled Ry and cu3(t,-pi/2,pi/2) a controlled Rx;
    # crz(2t) is how the exporter writes a controlled exp(-itZ).
    "rotations": HEAD + """\
qreg q[2];
rx(0.5) q[0];
ry(-0.25) q[1];
rz(pi/4) q[0];
crz(1.5) q[0], q[1];
crz(2*0.125) q[1], q[0];
cu3(0.3, 0, 0) q[0], q[1];
cu3(0.7, -pi/2, pi/2) q[1], q[0];
cu3(0.1, 0.2, 0.3) q[0], q[1];
""",
    # u1/cu1 of +-2pi/2^p is the QFT ladder's R(2pi/%); any other angle
    # is a global phase controlled on the wire.
    "phase_ladder": HEAD + """\
qreg q[2];
u1(pi) q[0];
u1(pi/2) q[0];
u1(-pi/4) q[1];
u1(1.5707963267948966) q[1];
u1(2*pi/2^5) q[0];
cu1(pi/8) q[0], q[1];
cu1(-0.7853981633974483) q[1], q[0];
u1(0.3) q[0];
cu1(0.3) q[0], q[1];
""",
    "controlled_v": HEAD + """\
qreg q[2];
h q[1];
cu1(pi/2) q[0], q[1];
h q[1];
""",
    "swaps": HEAD + """\
qreg q[3];
swap q[0], q[1];
cswap q[2], q[0], q[1];
""",
    "u2_u3_U": HEAD + """\
qreg q[1];
u2(0, pi) q[0];
u2(0.25, -0.5) q[0];
u3(0.1, 0.2, 0.3) q[0];
u3(0.5, 0, 0) q[0];
u3(0.5, -pi/2, pi/2) q[0];
u3(0.5, 0.4, -0.4) q[0];
U(0.1, 0.2, 0.3) q[0];
u(0.6, 0, 0.2) q[0];
""",
    "angle_grammar": HEAD + """\
qreg q[1];
rz(-pi) q[0];
rz(+0.5) q[0];
rz(2^-3) q[0];
rz(-2^2) q[0];
rz(2^3^2/100) q[0];
rz(1 - 2 - 3) q[0];
rz(8/4/2) q[0];
rz(1.5e-3) q[0];
rz(.5) q[0];
rz(3.) q[0];
rz(sin(pi/6) + cos(0) * tan(pi/4)) q[0];
rz(exp(1) - ln(2) + sqrt(2)) q[0];
rz((1 + 2) * -(3 - 4)) q[0];
rz(- -1) q[0];
""",
    "opaque_with_dialect_comment": HEAD + """\
qreg q[2];
// no qelib1 equivalent for 'V*':
opaque op_V_ a0;
// no qelib1 equivalent for 'W':
opaque op_W a0, a1;
op_V_ q[0];
op_W q[0], q[1];
""",
    "opaque_without_comment": HEAD + """\
qreg q[2];
opaque op_E a0;
opaque mystery a, b;
op_E q[1];
mystery q[1], q[0];
""",
    "dialect_comments": HEAD + """\
qreg q[3];
creg c0[1];
creg c1[1];
x q[0];
// assert q[0] == |1> (quipper termination)
// discard q[1]
// cinit c0 = 0
// cterm c0 == 0 (quipper classical termination)
measure q[2] -> c1[0];
// cdiscard c1
// global phase omega omitted
// global phase phase(0.25) omitted
// global phase phase(pi/2)* omitted
// ENTER: some_box
// plain prose survives as a comment gate
""",
    # A terminated column used again is a fresh |0> allocation.
    "column_reuse": HEAD + """\
qreg q[2];
creg c0[1];
x q[0];
// assert q[0] == |1> (quipper termination)
h q[0];
cx q[0], q[1];
// discard q[1]
measure q[1] -> c0[0];
""",
    "measure_and_if": HEAD + """\
qreg q[3];
creg c0[1];
creg c1[1];
h q[0];
measure q[0] -> c0[0];
if (c0 == 1) x q[1];
if(c0==0) cx q[1], q[2];
if (c1 == 1) rz(0.5) q[2];
if (c0 == 1) u3(0.1, 0.2, 0.3) q[2];
""",
    "broadcast": HEAD + """\
qreg q[3];
qreg r[3];
creg c[3];
h q;
x r;
cx q, r;
rz(0.5) r;
measure q -> c;
""",
    "gate_def_parameterless": HEAD + """\
gate bell a, b { h a; cx a, b; }
gate maj a, b, c
{
  cx c, b;
  cx c, a;
  ccx a, b, c;
}
gate nop a { }
gate fenced a, b { h a; barrier a, b; h b; }
qreg q[3];
creg c[1];
bell q[0], q[1];
maj q[2], q[1], q[0];
nop q[2];
fenced q[1], q[2];
measure q[0] -> c[0];
if (c == 1) bell q[1], q[2];
""",
    "gate_def_parametrized": HEAD + """\
gate rot(theta, phi) a { rz(theta) a; ry(2*phi - theta/2) a; }
gate crot(lam) a, b
{
  cu1(lam/2) a, b;
  rx(-lam) b;
}
qreg q[2];
rot(0.5, pi/3) q[0];
rot(pi, 0) q[1];
crot(pi/2) q[0], q[1];
crot(0.3) q[1], q[0];
""",
    # Repeated statements: a terminated column comes back as a fresh
    # qubit, and a later definition or opaque shadows a built-in name.
    "repeated_statements": HEAD + """\
qreg q[2];
x q[0];
// assert q[0] == |1> (quipper termination)
x q[0];
h q[1];
gate h a { x a; }
h q[1];
t q[0];
opaque t a;
t q[0];
""",
    "layout": """\
// a foreign file: comments before the header are kept as comment gates
OPENQASM 2.0; include "qelib1.inc";
qreg q[2]; creg c[2];

h q[0]; // put q[0] in superposition
cx q[0],
   q[1];
barrier q[0], q[1];
barrier q;
rz(pi /
   4) q[1];
x q[0]; y q[1]; z q[0];
measure q[1]
  -> c[1];
""",
    # A bare ';' is an empty statement, before the header too.
    "empty_statements": """\
;
OPENQASM 2.0;
include "qelib1.inc";
;
qreg q[2];
h q[0];;
; // an empty statement, then a comment
;;
x q[1]; ;
cx q[0],
   q[1];
;
""",
}

#: One program per QasmParseError message, with the exact message.
ERRORS = {
    "empty_angle": (
        "qreg q[2];\ncu3(0.1, , 0.2) q[0], q[1];\n",
        "line 4: empty angle expression"),
    "bad_angle": (
        "qreg q[1];\nrz(1 +) q[0];\n",
        "line 4: bad angle expression '1 +'"),
    "unbalanced_angle": (
        "qreg q[1];\nrz(sin(1, 2)) q[0];\n",
        "line 4: bad angle expression 'sin(1'"),
    "unsupported_angle_construct": (
        "qreg q[1];\nrz(1 % 2) q[0];\n",
        "line 4: unsupported construct in angle expression '1 % 2'"),
    "bad_literal": (
        "qreg q[1];\nrz(1j) q[0];\n",
        "line 4: bad literal in '1j'"),
    "unknown_name": (
        "qreg q[1];\nrz(theta) q[0];\n",
        "line 4: unknown name 'theta' in 'theta'"),
    "bad_function_call": (
        "qreg q[1];\nrz(cosh(1)) q[0];\n",
        "line 4: bad function call in 'cosh(1)'"),
    "bad_statement": (
        "qreg q[1];\n[q] q[0];\n",
        "line 4: bad statement '[q] q[0]'"),
    "unbalanced_parentheses": (
        "qreg q[1];\nrz((0.5) q[0];\n",
        "line 4: unbalanced parentheses in 'rz((0.5) q[0]'"),
    "bad_argument_list": (
        "qreg q[2];\ncx q[0],, q[1];\n",
        "line 4: bad argument list in 'cx q[0],, q[1]'"),
    "expected_indexed_qubit": (
        "qreg q[2];\nqreg r[2];\ncx q[0], r;\n",
        "line 5: expected an indexed qubit, got 'r'"),
    "undeclared_qreg": (
        "qreg q[1];\nx r[0];\n",
        "line 4: undeclared quantum register 'r'"),
    "qubit_index_out_of_range": (
        "qreg q[2];\nx q[2];\n",
        "line 4: q[2]: index out of range (size 2)"),
    "touches_classical_wire": (
        "qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[0];\nx q[0];\n",
        "line 6: gate 'x' touches classical wire 0"),
    "touches_classical_wire_again": (
        "qreg q[2];\ncreg c[1];\nx q[0];\nmeasure q[0] -> c[0];\nx q[0];\n",
        "line 7: gate 'x' touches classical wire 0"),
    "undeclared_creg": (
        "qreg q[1];\nmeasure q[0] -> d[0];\n",
        "line 4: undeclared classical register 'd'"),
    "multi_bit_dialect_register": (
        "qreg q[1];\ncreg c[2];\n"
        "// cterm c == 0 (quipper classical termination)\n",
        "register 'c' has 2 bits; the dialect only tracks one-bit "
        "classical registers as wires"),
    "never_written": (
        "qreg q[1];\ncreg c[1];\n// cdiscard c\n",
        "register 'c' was never written"),
    "duplicate_qreg": (
        "qreg q[1];\nqreg q[2];\n",
        "line 4: duplicate register 'q'"),
    "duplicate_creg": (
        "qreg q[1];\ncreg q[1];\n",
        "line 4: duplicate register 'q'"),
    "bad_measure_operands": (
        "qreg q[1];\ncreg c[1];\nmeasure q[0]] -> c[0];\n",
        "line 5: bad measure operands 'q[0]]' -> 'c[0]'"),
    "half_indexed_measure": (
        "qreg q[1];\ncreg c[1];\nmeasure q -> c[0];\n",
        "line 5: bad measure operands 'q' -> 'c[0]'"),
    "measure_sizes_differ": (
        "qreg q[2];\ncreg c[3];\nmeasure q -> c;\n",
        "line 5: measure q -> c: register sizes differ"),
    "creg_index_out_of_range": (
        "qreg q[1];\ncreg c[1];\nmeasure q[0] -> c[1];\n",
        "line 5: c[1]: index out of range"),
    "multi_bit_condition": (
        "qreg q[1];\ncreg c[2];\nif (c == 1) x q[0];\n",
        "line 5: if (c == ...): conditions on multi-bit registers are "
        "outside the dialect"),
    "one_bit_condition_value": (
        "qreg q[1];\ncreg c[1];\nif (c == 2) x q[0];\n",
        "line 5: if (c == 2): a one-bit register is 0 or 1"),
    "conditioned_measure": (
        "qreg q[1];\ncreg c[1];\ncreg d[1];\n"
        "if (c == 1) measure q[0] -> d[0];\n",
        "line 6: conditioned 'measure' is outside the dialect"),
    "reset": (
        "qreg q[1];\nreset q[0];\n",
        "line 4: 'reset' is outside the dialect (no extended-model "
        "equivalent that preserves the wire)"),
    "bad_operand": (
        "qreg q[1];\nx q[0]q;\n",
        "line 4: bad operand in 'x q[0]q'"),
    "broadcast_undeclared": (
        "qreg q[1];\nh r;\n",
        "line 4: undeclared quantum register 'r'"),
    "broadcast_size_mismatch": (
        "qreg q[1];\nqreg r[2];\ncx q, r;\n",
        "line 5: broadcast over differently-sized registers in 'cx q, r'"),
    "repeated_operand": (
        "qreg q[2];\ncx q[1], q[1];\n",
        "line 4: repeated qubit operand in 'cx q[1], q[1]'"),
    "custom_gate_arity": (
        "gate bell a, b { h a; cx a, b; }\nqreg q[2];\nbell q[0];\n",
        "line 5: gate 'bell' expects 0 params / 2 qubits"),
    "builtin_gate_arity": (
        "qreg q[1];\nh(0.5) q[0];\n",
        "line 4: h expects 0 params / 1 qubits"),
    "unknown_gate": (
        "qreg q[1];\nfoo q[0];\n",
        "line 4: unknown gate 'foo'"),
    "duplicate_definition": (
        "gate g a { h a; }\ngate g a { x a; }\n",
        "line 4: duplicate definition of 'g'"),
    "undeclared_body_qubit": (
        "gate g a { cx a, b; }\n",
        "line 3: gate 'g' body uses undeclared qubits ['b']"),
    "unterminated_statement": (
        "qreg q[1];\nh q[0]\n",
        "unterminated statement 'h q[0]'"),
    "unterminated_gate_body": (
        "gate g a { h a;\n",
        "unterminated statement 'gate g a { h a;'"),
}

#: Whole programs whose header is what is wrong.
HEADER_ERRORS = {
    "bad_header": (
        'OPENQASM 3.0;\ninclude "stdgates.inc";\n',
        "line 1: expected an 'OPENQASM 2.x;' header, got 'OPENQASM 3.0;'"),
    "missing_header": (
        'include "qelib1.inc";\nqreg q[1];\n',
        "line 1: expected an 'OPENQASM 2.x;' header, got "
        "'include \"qelib1.inc\";'"),
    "unsupported_include": (
        'OPENQASM 2.0;\ninclude "stdgates.inc";\n',
        "line 2: unsupported include 'stdgates.inc' (only qelib1.inc is "
        "built in)"),
    "empty_input": ("", "empty input (no OPENQASM header)"),
}

#: SHA-256 of ``dumps(parse_qasm(text))`` for each golden export.
FIXTURE_DIGESTS = {
    "bf":
        "053d77615290515be4b755c0abec9c14e229c89773bda6b0e1f2bc18d9a6aa6c",
    "bwt":
        "009dedb7d90494b5d3336e8ed038823ea59cb48a501101771c2fdda894e9eaba",
    "cl":
        "6487abe381242dab4d13c5526f0024ea004a6fafe84fb58876e9cdab01bd4560",
    "gse":
        "61931b82927181dcc46aef21e8fef962720c4bc9fc2708927068018f5c5781a5",
    "qls":
        "5e4b9a8fababfbfc41a738a9b27d78077d32244c973dc90653ee468b5ee22228",
    "tf":
        "51dda1e3b9478a7cb763e9de99f0ebfc83f4d14b365ee293450e55770ecdf0c4",
    "usv":
        "83e602d5d9e07ee6f49a314b9d86bd4f996c463e14edd282bded8c0c9ac1db0b",
}


class TestCorpus:
    @pytest.mark.parametrize("case", sorted(CORPUS))
    def test_imports_as_pinned(self, case):
        golden = GOLDEN_DIR / "qasm_import" / f"{case}.quip"
        assert dumps(parse_qasm(CORPUS[case])) == golden.read_text()

    @pytest.mark.parametrize("case", sorted(ERRORS))
    def test_error_message(self, case):
        body, message = ERRORS[case]
        with pytest.raises(QasmParseError) as excinfo:
            parse_qasm(HEAD + body)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("case", sorted(HEADER_ERRORS))
    def test_header_error_message(self, case):
        text, message = HEADER_ERRORS[case]
        with pytest.raises(QasmParseError) as excinfo:
            parse_qasm(text)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("name", sorted(FIXTURE_DIGESTS))
    def test_golden_fixture_digest(self, name):
        text = (GOLDEN_DIR / "qasm" / f"{name}.qasm").read_text()
        digest = hashlib.sha256(dumps(parse_qasm(text)).encode()).hexdigest()
        assert digest == FIXTURE_DIGESTS[name]


def _rz_angle(expr: str) -> float:
    """The angle ``rz(expr)`` imports as."""
    bc = parse_qasm(HEAD + f"qreg q[1];\nrz({expr}) q[0];\n")
    return bc.circuit.gates[0].param


#: Python spellings of the QASM angle grammar, the reference semantics.
_PYTHON_NAMES = {
    "pi": math.pi, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
}


def _random_angle(rnd: random.Random, depth: int) -> str:
    if depth == 0 or rnd.random() < 0.25:
        return rnd.choice(["0.5", "2.0", "3.0", "0.1", "1e-3", "7.25", "pi"])
    roll = rnd.random()
    if roll < 0.15:
        return "-" + _random_angle(rnd, depth - 1)
    if roll < 0.3:
        fn = rnd.choice(sorted(set(_PYTHON_NAMES) - {"pi"}))
        return f"{fn}({_random_angle(rnd, depth - 1)})"
    if roll < 0.4:
        return f"({_random_angle(rnd, depth - 1)})"
    op = rnd.choice("+-*/^")
    return f"{_random_angle(rnd, depth - 1)} {op} {_random_angle(rnd, depth - 1)}"


class TestMalformedAngles:
    """An angle without a finite real value raises QasmParseError."""

    @pytest.mark.parametrize("expr", [
        "1/0", "10^400", "exp(1000)", "sqrt(-1)", "ln(0)", "1e400",
        "(-8)^(1/3)", "0^-1", "exp(700) * exp(700) - exp(700) * exp(700)",
        pytest.param("+".join(["1"] * 3000), id="sum-of-3000-terms"),
        pytest.param("-" * 5000 + "1", id="5000-signs"),
        "nan", "inf", "-inf", "infinity",
    ])
    def test_rejected(self, expr):
        with pytest.raises(QasmParseError):
            _rz_angle(expr)

    def test_rejected_inside_a_definition(self):
        text = HEAD + "gate g(t) a { rz(1/t) a; }\nqreg q[1];\ng(0) q[0];\n"
        with pytest.raises(QasmParseError, match="line 5: cannot evaluate angle"):
            parse_qasm(text)

    def test_bad_global_phase_comment(self):
        text = HEAD + "// global phase phase(abc) omitted\n"
        with pytest.raises(QasmParseError, match="global phase"):
            parse_qasm(text)

    def test_long_legal_expressions_still_evaluate(self):
        assert _rz_angle("+".join(["1"] * 400)) == 400.0
        assert _rz_angle("-" * 600 + "1") == 1.0
        assert _rz_angle("(" * 150 + "2" + ")" * 150) == 2.0

    def test_keyword_like_parameter_names(self):
        text = HEAD + ("gate g(lambda, if) a { rz(lambda - if) a; }\n"
                       "qreg q[1];\ng(0.75, 0.25) q[0];\n")
        assert parse_qasm(text).circuit.gates[0].param == 0.5

    def test_values_match_python_float_arithmetic(self):
        rnd = random.Random(11)
        for _ in range(400):
            expr = _random_angle(rnd, 4)
            try:
                expected = eval(expr.replace("^", "**"),
                                {"__builtins__": {}}, _PYTHON_NAMES)
            except (ArithmeticError, ValueError, TypeError):
                expected = None
            if (not isinstance(expected, float)
                    or not math.isfinite(expected)):
                with pytest.raises(QasmParseError):
                    _rz_angle(expr)
            else:
                assert repr(_rz_angle(expr)) == repr(expected), expr


def _chain(depth: int) -> str:
    """*depth* nested two-call definitions, the innermost ``h; cx``."""
    lines = [HEAD + "gate g0 a, b { h a; cx a, b; }"]
    for k in range(1, depth):
        lines.append(f"gate g{k} a, b {{ g{k - 1} a, b; g{k - 1} b, a; }}")
    return "\n".join(lines) + "\n"


def _expanded(depth: int, a: int, b: int) -> list[tuple[int, int]]:
    """The (h wire, cx target) pairs ``g{depth-1} a, b`` expands to."""
    if depth == 1:
        return [(a, b)]
    return _expanded(depth - 1, a, b) + _expanded(depth - 1, b, a)


class TestNestedDefinitions:
    """A call inside a parameterless definition stays a BoxCall."""

    def test_deep_chain_stays_boxed(self):
        text = _chain(24) + "qreg q[2];\ng23 q[0], q[1];\n"
        start = time.perf_counter()
        program = Program.loads_qasm(text)
        assert len(program.bcircuit) == 1 + 2 + 2 * 23
        assert time.perf_counter() - start < 1.0
        counts = program.count()
        assert counts[("H", 0, 0)] == 2 ** 23
        assert sum(counts.values()) == 2 ** 24

    def test_six_deep_chain_inlines_and_exports_its_expansion(self):
        text = _chain(6) + "qreg q[3];\nx q[2];\ng5 q[2], q[0];\nh q[1];\n"
        pairs = _expanded(6, 2, 0)
        gates = [NamedGate("X", (2,))]
        lines = [HEAD + "qreg q[3];", "x q[2];"]
        for h, target in pairs:
            gates += [NamedGate("H", (h,)),
                      NamedGate("X", (target,), (Control(h),))]
            lines += [f"h q[{h}];", f"cx q[{h}], q[{target}];"]
        gates.append(NamedGate("H", (1,)))
        lines.append("h q[1];")
        program = Program.loads_qasm(text)
        assert list(program.inline().bcircuit.circuit.gates) == gates
        assert program.qasm() == "\n".join(lines) + "\n"

    def test_a_definition_cannot_call_itself(self):
        # Bodies bind to earlier definitions, so no recursive Subroutine.
        text = HEAD + "gate g a { h a; g a; }\n"
        with pytest.raises(QasmParseError, match="unknown gate 'g'"):
            parse_qasm(text)


def _doubling_chain(levels: int) -> str:
    """``gate gk a { g(k-1) a; g(k-1) a; }``: 2**(levels-1) ``h`` gates."""
    lines = [HEAD + "gate g0 a { h a; }"]
    for k in range(1, levels):
        lines.append(f"gate g{k} a {{ g{k - 1} a; g{k - 1} a; }}")
    lines.append(f"qreg q[1];\ng{levels - 1} q[0];")
    return "\n".join(lines) + "\n"


def _rotation_chain(levels: int) -> str:
    """``gate gk(t) a { g(k-1)(t) a; }``: one ``rz`` after inlining."""
    lines = [HEAD + "gate g0(t) a { rz(t) a; }"]
    for k in range(1, levels):
        lines.append(f"gate g{k}(t) a {{ g{k - 1}(t) a; }}")
    lines.append(f"qreg q[1];\ng{levels - 1}(0.5) q[0];")
    return "\n".join(lines) + "\n"


class TestDeepChains:
    """Chains of boxes far deeper than the Python stack: every memo is
    filled callee-first and parametrized definitions inline on an
    explicit stack, so no consumer recurses once per level."""

    LEVELS = 2000

    def test_doubling_chain_is_costed_without_recursion(self):
        program = Program.loads_qasm(_doubling_chain(self.LEVELS))
        hs = 2 ** (self.LEVELS - 1)
        assert program.count() == {("H", 0, 0): hs}
        assert program.stream().count() == {("H", 0, 0): hs}
        assert program.depth() == hs
        assert program.t_depth() == 0
        assert program.width() == 1
        report = program.resources()
        assert (report["total_gates"], report["depth"], report["width"]) \
            == (hs, hs, 1)

    def test_rotation_chain_imports_as_one_rotation(self):
        program = Program.loads_qasm(_rotation_chain(self.LEVELS))
        assert program.bcircuit.circuit.gates == [
            NamedGate("Rz", (0,), param=0.5)
        ]
        assert program.bcircuit.namespace == {}

    def test_a_cycle_is_still_reported(self):
        def calling(callee):
            ends = ((0, "Q"),)
            return Circuit(ends, [BoxCall(callee, ends, ends)], ends)

        namespace = {"a": Subroutine("a", calling("b")),
                     "b": Subroutine("b", calling("a"))}
        program = Program.from_bcircuit(BCircuit(calling("a"), namespace))
        for measure in (program.count, program.depth, program.width):
            with pytest.raises(QuipperError, match="recursive subroutine"):
                measure()

    @pytest.mark.parametrize("chain", [_doubling_chain, _rotation_chain])
    def test_cli_exits_0(self, chain, tmp_path, capsys):
        source = tmp_path / "chain.qasm"
        source.write_text(chain(self.LEVELS))
        assert gse_main(["-i", str(source), "-f", "gatecount"]) == 0
        out = capsys.readouterr().out
        if chain is _doubling_chain:
            assert str(2 ** (self.LEVELS - 1)) in out


#: The golden exports small enough to fuzz many times.
FUZZED = ("bf", "cl", "gse", "qls", "usv")


def _corruptions(text: str, rnd: random.Random, count: int):
    """Single-byte flips, deletions and truncations of *text*."""
    for _ in range(count):
        pos = rnd.randrange(len(text))
        kind = rnd.choice(("flip", "delete", "truncate"))
        if kind == "flip":
            # One flipped bit, as service.faults.corrupt_text does.
            flipped = chr(ord(text[pos]) ^ (1 << rnd.randrange(7)))
            yield kind, pos, text[:pos] + flipped + text[pos + 1:]
        elif kind == "delete":
            yield kind, pos, text[:pos] + text[pos + 1:]
        else:
            yield kind, pos, text[:pos]


class TestRobustReading:
    def test_unterminated_body_fails_in_linear_time(self):
        text = HEAD + "gate g a {\n" + "h a;\n" * 400_000
        start = time.perf_counter()
        with pytest.raises(QasmParseError, match="unterminated statement") \
                as excinfo:
            parse_qasm(text)
        assert time.perf_counter() - start < 5.0
        assert len(str(excinfo.value)) < 100  # one short line for the CLI

    def test_corrupted_fixtures_import_or_raise_quipper_errors(self):
        start, cases = time.perf_counter(), 0
        for name in FUZZED:
            text = (GOLDEN_DIR / "qasm" / f"{name}.qasm").read_text()
            rnd = random.Random(f"qasm-fuzz-{name}")
            for kind, pos, damaged in _corruptions(text, rnd, 110):
                cases += 1
                try:
                    parse_qasm(damaged)
                except QuipperError:
                    pass
                except Exception as exc:  # anything else is the defect
                    pytest.fail(f"{name} {kind}@{pos}: {exc!r}")
        assert cases >= 500
        assert time.perf_counter() - start < 30.0

    def test_memos_stay_bounded(self):
        # More distinct statements than a memo holds, then two repeats:
        # the memos start over instead of growing with the input.
        importer = qasm_parser._Importer()
        importer.statement("OPENQASM 2.0")
        importer.statement("qreg q[1]")
        size = qasm_parser._MEMO_ENTRIES
        angles = [*range(size + 10), 0, size + 9]
        for angle in angles:
            importer.statement(f"rz({angle}) q[0]")
        assert len(importer.applied) <= size
        assert len(importer.codes) <= size
        assert [gate.param for gate in importer.gates] == angles
