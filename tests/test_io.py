"""Serialization round-trip tests: Quipper-ASCII parsing and QASM export.

The core property is ``loads(dumps(bc)) == bc``: randomized circuits
exercising every gate constructor in :mod:`repro.core.gates` must
survive the text round-trip structurally intact, and a golden file pins
the concrete format for a hierarchical (boxed) circuit.
"""

from __future__ import annotations

import pathlib
import random
import re
import time

import pytest

from repro import build, qubit
from repro.core.circuit import BCircuit, Circuit
from repro.core.errors import QuipperError
from repro.core.gates import (
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
from repro.core.wires import CLASSICAL, QUANTUM
from repro.io import AsciiParseError, dumps, load, loads
from repro.io.ascii_parser import MAX_SHAPE_DEPTH, decode_shape, encode_shape
from repro.output.ascii import format_bcircuit

from families import COMPILE

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

#: Plain (non-parametrised) named gates from GATE_INFO, by arity.
_PLAIN_1 = ("X", "Y", "Z", "H", "not", "S", "T", "V", "E", "omega", "iX")
_PLAIN_2 = ("swap", "W")
#: Parametrised named gates, by arity.
_ROT_1 = ("Rx", "Ry", "Rz", "exp(-i%Z)", "R(2pi/%)", "rGate")
_ROT_2 = ("exp(-i%ZZ)",)
_CGATE_NAMES = ("and", "or", "xor", "eq")


# ---------------------------------------------------------------------------
# Randomized circuit generation
# ---------------------------------------------------------------------------


class _CircuitSampler:
    """Grow a random, wire-discipline-respecting flat circuit."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.live: dict[int, str] = {}
        self.next_wire = 0
        self.gates: list[Gate] = []

    def fresh(self, wtype: str) -> int:
        wire = self.next_wire
        self.next_wire += 1
        self.live[wire] = wtype
        return wire

    def pick_live(self, wtype: str, exclude: set[int] = frozenset()):
        pool = [
            w for w, t in self.live.items()
            if t == wtype and w not in exclude
        ]
        return self.rng.choice(pool) if pool else None

    def random_param(self) -> float | int:
        if self.rng.random() < 0.3:
            return self.rng.randrange(1, 16)
        # Arbitrary floats: repr round-trips them exactly.
        return self.rng.uniform(-7, 7)

    def random_controls(self, exclude: set[int]) -> tuple[Control, ...]:
        controls = []
        used = set(exclude)
        for _ in range(self.rng.randrange(3)):
            wtype = self.rng.choice((QUANTUM, CLASSICAL))
            wire = self.pick_live(wtype, used)
            if wire is None:
                continue
            used.add(wire)
            controls.append(
                Control(wire, positive=self.rng.random() < 0.6,
                        wire_type=wtype)
            )
        return tuple(controls)

    # -- one random gate per call -------------------------------------------

    def step(self) -> None:
        makers = [
            self._named, self._named, self._named,  # weighted towards gates
            self._init, self._cinit, self._term, self._cterm,
            self._discard, self._cdiscard, self._measure,
            self._cgate, self._cnot, self._comment,
        ]
        self.rng.choice(makers)()

    def _named(self) -> None:
        arity = self.rng.choice((1, 1, 2))
        q1 = self.pick_live(QUANTUM)
        if q1 is None:
            return
        if arity == 2:
            q2 = self.pick_live(QUANTUM, {q1})
            if q2 is None:
                return
            targets = (q1, q2)
            pool = _PLAIN_2 + _ROT_2
        else:
            targets = (q1,)
            pool = _PLAIN_1 + _ROT_1
        name = self.rng.choice(pool)
        param = self.random_param() if "%" in name or name.startswith(
            ("Rx", "Ry", "Rz", "rGate")
        ) else None
        self.gates.append(
            NamedGate(
                name=name,
                targets=targets,
                controls=self.random_controls(set(targets)),
                inverted=self.rng.random() < 0.25,
                param=param,
            )
        )

    def _init(self) -> None:
        self.gates.append(
            Init(self.fresh(QUANTUM), self.rng.random() < 0.5)
        )

    def _cinit(self) -> None:
        self.gates.append(
            CInit(self.fresh(CLASSICAL), self.rng.random() < 0.5)
        )

    def _term(self) -> None:
        wire = self.pick_live(QUANTUM)
        if wire is not None and len(self._quantum()) > 1:
            del self.live[wire]
            self.gates.append(Term(wire, self.rng.random() < 0.5))

    def _cterm(self) -> None:
        wire = self.pick_live(CLASSICAL)
        if wire is not None:
            del self.live[wire]
            self.gates.append(CTerm(wire, self.rng.random() < 0.5))

    def _discard(self) -> None:
        wire = self.pick_live(QUANTUM)
        if wire is not None and len(self._quantum()) > 1:
            del self.live[wire]
            self.gates.append(Discard(wire))

    def _cdiscard(self) -> None:
        wire = self.pick_live(CLASSICAL)
        if wire is not None:
            del self.live[wire]
            self.gates.append(CDiscard(wire))

    def _measure(self) -> None:
        wire = self.pick_live(QUANTUM)
        if wire is not None and len(self._quantum()) > 1:
            self.live[wire] = CLASSICAL
            self.gates.append(Measure(wire))

    def _cgate(self) -> None:
        a = self.pick_live(CLASSICAL)
        if a is None:
            return
        b = self.pick_live(CLASSICAL, {a})
        if b is None:
            name, inputs = "not", (a,)
        else:
            name, inputs = self.rng.choice(_CGATE_NAMES), (a, b)
        self.gates.append(
            CGate(name=name, target=self.fresh(CLASSICAL), inputs=inputs)
        )

    def _cnot(self) -> None:
        wire = self.pick_live(CLASSICAL)
        if wire is not None:
            self.gates.append(
                CNot(wire, controls=self.random_controls({wire}))
            )

    def _comment(self) -> None:
        labels = []
        for wire in self.rng.sample(
            list(self.live), k=min(2, len(self.live))
        ):
            labels.append((wire, self.live[wire], f"w{wire}"))
        self.gates.append(
            Comment(
                text=self.rng.choice(("checkpoint", "ENTER: phase 2", "")),
                labels=tuple(labels),
                inverted=self.rng.random() < 0.2,
            )
        )

    def _quantum(self) -> list[int]:
        return [w for w, t in self.live.items() if t == QUANTUM]


def random_bcircuit(seed: int, n_gates: int = 30) -> BCircuit:
    rng = random.Random(seed)
    sampler = _CircuitSampler(rng)
    inputs = []
    for _ in range(rng.randint(2, 4)):
        inputs.append((sampler.fresh(QUANTUM), QUANTUM))
    for _ in range(rng.randint(0, 2)):
        inputs.append((sampler.fresh(CLASSICAL), CLASSICAL))
    for _ in range(n_gates):
        sampler.step()
    outputs = tuple(sampler.live.items())
    bc = BCircuit(Circuit(tuple(inputs), sampler.gates, outputs))
    bc.check()  # the generator must respect wire discipline itself
    return bc


class TestRandomizedRoundTrip:
    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_identity(self, seed):
        bc = random_bcircuit(seed)
        assert loads(dumps(bc)) == bc

    def test_every_gate_constructor_is_covered(self):
        seen = set()
        for seed in range(25):
            for gate in random_bcircuit(seed).circuit.gates:
                seen.add(type(gate))
        expected = {
            NamedGate, Init, Term, Discard, CInit, CTerm, CDiscard,
            Measure, CGate, CNot, Comment,
        }
        assert expected <= seen  # BoxCall covered by the boxed tests

    def test_named_gate_variants_are_covered(self):
        named = [
            g
            for seed in range(25)
            for g in random_bcircuit(seed).circuit.gates
            if isinstance(g, NamedGate)
        ]
        assert any(g.inverted for g in named)
        assert any(g.param is not None for g in named)
        assert any(isinstance(g.param, float) for g in named)
        assert any(
            not c.positive for g in named for c in g.controls
        )
        assert any(
            c.wire_type == CLASSICAL for g in named for c in g.controls
        )

    def test_comment_label_containing_separator(self):
        bc = BCircuit(
            Circuit(
                inputs=((0, QUANTUM),),
                gates=[
                    Comment("note", labels=((0, QUANTUM, "first, second"),))
                ],
                outputs=((0, QUANTUM),),
            )
        )
        assert loads(dumps(bc)) == bc

    def test_plain_printer_output_also_parses(self, tmp_path):
        # Text without Shape: lines (print_generic capture) still loads.
        bc = random_bcircuit(3)
        parsed = loads(format_bcircuit(bc))
        assert parsed.circuit == bc.circuit


class TestBoxedRoundTrip:
    @staticmethod
    def _boxed_circuit() -> BCircuit:
        def inner(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return a, b

        def outer(qc, a, b, c):
            qc.box("bell", inner, a, b)
            qc.box("bell", inner, b, c)
            with qc.controls(a):
                qc.box("bell", inner, b, c)
            qc.reverse_endo(inner, a, b)
            return a, b, c

        return build(outer, qubit, qubit, qubit)[0]

    def test_namespace_survives_without_inlining(self):
        bc = self._boxed_circuit()
        parsed = loads(dumps(bc))
        assert parsed == bc
        assert set(parsed.namespace) == set(bc.namespace)
        assert any(
            isinstance(g, BoxCall) for g in parsed.circuit.gates
        )

    def test_inverted_and_controlled_calls_round_trip(self):
        from repro import reverse_bcircuit

        bc = reverse_bcircuit(self._boxed_circuit())
        parsed = loads(dumps(bc))
        assert parsed == bc
        calls = [
            g for g in parsed.circuit.gates if isinstance(g, BoxCall)
        ]
        assert any(g.inverted for g in calls)
        assert any(g.controls for g in calls)

    def test_repeated_box_round_trips(self):
        def step(qc, a, b):
            qc.qnot(b, controls=a)
            qc.hadamard(a)
            return a, b

        def outer(qc, a, b):
            qc.box("step", step, a, b, repetitions=5)
            return a, b

        bc = build(outer, qubit, qubit)[0]
        parsed = loads(dumps(bc))
        assert parsed == bc
        call = next(
            g for g in parsed.circuit.gates if isinstance(g, BoxCall)
        )
        assert call.repetitions == 5

    def test_golden_file(self, tmp_path):
        bc = self._boxed_circuit()
        golden = GOLDEN_DIR / "boxed_bell.quip"
        assert dumps(bc) == golden.read_text()
        assert load(golden) == bc

    def test_dump_load_files(self, tmp_path):
        from repro.io import dump

        bc = self._boxed_circuit()
        path = tmp_path / "circuit.quip"
        dump(bc, path)
        assert load(path) == bc


class TestShapeCodec:
    @pytest.mark.parametrize(
        "shape",
        [
            None,
            (),
            [],
            {},
            {"a": None, "b": ()},
            (None, [None, (None,)]),
            3,
            True,
            "label",
            {"k": 2.5},
        ],
    )
    def test_round_trip(self, shape):
        assert decode_shape(encode_shape(shape)) == shape

    def test_wire_shapes(self):
        from repro.core.wires import Bit, Qubit

        text = encode_shape((Qubit(3), Bit(4)))
        q, b = decode_shape(text)
        assert isinstance(q, Qubit) and q.wire_id == 3
        assert isinstance(b, Bit) and b.wire_id == 4


class TestParserErrors:
    def test_rejects_garbage_gate_line(self):
        with pytest.raises(AsciiParseError):
            loads("Inputs: 0:Qubit\nFrobnicate(0)\nOutputs: 0:Qubit")

    def test_rejects_undefined_subroutine(self):
        text = (
            "Inputs: 0:Qubit\n"
            'Subroutine["ghost"](0) -> (0)\n'
            "Outputs: 0:Qubit"
        )
        with pytest.raises(AsciiParseError):
            loads(text)

    def test_rejects_gate_before_inputs(self):
        with pytest.raises(AsciiParseError):
            loads('QGate["H"](0)\nInputs: 0:Qubit\nOutputs: 0:Qubit')

    def test_check_catches_malformed_hierarchy(self):
        # A dead-wire reference parses syntactically but fails validation.
        text = (
            "Inputs: 0:Qubit\n"
            'QGate["H"](5)\n'
            "Outputs: 0:Qubit"
        )
        with pytest.raises(QuipperError):
            loads(text)

    @pytest.mark.parametrize("text, offending", [
        ('Inputs: none\nQInit0(0)\nQGate["H"](>)\nOutputs: 0:Qubit\n',
         "'>'"),
        ("Inputs: x:Qubit\nOutputs: x:Qubit\n", "'x'"),
        ("Shape: q -> q0\nInputs: 0:Qubit\nOutputs: 0:Qubit\n",
         "'q -> q0'"),
    ], ids=["wire-list", "endpoint", "shape"])
    def test_malformed_wire_numbers_are_parse_errors(self, text, offending):
        """A wire that is not a number names the offending text instead
        of escaping as a bare ``ValueError`` from ``int()``."""
        with pytest.raises(AsciiParseError, match=re.escape(offending)):
            loads(text)


def _nested(depth: int, leaf: str = "q0") -> str:
    """A shape component inside *depth* brackets: tuples, lists and
    dicts in turn."""
    opens, closes = ("(", "[", "{'k':"), (")", "]", "}")
    return ("".join(opens[i % 3] for i in range(depth)) + leaf
            + "".join(closes[i % 3] for i in reversed(range(depth))))


class TestDeepShapes:
    """The shape reader refuses nesting past ``MAX_SHAPE_DEPTH``, and
    every shape it accepts survives the recursive walks it meets later."""

    def test_deepest_accepted_shape_passes_the_qdata_walks(self):
        from repro.core.qdata import (qdata_leaves, qdata_rebuild,
                                      shape_signature)
        from repro.core.wires import Qubit

        text = _nested(MAX_SHAPE_DEPTH)
        shape = decode_shape(text)
        leaves = qdata_leaves(shape)
        assert leaves == [Qubit(0)]
        assert qdata_rebuild(shape, leaves) == shape
        assert shape_signature(shape).count("[") == MAX_SHAPE_DEPTH // 3
        assert encode_shape(shape) == text
        bc = TestBoxedRoundTrip._boxed_circuit()
        lines = dumps(bc).splitlines()
        shape_line = next(i for i, line in enumerate(lines)
                          if line.startswith("Shape: "))
        lines[shape_line] = f"Shape: {text} -> {text}"
        deep = loads("\n".join(lines) + "\n")
        assert dumps(deep).splitlines()[shape_line] == lines[shape_line]

    @pytest.mark.parametrize("component", [
        _nested(MAX_SHAPE_DEPTH + 1), _nested(900), _nested(5000),
        "(" * 5000 + "q0" + ")" * 5000, "!" * 5000 + "q0",
    ], ids=["one-past", "900", "5000", "5000-tuples", "5000-markers"])
    def test_deeper_shapes_are_parse_errors(self, component):
        text = (f"Shape: {component} -> q0\n"
                "Inputs: 0:Qubit\nOutputs: 0:Qubit\n")
        start = time.perf_counter()
        with pytest.raises(AsciiParseError,
                           match=f"deeper than {MAX_SHAPE_DEPTH} levels"):
            loads(text)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(AsciiParseError):
            decode_shape(component)


#: Characters a corruption substitutes: wire-number syntax, punctuation
#: and the letters of the keywords.
_FUZZ_ALPHABET = "0123456789:,()[]<>-+*\"' \nqcQubitBitnone?!{}x"


def _corruptions(text: str, rnd: random.Random, count: int):
    """*count* seeded corruptions of *text*: one character substituted,
    1-29 characters deleted, the text truncated, or a line duplicated."""
    lines = text.splitlines(keepends=True)
    for index in range(count):
        kind = index % 4
        pos = rnd.randrange(len(text))
        if kind == 0:
            yield text[:pos] + rnd.choice(_FUZZ_ALPHABET) + text[pos + 1:]
        elif kind == 1:
            yield text[:pos] + text[pos + rnd.randint(1, 29):]
        elif kind == 2:
            yield text[:pos]
        else:
            line = rnd.randrange(len(lines))
            yield "".join(lines[:line + 1] + lines[line:])


class TestParserFuzz:
    """Seeded corruptions of the dumps of binary-lowered programs: each
    one parses or raises a :class:`QuipperError`, and none is slow."""

    @pytest.mark.parametrize(
        "entry", ["bwt-n2", "cl-w3", "gse-p2", "tf-mul-l2", "qls-p1"]
    )
    def test_corrupted_dumps_raise_quipper_errors(self, entry):
        text = dumps(COMPILE[entry]().transform("binary").bcircuit)
        rnd = random.Random(f"ascii-fuzz/{entry}")
        escaped, slowest = [], 0.0
        for case in _corruptions(text, rnd, 300):
            start = time.perf_counter()
            try:
                loads(case)
            except QuipperError:
                pass
            except Exception as exc:  # noqa: BLE001 - what the test finds
                escaped.append(f"{type(exc).__name__}: {exc}")
            slowest = max(slowest, time.perf_counter() - start)
        assert not escaped, escaped[:5]
        assert slowest < 5.0


class TestQasmExport:
    def test_bell_pair(self):
        from repro.io import bcircuit_to_qasm

        def bell(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return a, b

        qasm = bcircuit_to_qasm(build(bell, qubit, qubit)[0])
        assert qasm.startswith("OPENQASM 2.0;")
        assert 'include "qelib1.inc";' in qasm
        assert "qreg q[2];" in qasm
        assert "h q[0];" in qasm
        assert "cx q[0], q[1];" in qasm

    def test_measure_and_classical_control(self):
        from repro.io import bcircuit_to_qasm

        def circ(qc, a, b):
            qc.hadamard(a)
            bit = qc.measure(a)
            qc.qnot(b, controls=bit)
            return bit, b

        qasm = bcircuit_to_qasm(build(circ, qubit, qubit)[0])
        assert "creg c0[1];" in qasm
        assert "measure q[0] -> c0[0];" in qasm
        assert "if (c0 == 1) x q[1];" in qasm

    def test_negative_control_conjugation(self):
        from repro import neg
        from repro.io import bcircuit_to_qasm

        def circ(qc, a, b):
            qc.qnot(b, controls=neg(a))
            return a, b

        qasm = bcircuit_to_qasm(build(circ, qubit, qubit)[0])
        # The negative control is conjugated: x, cx, x on the control.
        lines = [l for l in qasm.splitlines() if l and not l.startswith(("OPENQASM", "include", "qreg"))]
        assert lines == ["x q[0];", "cx q[0], q[1];", "x q[0];"]

    def test_boxed_circuits_are_inlined(self):
        from repro.io import bcircuit_to_qasm

        def inner(qc, a):
            qc.hadamard(a)
            return a

        def outer(qc, a):
            qc.box("sub", inner, a)
            return a

        qasm = bcircuit_to_qasm(build(outer, qubit)[0])
        assert "h q[0];" in qasm

    def test_classical_logic_is_rejected(self):
        from repro.core.circuit import BCircuit, Circuit
        from repro.io import QasmExportError, bcircuit_to_qasm

        bc = BCircuit(
            Circuit(
                inputs=(),
                gates=[
                    CInit(0, False),
                    CInit(1, False),
                    CGate("and", 2, (0, 1)),
                ],
                outputs=((0, CLASSICAL), (1, CLASSICAL), (2, CLASSICAL)),
            )
        )
        with pytest.raises(QasmExportError):
            bcircuit_to_qasm(bc)

    def test_refused_exports_leave_no_spool_file_open(self, monkeypatch):
        import io
        import tempfile

        from repro.core.stream import replay_bcircuit
        from repro.io import QasmExportError, QasmStreamWriter

        opened = []
        real = tempfile.TemporaryFile

        def spy(*args, **kwargs):
            opened.append(real(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", spy)
        classical_input = BCircuit(Circuit(
            inputs=((0, CLASSICAL),), outputs=((0, CLASSICAL),)
        ))
        with pytest.raises(QasmExportError, match="classical input"):
            replay_bcircuit(classical_input, QasmStreamWriter(io.StringIO()))
        assert opened == []

        classical_logic = BCircuit(Circuit(
            gates=[CInit(0, False), CInit(1, False), CGate("and", 2, (0, 1))],
            outputs=((0, CLASSICAL), (1, CLASSICAL), (2, CLASSICAL)),
        ))
        with pytest.raises(QasmExportError):
            replay_bcircuit(classical_logic, QasmStreamWriter(io.StringIO()))
        assert len(opened) == 1 and opened[0].closed

    def test_rotation_angles(self):
        from repro.io import bcircuit_to_qasm

        def circ(qc, a):
            qc.expZt(0.25, a)
            return a

        # exp(-i t Z) is rz(2t) up to global phase.
        qasm = bcircuit_to_qasm(build(circ, qubit)[0])
        assert "rz(0.5) q[0];" in qasm

    def test_inverted_rotation_negates_angle(self):
        from repro.io import bcircuit_to_qasm

        # inverted=True rotations arise from direct construction or from
        # parsing text like QGate["Rz(0.5)*"] -- the dagger must export
        # with the negated angle, not silently drop the star.
        bc = BCircuit(
            Circuit(
                inputs=((0, QUANTUM), (1, QUANTUM)),
                gates=[
                    NamedGate("Rz", targets=(0,), inverted=True, param=0.5),
                    NamedGate("exp(-i%Z)", targets=(0,), inverted=True,
                              param=0.25),
                    NamedGate("exp(-i%ZZ)", targets=(0, 1), inverted=True,
                              param=0.25),
                ],
                outputs=((0, QUANTUM), (1, QUANTUM)),
            )
        )
        qasm = bcircuit_to_qasm(bc)
        assert "rz(-0.5) q[0];" in qasm
        assert "rz(-0.5) q[1];" in qasm  # the ZZ conjugation's core
        assert qasm.count("rz(-0.5)") == 3  # Rz*, exp(-i%Z)*, exp(-i%ZZ)*


class TestWidthMemoization:
    """Satellite: stale Subroutine._width cannot survive namespace edits."""

    @staticmethod
    def _boxed() -> BCircuit:
        def inner(qc, a):
            qc.hadamard(a)
            return a

        def outer(qc, a):
            qc.box("sub", inner, a)
            return a

        return build(outer, qubit)[0]

    def test_check_reflects_in_place_body_mutation(self):
        bc = self._boxed()
        assert bc.check() == 1  # memoizes the subroutine width

        # Widen the subroutine body in place (ancilla init/term pair).
        sub_circuit = bc.namespace["sub"].circuit
        wire = max(w for w, _ in sub_circuit.inputs) + 100
        sub_circuit.gates.insert(0, Init(wire, False))
        sub_circuit.gates.append(Term(wire, False))

        # Without invalidation the stale cached width (1) would leak.
        assert bc.check() == 2

    def test_width_cache_not_part_of_equality(self):
        bc1 = self._boxed()
        bc2 = self._boxed()
        bc1.check()  # memoizes widths in bc1 only
        assert bc1.namespace["sub"] == bc2.namespace["sub"]

    def test_checks_leave_no_memo_for_the_cycle_collector(self):
        # Each check's width memo is freed by reference counting alone:
        # its fact is handed the memo, not a closure over it.
        import gc

        from families import ESTIMATE_CATALOGUE, SIMULATE
        from repro.core.circuit import SubroutineMemo

        def memos():
            return sum(isinstance(o, SubroutineMemo) for o in gc.get_objects())

        make, base = ESTIMATE_CATALOGUE["bwt-n4"]
        lowered = make().transform(base).bcircuit
        program = SIMULATE["cl-w4"]()
        program.run(shots=16, seed=0)
        gc.collect()
        gc.disable()
        try:
            before = memos()
            for _ in range(5):
                assert lowered.check() > 0
            for seed in range(3):
                program.run(shots=16, seed=seed)
            assert memos() == before
        finally:
            gc.enable()


class TestGoldenQasm:
    """Pin the exact QASM text for every algorithm family.

    The fixtures under ``golden/qasm`` freeze the dialect: column
    allocation order, dialect comments, angle formatting, opaque
    declarations.  Any exporter change that rewrites them must be
    deliberate (regenerate via
    ``tests/test_qasm_roundtrip.ALGORITHMS``).
    """

    @pytest.mark.parametrize(
        "name", ["bf", "bwt", "cl", "gse", "qls", "tf", "usv"]
    )
    def test_algorithm_qasm_matches_golden(self, name):
        from test_qasm_roundtrip import ALGORITHMS

        golden = (GOLDEN_DIR / "qasm" / f"{name}.qasm").read_text()
        text = ALGORITHMS[name]().transform("binary").qasm()
        assert text == golden

    @pytest.mark.parametrize(
        "name", ["bf", "bwt", "cl", "gse", "qls", "tf", "usv"]
    )
    def test_golden_qasm_reimports(self, name):
        from repro.program import Program

        text = (GOLDEN_DIR / "qasm" / f"{name}.qasm").read_text()
        assert Program.loads_qasm(text).qasm() == text
