"""The per-hierarchy summary: one walk, kept until the hierarchy changes.

``count()``, ``width()``, ``depth()``, ``t_depth()`` and ``resources()``
of a stored hierarchy read :func:`repro.transform.summary.summarize`,
which keeps its result in the hierarchy's memo next to the compiled
stream, behind one staleness guard.  These tests edit hierarchies after
a query and demand what a fresh copy answers, count the walks, and check
the walk's shortcuts against plain per-gate references.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro import Program, build, qubit
from repro.core.circuit import BCircuit, Circuit, Subroutine, track_gate
from repro.core.errors import QuipperError
from repro.core.gates import (BoxCall, Comment, Control, Init, NamedGate,
                              Term)
from repro.transform.count import count_circuit_flat
from repro.transform.inline import _max_wire_id, compile_flat, inline
from repro.transform.summary import StreamingSummary, summarize

from families import ESTIMATE_CATALOGUE
from strategies import random_gates


def _boxed() -> BCircuit:
    """``main`` calls ``sub`` twice and measures; ``sub`` is a T and an H."""
    def sub(qc, a):
        qc.gate_T(a)
        qc.hadamard(a)
        return a

    def main(qc, a, b):
        qc.box("sub", sub, a)
        qc.qnot(b, controls=a)
        qc.box("sub", sub, b)
        return qc.measure(a), b

    return build(main, qubit, qubit)[0]


def _fresh(bc: BCircuit) -> BCircuit:
    """A structurally equal hierarchy that shares no list and no memo."""
    def copy(circuit: Circuit) -> Circuit:
        return Circuit(tuple(circuit.inputs), list(circuit.gates),
                       tuple(circuit.outputs))

    return BCircuit(copy(bc.circuit), {
        name: dataclasses.replace(sub, circuit=copy(sub.circuit))
        for name, sub in bc.namespace.items()
    })


def _answers(bc: BCircuit) -> list:
    """Every summary query of *bc*, or the error each one raises."""
    program = Program.from_bcircuit(bc)
    answers = []
    for query in (lambda: list(program.count().items()), program.width,
                  program.depth, program.t_depth, program.resources,
                  lambda: compile_flat(bc).gates):
        try:
            answers.append(query())
        except QuipperError as exc:
            answers.append((type(exc).__name__, str(exc)))
    return answers


def _edit_main_gates(bc):
    bc.circuit.gates.insert(0, NamedGate("T", (bc.circuit.inputs[0][0],)))


def _edit_body_gates(bc):
    body = bc.namespace["sub"].circuit
    wire = body.inputs[0][0] + 100
    body.gates.insert(0, Init(wire, False))
    body.gates.append(Term(wire, False))


def _reassign_outputs(bc):
    # What tests/test_bwt.py does, without dropping the measurement: the
    # measured wire is now declared a qubit, so the circuit is ill-formed.
    bc.circuit.outputs = tuple((w, "Q") for w, _ in bc.circuit.outputs)


def _drop_measures_and_reassign_outputs(bc):
    bc.circuit.gates = [g for g in bc.circuit.gates
                        if type(g).__name__ != "Measure"]
    bc.circuit.outputs = tuple((w, "Q") for w, _ in bc.circuit.outputs)


def _replace_namespace_entry(bc):
    sub = bc.namespace["sub"]
    gates = [g for g in sub.circuit.gates if g.name != "T"]
    bc.namespace["sub"] = dataclasses.replace(
        sub, circuit=dataclasses.replace(sub.circuit, gates=gates)
    )


EDITS = (_edit_main_gates, _edit_body_gates, _reassign_outputs,
         _drop_measures_and_reassign_outputs, _replace_namespace_entry)


class TestStaleness:
    @pytest.mark.parametrize("edit", EDITS, ids=lambda e: e.__name__)
    def test_edit_after_a_query_answers_as_a_fresh_copy(self, edit):
        bc = _boxed()
        before = _answers(bc)
        edit(bc)
        after = _answers(bc)
        assert after == _answers(_fresh(bc))
        assert after != before

    def test_returned_counter_is_the_callers(self):
        program = Program.from_bcircuit(_boxed())
        counts = program.count()
        expected = Counter(counts)
        counts[("T", 0, 0)] += 1000
        counts[("bogus", 0, 0)] = 1
        assert program.count() == expected
        assert program.resources()["gate_counts"] == dict(expected)

    def test_equal_hierarchies_keep_separate_memos(self):
        first, second = _boxed(), _boxed()
        assert first == second
        summarize(first)
        assert first.memo() is not second.memo()
        assert second.memo() == {}
        # An edit of one leaves the other's answers alone.
        answers = _answers(first)
        _edit_body_gates(second)
        assert _answers(first) == answers
        assert _answers(second) != answers

    def test_compiled_stream_and_summary_share_the_guard(self):
        bc = _boxed()
        compiled = compile_flat(bc)
        summary = summarize(bc)
        assert compile_flat(bc) is compiled and summarize(bc) is summary
        _edit_main_gates(bc)
        assert compile_flat(bc) is not compiled
        assert summarize(bc) is not summary


class _WalkCounter:
    """Counts summary walks: main circuits and each body, by name."""

    def __init__(self, monkeypatch):
        self.mains = 0
        self.bodies: Counter = Counter()
        self.checks = 0
        begin, body = StreamingSummary.begin, StreamingSummary._body
        check = Circuit._check

        def counting_begin(walk, inputs, namespace):
            self.mains += 1
            begin(walk, inputs, namespace)

        def counting_body(walk, sub):
            self.bodies[sub.name] += 1
            return body(walk, sub)

        def counting_check(circuit, widths):
            self.checks += 1
            return check(circuit, widths)

        monkeypatch.setattr(StreamingSummary, "begin", counting_begin)
        monkeypatch.setattr(StreamingSummary, "_body", counting_body)
        monkeypatch.setattr(Circuit, "_check", counting_check)


class TestOneWalk:
    @pytest.mark.parametrize("entry", list(ESTIMATE_CATALOGUE))
    def test_count_width_depth_walk_each_body_once(self, entry, monkeypatch):
        make, base = ESTIMATE_CATALOGUE[entry]
        lowered = make().transform(base)
        bc = lowered.bcircuit
        walks = _WalkCounter(monkeypatch)
        lowered.count()
        lowered.width()
        lowered.depth()
        assert walks.mains == 1
        assert walks.bodies == Counter(dict.fromkeys(bc.namespace, 1))
        assert walks.checks == 0

    def test_walk_is_freed_without_the_cycle_collector(self, monkeypatch):
        import gc
        import weakref

        walks = []
        begin = StreamingSummary.begin

        def recording_begin(walk, inputs, namespace):
            walks.append(weakref.ref(walk))
            begin(walk, inputs, namespace)

        monkeypatch.setattr(StreamingSummary, "begin", recording_begin)
        gc.disable()
        try:
            program = Program.from_bcircuit(_boxed())
            program.count()
            program.stream().resources()
            assert len(walks) == 3
            assert all(ref() is None for ref in walks)
        finally:
            gc.enable()

    def test_t_depth_is_one_more_walk_and_resources_none(self, monkeypatch):
        program = Program.from_bcircuit(_boxed())
        walks = _WalkCounter(monkeypatch)
        program.count()
        program.t_depth()
        program.resources()
        program.gatecount(per_subroutine=True)
        assert walks.mains == 2
        assert walks.bodies == Counter({"sub": 2})
        assert walks.checks == 0


def _flat_depth(circuit: Circuit, t_only: bool) -> int:
    """The critical path of a box-free circuit, gate by gate."""
    frontier = dict.fromkeys((w for w, _ in circuit.inputs), 0)
    depth = 0
    for gate in circuit.gates:
        if isinstance(gate, Comment):
            continue
        wires = [w for w, _ in gate.wires_in() + gate.wires_out()]
        if t_only:
            steps = isinstance(gate, NamedGate) and gate.name == "T"
        else:
            steps = 1
        finish = max((frontier.get(w, 0) for w in wires), default=0) + steps
        frontier.update(dict.fromkeys(wires, finish))
        depth = max(depth, finish)
    return depth


def _flat_case(seed: int, measured: bool = True) -> Circuit:
    """Seeded gates over the whole extended model: negative, classical
    and multiple controls, ancillas, bits and, if *measured*, mid-circuit
    measurements and discards."""
    rnd = random.Random(f"summary/{seed}")
    n = rnd.randint(2, 5)
    gates = random_gates(rnd, n, steps=rnd.randint(5, 40),
                         ancilla_p=0.1 if measured else 0.2,
                         cinit_p=0.05 if measured else 0.1, fresh_p=0.05,
                         max_controls=3)
    inputs = tuple((w, "Q") for w in range(n))
    live = dict(inputs)
    for gate in gates:
        track_gate(live, gate, {})
    return Circuit(inputs, gates, tuple(live.items()))


class TestAgainstFlat:
    """The walk's shortcuts -- named-gate shapes, one- and two-wire
    frontiers, ``Init``/``Term`` -- against plain per-gate references."""

    def test_flat_cases_measure(self):
        kinds = {type(g).__name__ for seed in range(60)
                 for g in _flat_case(seed).gates}
        assert {"Measure", "Discard", "CInit", "Init", "Term"} <= kinds

    @pytest.mark.parametrize("seed", range(60))
    def test_flat_circuit(self, seed):
        circuit = _flat_case(seed)
        bc = BCircuit(circuit)
        summary = summarize(bc)
        assert list(summary.counts.items()) == list(
            count_circuit_flat(circuit).items())
        assert summary.width == circuit.check()
        assert summary.depth == _flat_depth(circuit, t_only=False)
        assert summarize(bc, t_only=True).depth == _flat_depth(
            circuit, t_only=True)

    @pytest.mark.parametrize("seed", range(60))
    def test_controlled_call_of_it(self, seed):
        """The same gates, unmeasured (controls cannot pass over a
        measurement), as a body called under a positive and a negative
        control count like their inlining."""
        circuit = _flat_case(seed, measured=False)
        top = _max_wire_id(circuit) + 1
        controls = (Control(top, True), Control(top + 1, False))
        call = BoxCall("body", circuit.inputs, circuit.outputs, controls)
        wires = circuit.inputs + ((top, "Q"), (top + 1, "Q"))
        outputs = circuit.outputs + ((top, "Q"), (top + 1, "Q"))
        bc = BCircuit(Circuit(wires, [call], outputs),
                      {"body": Subroutine("body", circuit)})
        assert Program.from_bcircuit(bc).count() == count_circuit_flat(
            inline(bc).circuit)
        assert Program.from_bcircuit(bc).width() == bc.check()
