"""Tests for the fluent Program pipeline API (repro.program).

One definition, every consumer: these tests pin the laziness/caching
contract, the parity of every Program method with its legacy free
function, the pipeline stages (transform/inverse/inline/controlled), and
the @subroutine/@main declarative decorators.
"""

from __future__ import annotations

import io

import pytest

from repro import (
    BINARY,
    TOFFOLI,
    Program,
    aggregate_gate_count,
    build,
    decompose_generic,
    main,
    qubit,
    run_generic,
    subroutine,
)
from repro.core.gates import BoxCall
from repro.output import format_bcircuit, format_gatecount, print_generic
from repro.output.gatecount import gatecount_generic
from repro.sim.state import simulate
from repro.transform import circuit_depth, reverse_bcircuit, total_gates
from repro.io import dumps


def mycirc(qc, a, b):
    qc.hadamard(a)
    qc.hadamard(b)
    qc.controlled_not(a, b)
    return a, b


def bell_fn(qc, a, b):
    qc.hadamard(a)
    qc.qnot(b, controls=a)
    return qc.measure((a, b))


class TestCaptureAndCaching:
    def test_lazy_until_first_consumer(self):
        calls = []

        def fn(qc, a):
            calls.append(1)
            qc.hadamard(a)
            return a

        prog = Program.capture(fn, qubit)
        assert calls == []  # nothing generated yet
        prog.count()
        prog.ascii()
        prog.depth()
        prog.run(shots=4, seed=0)
        assert calls == [1]  # generated exactly once, then cached

    def test_matches_build(self):
        prog = Program.capture(mycirc, qubit, qubit)
        bc, _ = build(mycirc, qubit, qubit)
        assert prog.bcircuit == bc

    def test_capture_of_program_is_idempotent(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert Program.capture(prog) is prog

    def test_from_bcircuit(self):
        bc, outs = build(mycirc, qubit, qubit)
        prog = Program.from_bcircuit(bc, outs, name="wrapped")
        assert prog.bcircuit is bc
        assert prog.outputs is outs

    def test_repr_shows_lifecycle(self):
        prog = Program.capture(mycirc, qubit, qubit, name="mycirc")
        assert "lazy" in repr(prog)
        prog.bcircuit
        assert "built" in repr(prog)


class TestConsumersMatchLegacyFunctions:
    def test_count(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.count() == gatecount_generic(mycirc, qubit, qubit)
        assert prog.total_gates() == total_gates(prog.count())

    def test_ascii_and_print(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.ascii() == format_bcircuit(prog.bcircuit)
        buffer = io.StringIO()
        returned = prog.print(file=buffer)
        assert buffer.getvalue().strip() == prog.ascii().strip()
        assert returned == prog.bcircuit

    def test_print_generic_shim_delegates(self, capsys):
        bc = print_generic(mycirc, qubit, qubit)
        out = capsys.readouterr().out
        assert out.strip() == format_bcircuit(bc).strip()

    def test_gatecount_report(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.gatecount() == format_gatecount(prog.bcircuit)

    def test_run_matches_run_generic(self):
        prog = Program.capture(bell_fn, qubit, qubit)
        fluent = prog.run(shots=256, seed=11)
        legacy = run_generic(bell_fn, qubit, qubit, shots=256, seed=11)
        assert fluent.counts == legacy.counts

    def test_depth_width_resources(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.depth() == circuit_depth(prog.bcircuit)
        assert prog.width() == prog.bcircuit.check()
        res = prog.resources()
        assert res["total_gates"] == prog.total_gates()

    def test_dumps_loads_qasm(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.dumps() == dumps(prog.bcircuit)
        assert Program.loads(prog.dumps()).bcircuit == prog.bcircuit
        assert prog.qasm().startswith("OPENQASM 2.0;")


class TestPipelineStages:
    def _three_controls(self):
        def fn(qc, a, b, c, d):
            qc.qnot(d, controls=(a, b, c))
            return a, b, c, d

        return Program.capture(fn, qubit, qubit, qubit, qubit)

    def test_transform_matches_decompose_generic(self):
        prog = self._three_controls()
        fused = prog.transform(TOFFOLI)
        legacy = decompose_generic(TOFFOLI, prog.bcircuit)
        assert fused.count() == aggregate_gate_count(legacy)

    def test_transform_binary_chain(self):
        from test_pipeline import legacy_binary

        prog = self._three_controls()
        fused = prog.transform(BINARY)
        legacy = legacy_binary(prog.bcircuit)
        assert fused.count() == aggregate_gate_count(legacy)

    def test_transform_rejects_garbage(self):
        with pytest.raises(ValueError):
            self._three_controls().transform("clifford+t")

    def test_transform_does_not_mutate_parent(self):
        prog = self._three_controls()
        before = prog.count()
        prog.transform(BINARY).count()
        assert prog.count() == before

    def test_inverse(self):
        prog = Program.capture(mycirc, qubit, qubit)
        assert prog.inverse().bcircuit == reverse_bcircuit(prog.bcircuit)

    def test_inline_flattens_boxes(self):
        @subroutine
        def body(qc, a):
            qc.gate_T(a)
            return a

        def fn(qc, a):
            body(qc, a)
            body(qc, a)
            return a

        prog = Program.capture(fn, qubit)
        assert prog.bcircuit.namespace  # boxed
        flat = prog.inline()
        assert not flat.bcircuit.namespace
        assert flat.count() == prog.count()

    def test_controlled_gates_fire_only_when_control_set(self):
        def fn(qc, a):
            qc.qnot(a)
            return a

        prog = Program.capture(fn, qubit).controlled()
        bc = prog.bcircuit
        assert bc.circuit.in_arity == 2
        target = bc.circuit.inputs[0][0]
        control = bc.circuit.inputs[1][0]
        for ctl_value in (False, True):
            state = simulate(bc, {target: False, control: ctl_value})
            probs = state.basis_probabilities([target])
            assert probs[(int(ctl_value),)] == pytest.approx(1.0)

    def test_controlled_validates_and_reports_outputs(self):
        prog = Program.capture(mycirc, qubit, qubit).controlled(2)
        assert prog.width() == 4
        _, controls = prog.outputs
        assert len(controls) == 2
        with pytest.raises(ValueError):
            Program.capture(mycirc, qubit, qubit).controlled(0)

    def test_stage_names_compose(self):
        prog = Program.capture(mycirc, qubit, qubit, name="mycirc")
        derived = prog.transform(TOFFOLI).inverse()
        assert "mycirc" in derived.name
        assert "inverse" in derived.name


class TestDecorators:
    def test_subroutine_emits_boxcall(self):
        @subroutine
        def adder(qc, a, b):
            qc.qnot(b, controls=a)
            return a, b

        def fn(qc, a, b):
            adder(qc, a, b)
            adder(qc, a, b)
            return a, b

        bc, _ = build(fn, qubit, qubit)
        calls = [g for g in bc.circuit.gates if isinstance(g, BoxCall)]
        assert len(calls) == 2
        assert {c.name for c in calls} == {"adder"}
        assert list(bc.namespace) == ["adder"]

    def test_subroutine_custom_name(self):
        @subroutine(name="my_box")
        def f(qc, a):
            qc.hadamard(a)
            return a

        bc, _ = build(lambda qc, a: f(qc, a), qubit)
        assert list(bc.namespace) == ["my_box"]

    def test_main_decorator_yields_program(self):
        @main(qubit, qubit)
        def bell(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return qc.measure((a, b))

        assert isinstance(bell, Program)
        counts = bell.run(shots=128, seed=5).counts
        assert set(counts) <= {"00", "11"}

    def test_main_program_is_callable_inline(self):
        @main(qubit)
        def prep(qc, a):
            qc.hadamard(a)
            return a

        def outer(qc, a, b):
            prep(qc, a)
            prep(qc, b)
            return a, b

        bc, _ = build(outer, qubit, qubit)
        assert len(bc.circuit.gates) == 2  # inlined H gates

    def test_bcircuit_backed_program_not_callable(self):
        prog = Program.from_bcircuit(build(mycirc, qubit, qubit)[0])
        with pytest.raises(TypeError):
            prog(None)
