"""Tests for counting, inlining, reversal, and decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BINARY,
    TOFFOLI,
    aggregate_gate_count,
    build,
    decompose_generic,
    inline,
    neg,
    qubit,
    reverse_bcircuit,
    total_gates,
    total_logical_gates,
)
from repro.core.errors import BoxError
from repro.core.gates import BoxCall, NamedGate
from repro.sim.state import simulate
from repro.transform.count import count_circuit_flat
from repro.transform.inline import (_SharedWires, _expand, _max_wire_id,
                                    iter_flat_gates)
from families import COMPILE, SIMULATE, SIMULATE_WIDE
from test_depth import _random_controlled_hierarchy, _random_hierarchy
from test_io import random_bcircuit


def _random_circuit_fn(seed, n_qubits=4, n_gates=12, with_box=False):
    rng = np.random.default_rng(seed)

    def circ(qc, *qs):
        def emit(qc2, qs2):
            for _ in range(n_gates):
                kind = rng.integers(5)
                target = int(rng.integers(len(qs2)))
                other = int(rng.integers(len(qs2)))
                if kind == 0:
                    qc2.hadamard(qs2[target])
                elif kind == 1:
                    qc2.gate_T(qs2[target])
                elif kind == 2 and other != target:
                    qc2.qnot(qs2[target], controls=qs2[other])
                elif kind == 3 and other != target:
                    qc2.qnot(qs2[target], controls=neg(qs2[other]))
                elif kind == 4:
                    third = int(rng.integers(len(qs2)))
                    ctl = [
                        q for i, q in enumerate(qs2)
                        if i in {other, third} and i != target
                    ]
                    if ctl:
                        qc2.qnot(qs2[target], controls=ctl)
                    else:
                        qc2.gate_S(qs2[target])
            return qs2

        if with_box:
            return qc.box("body", emit, list(qs))
        return emit(qc, list(qs))

    return circ, n_qubits


class TestCounting:
    def test_aggregate_equals_flat_after_inline(self):
        for seed in range(5):
            fn, n = _random_circuit_fn(seed, with_box=True)
            bc, _ = build(fn, *([qubit] * n))
            flat = inline(bc)
            assert aggregate_gate_count(bc) == count_circuit_flat(
                flat.circuit
            )

    def test_repetition_multiplies(self):
        def body(qc, a):
            qc.hadamard(a)
            qc.gate_T(a)
            return a

        def circ(qc, a):
            return qc.nbox("r", 1000, body, a)

        bc, _ = build(circ, qubit)
        counts = aggregate_gate_count(bc)
        assert counts[("H", 0, 0)] == 1000
        assert counts[("T", 0, 0)] == 1000

    def test_trillion_scale_counting(self):
        def body(qc, a):
            qc.hadamard(a)
            return a

        def level2(qc, a):
            return qc.nbox("lvl1", 10 ** 7, body, a)

        def circ(qc, a):
            return qc.nbox("lvl2", 10 ** 7, level2, a)

        bc, _ = build(circ, qubit)
        counts = aggregate_gate_count(bc)
        assert counts[("H", 0, 0)] == 10 ** 14  # exact big-int arithmetic

    def test_inverted_box_counts(self):
        def body(qc, a):
            qc.gate_T(a)
            with qc.ancilla() as x:
                qc.qnot(x, controls=a)
                qc.qnot(x, controls=a)
            return a

        def circ(qc, a):
            qc.box("f", body, a)
            qc.reverse_endo(lambda q, x: q.box("f", body, x), a)
            return a

        bc, _ = build(circ, qubit)
        counts = aggregate_gate_count(bc)
        assert counts[("T", 0, 0)] == 1
        assert counts[("T*", 0, 0)] == 1
        assert counts[("Init0", 0, 0)] == 2
        assert counts[("Term0", 0, 0)] == 2

    def test_total_logical_excludes_init_term_meas(self):
        def circ(qc, a):
            with qc.ancilla() as x:
                qc.qnot(x, controls=a)
                qc.qnot(x, controls=a)
            qc.measure(a)
            return ()

        # The measured bit is deliberately left out of the returned outputs.
        bc, _ = build(circ, qubit, on_extra="ignore")
        counts = aggregate_gate_count(bc)
        assert total_gates(counts) == 5
        assert total_logical_gates(counts) == 2

    def test_mixed_sign_controls_key(self):
        def circ(qc, a, b, c):
            qc.qnot(a, controls=(b, neg(c)))
            return a, b, c

        bc, _ = build(circ, qubit, qubit, qubit)
        assert aggregate_gate_count(bc)[("Not", 1, 1)] == 1

    def test_cgate_keys_invert_round_trip(self):
        # Regression for the duplicated CGate branch in _invert_key: the
        # compute key must gain the dagger suffix and the uncompute key
        # must lose it, round-tripping exactly.
        from repro.transform.count import _invert_key

        for fn in ("and", "or", "xor", "not", "eq"):
            compute = (f"CGate:{fn}", 0, 0)
            uncompute = (f"CGate:{fn}*", 0, 0)
            assert _invert_key(compute) == uncompute
            assert _invert_key(uncompute) == compute
            assert _invert_key(_invert_key(compute)) == compute

    def test_inverted_box_cgate_counts(self):
        # An inverted BoxCall over a body with classical logic must count
        # the body's CGates as uncomputations and vice versa.
        def body(qc, b1, b2):
            carry = qc.cgate_and(b1, b2)
            out = qc.cgate_xor(b1, b2)
            return b1, b2, carry, out

        from repro import bit

        def circ(qc, b1, b2):
            b1, b2, carry, out = qc.box("half-add", body, b1, b2)
            return b1, b2, carry, out

        bc, _ = build(circ, bit, bit)
        counts = aggregate_gate_count(bc)
        assert counts[("CGate:and", 0, 0)] == 1
        assert counts[("CGate:xor", 0, 0)] == 1

        rev = reverse_bcircuit(bc)
        rev_counts = aggregate_gate_count(rev)
        assert rev_counts[("CGate:and*", 0, 0)] == 1
        assert rev_counts[("CGate:xor*", 0, 0)] == 1
        # Reversing again restores the original keys.
        back = aggregate_gate_count(reverse_bcircuit(rev))
        assert back == counts


class TestInline:
    def test_inline_removes_boxes(self):
        fn, n = _random_circuit_fn(3, with_box=True)
        bc, _ = build(fn, *([qubit] * n))
        flat = inline(bc)
        assert not flat.namespace
        assert not any(
            isinstance(g, BoxCall) for g in flat.circuit.gates
        )
        flat.check()

    def test_inline_repetition(self):
        def body(qc, a):
            qc.hadamard(a)
            return a

        def circ(qc, a):
            return qc.nbox("r", 4, body, a)

        bc, _ = build(circ, qubit)
        flat = inline(bc)
        assert len(flat.circuit.gates) == 4

    def test_inline_controlled_box(self):
        def body(qc, a):
            with qc.ancilla() as x:
                qc.qnot(x, controls=a)
                qc.qnot(x, controls=a)
            return a

        def circ(qc, a, c):
            with qc.controls(c):
                qc.box("f", body, a)
            return a, c

        bc, _ = build(circ, qubit, qubit)
        flat = inline(bc)
        named = [g for g in flat.circuit.gates if isinstance(g, NamedGate)]
        # controls distributed over the nots, not the init/term
        assert all(len(g.controls) == 2 for g in named)
        flat.check()

    def test_inline_preserves_semantics(self):
        fn, n = _random_circuit_fn(7, with_box=True)
        bc, _ = build(fn, *([qubit] * n))
        flat = inline(bc)
        state_a = simulate(bc, {0: True, 2: True})
        state_b = simulate(flat, {0: True, 2: True})
        wires = [w for w, _ in bc.circuit.outputs]
        probs_a = state_a.basis_probabilities(wires)
        probs_b = state_b.basis_probabilities(wires)
        for key in set(probs_a) | set(probs_b):
            assert probs_a.get(key, 0) == pytest.approx(
                probs_b.get(key, 0), abs=1e-9
            )


def _generator_flat_gates(bc):
    """The inliner as it was: one ``_expand`` generator per top-level
    gate, the fresh-wire supply built before the first gate."""
    source = _SharedWires(_max_wire_id(bc.circuit) + 1)
    for gate in bc.circuit.gates:
        yield from _expand(gate, (), bc.namespace, source)


class TestFlatGates:
    """``iter_flat_gates`` yields a top-level gate that is no ``BoxCall``
    as itself, and builds the fresh-wire supply at the first call: the
    same gates, in the same objects, as one generator per gate."""

    @staticmethod
    def _hierarchies():
        programs = {**SIMULATE, **SIMULATE_WIDE, **COMPILE}
        for name, make in programs.items():
            program = make(False) if name.startswith("teleport") else make()
            yield program.bcircuit
        for seed in range(30):
            yield _random_hierarchy(seed)
            yield _random_controlled_hierarchy(seed)

    def test_same_gates_as_one_generator_per_gate(self):
        calls = 0
        for bc in self._hierarchies():
            flat = list(iter_flat_gates(bc))
            assert flat == list(_generator_flat_gates(bc))
            calls += any(isinstance(g, BoxCall) for g in bc.circuit.gates)
            if not bc.namespace:
                assert all(a is b for a, b in zip(flat, bc.circuit.gates))
                assert len(flat) == len(bc.circuit.gates)
        assert calls >= 30

    def test_box_free_circuits_yield_their_own_gates(self):
        for seed in range(25):
            bc = random_bcircuit(seed)
            flat = list(iter_flat_gates(bc))
            assert len(flat) == len(bc.circuit.gates)
            assert all(a is b for a, b in zip(flat, bc.circuit.gates))

    def test_fresh_wires_above_the_whole_main_circuit(self):
        # A call after top-level gates, before a gate on a higher wire:
        # the call's ancilla is numbered above every wire of the main
        # circuit, the later one included.
        def body(qc, a):
            with qc.ancilla() as x:
                qc.qnot(x, controls=a)
                qc.qnot(x, controls=a)
            return a

        def circ(qc, a):
            qc.hadamard(a)
            qc.box("f", body, a)
            b = qc.qinit_qubit(False)
            qc.qnot(b, controls=a)
            qc.qterm(b, False)
            return a

        bc, _ = build(circ, qubit)
        highest = max(w for g in bc.circuit.gates for w, _ in g.wires_in()
                      + g.wires_out())
        flat = list(iter_flat_gates(bc))
        assert flat == list(_generator_flat_gates(bc))
        fresh = {w for g in flat for w, _ in g.wires_in() + g.wires_out()
                 if not any(w in {v for v, _ in h.wires_in() + h.wires_out()}
                            for h in bc.circuit.gates)}
        assert fresh and min(fresh) == highest + 1

    def test_undefined_subroutine_raises(self):
        bc, _ = build(lambda qc, a: qc.box("f", lambda qc2, b: b, a), qubit)
        bc.namespace.clear()
        with pytest.raises(BoxError, match="undefined subroutine 'f'"):
            list(iter_flat_gates(bc))


class TestReverse:
    def test_reverse_involution(self):
        fn, n = _random_circuit_fn(11)
        bc, _ = build(fn, *([qubit] * n))
        double = reverse_bcircuit(reverse_bcircuit(bc))
        assert double.circuit.gates == bc.circuit.gates

    def test_reverse_is_semantic_inverse(self):
        fn, n = _random_circuit_fn(13)
        bc, _ = build(fn, *([qubit] * n))
        rev = reverse_bcircuit(bc)
        combined = build.__self__ if False else None
        # run forward then reverse: must return to the input basis state
        state = simulate(bc, {1: True})
        for gate in rev.circuit.gates:
            state.execute(gate)
        wires = [w for w, _ in bc.circuit.inputs]
        probs = state.basis_probabilities(wires)
        expected = tuple(int(w == 1) for w in wires)
        assert probs[expected] == pytest.approx(1.0, abs=1e-9)


class TestDecompose:
    @staticmethod
    def _multi_control_circ(qc, a, b, c, d):
        qc.qnot(d, controls=(a, b, c))
        qc.hadamard(d, controls=(a, neg(b)))
        qc.named_gate("swap", a, b, controls=c)
        qc.gate_W(a, b, controls=d)
        return a, b, c, d

    def test_toffoli_base_property(self):
        bc, _ = build(self._multi_control_circ, *([qubit] * 4))
        toff = decompose_generic(TOFFOLI, bc)
        toff.check()
        for gate in toff.circuit.gates:
            if isinstance(gate, NamedGate):
                limit = 2 if gate.name in ("not", "X") else 1
                quantum = [c for c in gate.controls if c.wire_type == "Q"]
                assert len(quantum) <= limit, gate

    def test_binary_base_property(self):
        bc, _ = build(self._multi_control_circ, *([qubit] * 4))
        binary = decompose_generic(BINARY, bc)
        binary.check()
        for gate in binary.circuit.gates:
            if isinstance(gate, NamedGate):
                quantum = [c for c in gate.controls if c.wire_type == "Q"]
                assert len(gate.targets) + len(quantum) <= 2, gate

    @pytest.mark.parametrize("base", [TOFFOLI, BINARY])
    def test_decomposition_preserves_semantics(self, base):
        bc, _ = build(self._multi_control_circ, *([qubit] * 4))
        decomposed = decompose_generic(base, bc)
        for inputs in [
            {}, {0: True}, {0: True, 1: True},
            {0: True, 1: True, 2: True}, {3: True},
            {0: True, 1: True, 2: True, 3: True},
        ]:
            state_a = simulate(bc, inputs)
            state_b = simulate(decomposed, inputs)
            wires = [w for w, _ in bc.circuit.outputs]
            vec_a = _vector(state_a, wires)
            vec_b = _vector(state_b, wires)
            # equal up to global phase
            overlap = abs(np.vdot(vec_a, vec_b))
            assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_paper_timestep2_shape(self):
        """The V/V*/V Toffoli expansion of the paper's timestep2 figure."""

        def circ(qc, a, b, c):
            qc.qnot(c, controls=(a, b))
            return a, b, c

        bc, _ = build(circ, qubit, qubit, qubit)
        binary = decompose_generic(BINARY, bc)
        names = [
            g.display_name()
            for g in binary.circuit.gates
            if isinstance(g, NamedGate)
        ]
        assert names == ["V", "not", "V*", "not", "V"]


def _vector(state, wires):
    axes = [state.axes[w] for w in wires]
    arr = np.moveaxis(state.state, axes, range(len(axes)))
    return arr.reshape(-1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_count_scaling_property(reps):
    def body(qc, a):
        qc.hadamard(a)
        qc.hadamard(a)
        return a

    def circ(qc, a):
        if reps == 0:
            return a
        return qc.nbox("k", reps, body, a)

    bc, _ = build(circ, qubit)
    assert total_gates(aggregate_gate_count(bc)) == 2 * reps
