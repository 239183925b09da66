"""Randomized equivalence suite: flat kernel engine vs the legacy engine.

The flat in-place kernel engine (:mod:`repro.sim.kernels`) is pinned
against :class:`~repro.sim.state.LegacyStateVector` -- the original
moveaxis + reshape + matmul implementation, kept verbatim as the reference
-- over the full gate vocabulary: every ``_FIXED`` gate, every
parametrized gate at random angles, positive/negative/classical controls,
inverted forms, dynamic Init/Term, and mid-circuit Measure/Discard.
Final states must agree up to global phase; seeded sampling counts must
agree exactly.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import build, get_backend, qubit
from repro.core.gates import GATE_INFO, Control, Measure, NamedGate
from repro.core.wires import CLASSICAL, QUANTUM
from repro.sim.kernels import (
    DENSE,
    DIAGONAL,
    PERMUTE,
    PHASE,
    gate_kernel,
)
from repro.sim.matrices import gate_matrix, gate_matrix_cached
from repro.sim.state import LegacyStateVector, StateVector
from repro.transform.inline import compile_flat
from strategies import (
    PARAMETRIZED as _PARAMETRIZED,
    VOCABULARY as _VOCABULARY,
    random_gates,
    superpose as _superpose,
)


def _run_both(gates, n_qubits, seed=7, bits=()):
    """Execute *gates* on both engines from |0...0>; return the pair."""
    new = StateVector(rng=np.random.default_rng(seed))
    old = LegacyStateVector(rng=np.random.default_rng(seed))
    for sim in (new, old):
        for w in range(n_qubits):
            sim.add_qubit(w, False)
    for w, v in bits:
        new.set_bit(w, v)
        old.bits[w] = v
    for gate in gates:
        new.execute(gate)
        old.execute(gate)
    return new, old


def _assert_states_match(new, old):
    """Same axes, same bits, and same amplitudes up to global phase."""
    assert new.axes == old.axes
    assert new.bits == old.bits
    a = np.asarray(new.state).ravel()
    b = np.asarray(old.state).ravel()
    assert a.shape == b.shape
    anchor = int(np.argmax(np.abs(b)))
    assert abs(b[anchor]) > 1e-9
    phase = a[anchor] / b[anchor]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(a, phase * b, atol=1e-9)


class TestGateVocabulary:
    """Every vocabulary gate, in every form, against the legacy engine."""

    @pytest.mark.parametrize("name", _VOCABULARY)
    @pytest.mark.parametrize("inverted", [False, True])
    def test_plain_and_inverted(self, name, inverted):
        rnd = random.Random(hash((name, inverted)) & 0xFFFF)
        param = _PARAMETRIZED[name](rnd) if name in _PARAMETRIZED else None
        arity = gate_matrix_cached(name, param, inverted).shape[0].bit_length() - 1
        targets = tuple(range(arity))
        gate = NamedGate(name, targets, inverted=inverted, param=param)
        gates = _superpose(4) + [gate]
        new, old = _run_both(gates, 4)
        _assert_states_match(new, old)

    @pytest.mark.parametrize("name", _VOCABULARY)
    @pytest.mark.parametrize("positive", [True, False])
    def test_quantum_controlled(self, name, positive):
        rnd = random.Random(hash((name, positive)) & 0xFFFF)
        param = _PARAMETRIZED[name](rnd) if name in _PARAMETRIZED else None
        arity = gate_matrix_cached(name, param, False).shape[0].bit_length() - 1
        targets = tuple(range(arity))
        controls = (Control(arity, positive), Control(arity + 1, not positive))
        gate = NamedGate(name, targets, controls=controls, param=param)
        gates = _superpose(arity + 2) + [gate]
        new, old = _run_both(gates, arity + 2)
        _assert_states_match(new, old)

    @pytest.mark.parametrize("name", _VOCABULARY)
    @pytest.mark.parametrize("bit_value", [False, True])
    def test_classically_controlled(self, name, bit_value):
        rnd = random.Random(hash((name, bit_value)) & 0xFFFF)
        param = _PARAMETRIZED[name](rnd) if name in _PARAMETRIZED else None
        arity = gate_matrix_cached(name, param, False).shape[0].bit_length() - 1
        targets = tuple(range(arity))
        controls = (Control(100, True, CLASSICAL),)
        gate = NamedGate(name, targets, controls=controls, param=param)
        n = max(arity, 2)
        gates = _superpose(n) + [gate]
        new, old = _run_both(gates, n, bits=((100, bit_value),))
        _assert_states_match(new, old)

    def test_vocabulary_covers_gate_info(self):
        # Every simulatable built-in name is exercised above.
        simulatable = set(_VOCABULARY)
        skipped = set(GATE_INFO) - simulatable - {"not", "omega"}
        assert not skipped, f"vocabulary gates missing from the suite: {skipped}"


class TestKernelClassification:
    def test_diagonal_gates_classify_diagonal(self):
        for name, param in [
            ("Z", None), ("S", None), ("T", None), ("Rz", 0.7),
            ("R(2pi/%)", 3.0), ("exp(-i%Z)", 0.4), ("exp(-i%ZZ)", 0.9),
        ]:
            assert gate_kernel(name, param, False).kind == DIAGONAL
            assert gate_kernel(name, param, True).kind == DIAGONAL

    def test_permutation_gates_classify_permute(self):
        for name in ("X", "not", "Y", "iX", "swap"):
            assert gate_kernel(name, None, False).kind == PERMUTE

    def test_dense_residual(self):
        for name in ("H", "V", "E", "W"):
            assert gate_kernel(name, None, False).kind == DENSE
        assert gate_kernel("Rx", 0.5, False).kind == DENSE

    def test_phase_kernel(self):
        kernel = gate_kernel("phase", 0.25, False)
        assert kernel.kind == PHASE and kernel.arity == 0

    def test_matrix_cache_returns_shared_readonly_entries(self):
        a = gate_matrix_cached("Rz", 0.123, True)
        b = gate_matrix_cached("Rz", 0.123, True)
        assert a is b
        assert not a.flags.writeable
        assert a is gate_matrix(NamedGate("Rz", (0,), inverted=True, param=0.123))


class TestRandomizedCircuits:
    """Random circuits over the whole extended model, both engines."""

    @pytest.mark.parametrize("trial", range(12))
    def test_random_circuit_equivalence(self, trial):
        rnd = random.Random(1000 + trial)
        n = rnd.randint(3, 5)
        gates = random_gates(rnd, n)
        new, old = _run_both(gates, n, seed=55 + trial)
        _assert_states_match(new, old)


class TestSeededSampling:
    """Backend counts must match a legacy-engine resampling exactly."""

    @staticmethod
    def _legacy_counts(bc, shots, seed):
        """Reproduce the old backend's per-shot full-replay sampler."""
        from repro.backends.base import outcome_key

        rng = np.random.default_rng(seed)
        gates = compile_flat(bc).gates
        outputs = bc.circuit.outputs
        counts = {}
        for _ in range(shots):
            sim = LegacyStateVector(rng=rng)
            for wire, wtype in bc.circuit.inputs:
                if wtype == QUANTUM:
                    sim.add_qubit(wire, False)
                else:
                    sim.bits[wire] = False
            for gate in gates:
                sim.execute(gate)
            key = outcome_key(
                [
                    sim.measure_qubit(w) if t == QUANTUM else sim.bits[w]
                    for w, t in outputs
                ]
            )
            counts[key] = counts.get(key, 0) + 1
        return counts

    def test_forked_sampling_matches_legacy_replay_exactly(self):
        def stochastic(qc, a, b, c):
            qc.hadamard(a)
            qc.gate_T(b)
            qc.qnot(b, controls=a)
            qc.rotY(0.8, c)
            m = qc.measure(a)
            qc.qnot(c, controls=m)
            qc.hadamard(b)
            return m, b, c

        bc, _ = build(stochastic, qubit, qubit, qubit)
        for seed in (0, 7, 123):
            result = get_backend("statevector").run(bc, shots=48, seed=seed)
            assert not result.metadata["batched"]
            assert result.counts == self._legacy_counts(bc, 48, seed)

    def test_batched_sampling_is_seed_stable(self):
        def ghz(qc, a, b, c):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            qc.qnot(c, controls=b)
            return qc.measure((a, b, c))

        bc, _ = build(ghz, qubit, qubit, qubit)
        backend = get_backend("statevector")
        first = backend.run(bc, shots=256, seed=9)
        second = backend.run(bc, shots=256, seed=9)
        assert first.metadata["batched"]
        assert first.counts == second.counts
        assert set(first.counts) <= {"000", "111"}


class TestCompiledStream:
    def test_compile_flat_memoizes_per_circuit(self):
        def circ(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return a, b

        bc, _ = build(circ, qubit, qubit)
        first = compile_flat(bc)
        assert compile_flat(bc) is first

    def test_compile_flat_recompiles_after_mutation(self):
        def circ(qc, a):
            qc.hadamard(a)
            return a

        bc, _ = build(circ, qubit)
        first = compile_flat(bc)
        bc.circuit.gates.append(NamedGate("H", (0,)))
        second = compile_flat(bc)
        assert second is not first
        assert len(second.gates) == len(first.gates) + 1

    def test_compile_flat_recompiles_after_count_preserving_mutation(self):
        # Replacing a stored gate without changing any gate count must
        # still invalidate the memoized stream (the snapshot compares the
        # gate objects, not their count).
        def circ(qc, a):
            qc.hadamard(a)
            return a

        bc, _ = build(circ, qubit)
        first = compile_flat(bc)
        bc.circuit.gates[0] = NamedGate("X", (0,))
        second = compile_flat(bc)
        assert second is not first
        assert second.gates[0].name == "X"

    def test_prefix_split_at_first_measurement(self):
        def circ(qc, a, b):
            qc.hadamard(a)
            qc.gate_T(b)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            return m, b

        bc, _ = build(circ, qubit, qubit)
        compiled = compile_flat(bc)
        assert compiled.prefix_len == 2
        assert isinstance(compiled.gates[compiled.prefix_len], Measure)

    def test_program_compiled_is_cached(self):
        from repro import Program

        def circ(qc, a):
            qc.hadamard(a)
            return a

        prog = Program.capture(circ, qubit)
        assert prog.compiled() is prog.compiled()
        prog.run(shots=8, seed=0)


class TestFlatEngineInternals:
    def test_copy_forks_amplitudes_and_shares_rng(self):
        sim = StateVector(rng=np.random.default_rng(1))
        for w in range(3):
            sim.add_qubit(w, False)
        for g in _superpose(3):
            sim.execute(g)
        fork = sim.copy()
        assert fork.rng is sim.rng
        fork.execute(NamedGate("X", (0,)))
        assert not np.allclose(fork.state, sim.state)

    def test_apply_unitary_matches_legacy(self):
        matrix = gate_matrix_cached("W", None, False)
        gates = _superpose(4)
        new, old = _run_both(gates, 4)
        controls = (Control(0, True), Control(3, False))
        new.apply_unitary(matrix, (1, 2), controls)
        old.apply_unitary(matrix, (1, 2), controls)
        _assert_states_match(new, old)

    def test_legacy_path_unavailable_gate_still_raises(self):
        from repro.core.errors import SimulationError

        sim = StateVector()
        sim.add_qubit(0, False)
        with pytest.raises(SimulationError):
            sim.execute(NamedGate("mystery-gate", (0,)))
