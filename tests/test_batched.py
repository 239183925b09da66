"""Batched statevector engine: equivalence, seeding, and knobs.

The batched engine (PR 9) advances ``B`` lockstep states per kernel
dispatch.  This suite pins it three ways:

* **bit-identity to the scalar engine** -- every batch member's
  amplitudes, classical bits, and measurement outcomes are exactly what
  a ``batch=1`` run of that member produces, across all kernel classes,
  batch sizes {1, 3, 8, 64}, and ragged final batches;
* **equivalence to :class:`~repro.sim.state.LegacyStateVector`** -- the
  original moveaxis + matmul engine, fed the same scripted measurement
  randomness, agrees member by member up to global phase;
* **stream identity of seeded sampling** -- backend counts are
  bit-identical at every batch size (including the pre-batching PR 3
  recorded counts), through ``Program.run(batch=)`` and the service's
  run path alike.
"""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro import Program, build, get_backend, qubit
from repro.backends.base import BackendError, outcome_key
from repro.backends.statevector import suffix_peak_and_events
from repro.core.circuit import BCircuit, Circuit
from repro.core.gates import (CGate, CInit, CNot, Control, CTerm, Discard,
                              Init, Measure, NamedGate, Term)
from repro.core.errors import AssertionFailedError, SimulationError
from repro.core.wires import CLASSICAL, QUANTUM
from repro.obs import core as obs_core
from repro.sim import kernels as sim_kernels, run_generic, run_with_lifting
from repro.sim import state as sim_state
from repro.sim.kernels import (DENSE, DIAGONAL, PERMUTE, PHASE, gate_kernel,
                                pattern_weights)
from repro.sim.matrices import gate_matrix_cached
from repro.sim.state import LegacyStateVector, StateVector, simulate
from repro.transform.inline import CompiledCircuit, compile_flat
from families import SIMULATE, SIMULATE_WIDE
from strategies import (
    PARAMETRIZED as _PARAMETRIZED,
    VOCABULARY as _VOCABULARY,
    random_gates,
    superpose as _superpose,
)

BATCH_SIZES = (1, 3, 8, 64)


class _ScriptedRng:
    """Feeds a legacy engine the exact per-member measurement draws."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def _stochastic_events(gates):
    return sum(1 for g in gates if isinstance(g, (Measure, Discard)))


def _run_batched(gates, n_qubits, batch, draws=None):
    sim = StateVector(rng=np.random.default_rng(0), batch=batch)
    for w in range(n_qubits):
        sim.add_qubit(w, False)
    if draws is not None:
        sim.preload_randoms(draws)
    for gate in gates:
        sim.execute(gate)
    return sim

def _run_scalar_member(gates, n_qubits, row=None):
    sim = StateVector(rng=np.random.default_rng(0))
    for w in range(n_qubits):
        sim.add_qubit(w, False)
    if row is not None:
        sim.preload_randoms(row.reshape(1, -1))
    for gate in gates:
        sim.execute(gate)
    return sim


def _member_state(sim, i):
    if sim.batch == 1:
        return np.asarray(sim.state).ravel()
    return np.asarray(sim.state[i]).ravel()


def _member_bits(sim, i):
    out = {}
    for wire, value in sim.bits.items():
        out[wire] = bool(value[i]) if isinstance(value, np.ndarray) else bool(value)
    return out


def _assert_member_matches_scalar(batched, i, scalar):
    """Member *i* of the batched run matches the scalar run: identical
    axes, bit-identical classical bits and measurement outcomes, and
    amplitudes equal to machine rounding (numpy's SIMD loops may differ
    by one ULP between a strided batch column and a lone element, so
    exact float equality is not demanded -- 1e-12 is ~10,000x tighter
    than the legacy-equivalence tolerance)."""
    assert batched.axes == scalar.axes
    assert _member_bits(batched, i) == _member_bits(scalar, 0)
    np.testing.assert_allclose(
        _member_state(batched, i), _member_state(scalar, 0),
        rtol=0, atol=1e-12,
    )


def _assert_member_matches_legacy(batched, i, legacy):
    """Member *i* agrees with a legacy engine run up to global phase."""
    assert batched.axes == legacy.axes
    assert _member_bits(batched, i) == {
        w: bool(v) for w, v in legacy.bits.items()
    }
    a = _member_state(batched, i)
    b = np.asarray(legacy.state).ravel()
    assert a.shape == b.shape
    anchor = int(np.argmax(np.abs(b)))
    assert abs(b[anchor]) > 1e-9
    phase = a[anchor] / b[anchor]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(a, phase * b, atol=1e-9)


def _run_legacy_member(gates, n_qubits, row):
    sim = LegacyStateVector(rng=_ScriptedRng(row))
    for w in range(n_qubits):
        sim.add_qubit(w, False)
    for gate in gates:
        sim.execute(gate)
    return sim


#: One representative circuit per kernel class, plus controlled forms.
_KERNEL_CLASS_CIRCUITS = {
    "diagonal": [
        NamedGate("T", (0,)),
        NamedGate("Rz", (1,), param=0.7),
        NamedGate("exp(-i%ZZ)", (2, 3), param=0.9),
        NamedGate("S", (2,), controls=(Control(0, True),)),
    ],
    "permute": [
        NamedGate("X", (0,)),
        NamedGate("Y", (1,)),
        NamedGate("swap", (2, 3)),
        NamedGate("not", (3,), controls=(Control(1, False),)),
    ],
    "dense": [
        NamedGate("H", (0,)),
        NamedGate("W", (1, 2)),
        NamedGate("Rx", (3,), param=1.1),
        NamedGate("V", (2,), controls=(Control(0, True),)),
    ],
    "phase": [
        NamedGate("phase", (), param=0.25),
        NamedGate("phase", (), param=-0.4, controls=(Control(1, True),)),
    ],
}


class TestKernelClassesAcrossBatchSizes:
    """Every kernel class x every batch size: bit-identical to scalar."""

    @pytest.mark.parametrize("batch", BATCH_SIZES)
    @pytest.mark.parametrize("kind", sorted(_KERNEL_CLASS_CIRCUITS))
    def test_batched_members_match_scalar_bitwise(self, kind, batch):
        gates = _superpose(4) + _KERNEL_CLASS_CIRCUITS[kind]
        batched = _run_batched(gates, 4, batch)
        scalar = _run_scalar_member(gates, 4)
        for i in range(batch):
            _assert_member_matches_scalar(batched, i, scalar)

    @pytest.mark.parametrize("kind", sorted(_KERNEL_CLASS_CIRCUITS))
    def test_batched_members_match_legacy(self, kind):
        gates = _superpose(4) + _KERNEL_CLASS_CIRCUITS[kind]
        batched = _run_batched(gates, 4, 3)
        legacy = _run_legacy_member(gates, 4, [])
        for i in range(3):
            _assert_member_matches_legacy(batched, i, legacy)

    def test_kernel_class_circuits_cover_all_kinds(self):
        seen = set()
        for gates in _KERNEL_CLASS_CIRCUITS.values():
            for g in gates:
                seen.add(gate_kernel(g.name, g.param, g.inverted).kind)
        assert seen == {DIAGONAL, PERMUTE, DENSE, PHASE}


class TestFullVocabularyBatched:
    @pytest.mark.parametrize("name", _VOCABULARY)
    def test_vocabulary_gate_batched_matches_scalar_and_legacy(self, name):
        rnd = random.Random(hash(name) & 0xFFFF)
        param = _PARAMETRIZED[name](rnd) if name in _PARAMETRIZED else None
        arity = gate_matrix_cached(name, param, False).shape[0].bit_length() - 1
        n = max(arity + 2, 3)
        targets = tuple(range(arity))
        controls = (Control(arity, True), Control(arity + 1, False))
        gates = _superpose(n) + [
            NamedGate(name, targets, param=param),
            NamedGate(name, targets, controls=controls, param=param,
                      inverted=True),
        ]
        batched = _run_batched(gates, n, 3)
        scalar = _run_scalar_member(gates, n)
        legacy = _run_legacy_member(gates, n, [])
        for i in range(3):
            _assert_member_matches_scalar(batched, i, scalar)
            _assert_member_matches_legacy(batched, i, legacy)


class TestRandomizedStochasticCircuits:
    """Random circuits over the whole extended model -- measurement,
    Init/Term ancillas, classical wires, classically-controlled gates --
    run batched with shot-major scripted randomness and compared member
    by member against scalar and legacy replays of the same draws."""

    @pytest.mark.parametrize("trial", range(8))
    def test_random_circuit_members_match_scalar_and_legacy(self, trial):
        rnd = random.Random(4000 + trial)
        n = rnd.randint(4, 5)
        gates = random_gates(
            rnd, n, gate_p=0.60, ancilla_p=0.12, cinit_p=0.12,
            classical_control_p=0.4, measure_p=0.6,
        )
        events = _stochastic_events(gates)
        batch = BATCH_SIZES[trial % len(BATCH_SIZES)]
        draws = np.random.default_rng(99 + trial).random((batch, events))
        batched = _run_batched(gates, n, batch, draws if events else None)
        for i in range(batch):
            scalar = _run_scalar_member(
                gates, n, draws[i] if events else None
            )
            _assert_member_matches_scalar(batched, i, scalar)
            legacy = _run_legacy_member(gates, n, list(draws[i]))
            _assert_member_matches_legacy(batched, i, legacy)

    def test_members_diverge_under_measurement(self):
        gates = [NamedGate("H", (0,)), Measure(0)]
        draws = np.array([[0.01], [0.99], [0.01], [0.99]])
        batched = _run_batched(gates, 1, 4, draws)
        outcomes = [_member_bits(batched, i)[0] for i in range(4)]
        assert outcomes == [True, False, True, False]
        # Each member collapsed to its own branch and renormalized.
        for i in range(4):
            amp = _member_state(batched, i)
            assert amp.shape == (1,)
            assert abs(abs(amp[0]) - 1.0) < 1e-12


class TestSeededBackendSampling:
    """Stream identity: counts are bit-identical at every batch size."""

    @staticmethod
    def _stochastic_program():
        def stochastic(qc, a, b, c):
            qc.hadamard(a)
            qc.gate_T(b)
            qc.qnot(b, controls=a)
            qc.rotY(0.8, c)
            m = qc.measure(a)
            qc.qnot(c, controls=m)
            qc.hadamard(b)
            return m, b, c

        return build(stochastic, qubit, qubit, qubit)[0]

    #: Seeded counts recorded by PR 3's per-shot fork sampler (48 shots).
    #: The batched sampler must reproduce them bit-for-bit.
    PINNED_PR3_COUNTS = {
        0: {"000": 7, "001": 3, "010": 11, "011": 4,
            "100": 5, "101": 14, "110": 1, "111": 3},
        7: {"000": 12, "001": 1, "010": 6,
            "100": 1, "101": 14, "110": 4, "111": 10},
        123: {"000": 11, "010": 10, "011": 1,
              "100": 2, "101": 10, "110": 2, "111": 12},
    }

    def test_pinned_pr3_counts_at_every_batch_size(self):
        bc = self._stochastic_program()
        for seed, expected in self.PINNED_PR3_COUNTS.items():
            for batch in (*BATCH_SIZES, None):
                result = get_backend("statevector", batch=batch).run(
                    bc, shots=48, seed=seed
                )
                assert result.counts == expected, (seed, batch)

    def test_ragged_final_batch_preserves_stream_identity(self):
        # 13 shots at batch 8 -> chunks of 8 and 5; the rng stream must
        # be consumed exactly as 13 sequential shots would consume it.
        bc = self._stochastic_program()
        reference = get_backend("statevector", batch=1).run(
            bc, shots=13, seed=21
        )
        ragged = get_backend("statevector", batch=8).run(
            bc, shots=13, seed=21
        )
        assert ragged.counts == reference.counts
        assert ragged.metadata["batch"] == 8

    def test_program_run_batch_knob(self):
        def coin(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            qc.hadamard(b)
            return m, b

        prog = Program.capture(coin, qubit, qubit)
        plain = prog.run(shots=32, seed=3)
        knobbed = prog.run(shots=32, seed=3, batch=16)
        assert knobbed.counts == plain.counts
        assert knobbed.metadata["batch"] == 16

    def test_invalid_batch_rejected(self):
        with pytest.raises(BackendError):
            get_backend("statevector", batch=0)

    def test_batch_occupancy_counters(self):
        bc = self._stochastic_program()
        with obs_core.capture() as rec:
            get_backend("statevector", batch=16).run(bc, shots=48, seed=0)
        assert rec.counters["sim.batch.forks"] == 3
        assert rec.counters["sim.batch.gates"] > 0
        occupancy = rec.histograms["sim.batch.occupancy"]
        assert occupancy.count == 3
        assert occupancy.total == 48


def _teleport_chain(hops, bit):
    """Teleport ``H|bit>`` along *hops* Bell pairs, then undo the ``H``.

    A compute/uncompute ladder first widens the circuit and returns its
    ancillas to ``|0>``; each hop then allocates two fresh qubits and
    measures two, so the live core stays at three qubits however many
    hops the chain makes.
    """

    def chain(qc):
        src = qc.qinit_qubit(bit)
        qc.hadamard(src)
        anc = [qc.qinit_qubit(False) for _ in range(4)]
        for a in anc:
            qc.qnot(a, controls=src)
        for a in reversed(anc):
            qc.qnot(a, controls=src)
        for a in anc:
            qc.qterm(a)
        for _ in range(hops):
            half = qc.qinit_qubit(False)
            dst = qc.qinit_qubit(False)
            qc.hadamard(half)
            qc.qnot(dst, controls=half)
            qc.qnot(half, controls=src)
            qc.hadamard(src)
            z_bit = qc.measure(src)
            x_bit = qc.measure(half)
            qc.qnot(dst, controls=x_bit)
            qc.gate_Z(dst, controls=z_bit)
            qc.cdiscard((z_bit, x_bit))
            src = dst
        qc.hadamard(src)
        return qc.measure(src)

    return Program.capture(chain, name=f"teleport(hops={hops})")


class TestForkBatchSizing:
    """Auto fork batches are sized by the suffix's peak qubit liveness."""

    def test_teleport_chain_batches_every_shot(self):
        # 3 live qubits at the fork and 14 suffix Inits: counting every
        # Init would size batches as 2**16 >> 17 = 0, i.e. one shot each.
        for bit in (False, True):
            result = _teleport_chain(8, bit).run(shots=1024, seed=5)
            assert result.metadata["batch"] == 1024
            assert result.counts == {str(int(bit)): 1024}

    def test_suffix_peak_matches_replayed_width(self):
        # Differential: the peak counted from the gate list equals the
        # widest state a batch-1 StateVector holds replaying the suffix
        # from the fork, and the backend's auto batch is sized from it.
        above_fork = below_init_count = 0
        for trial in range(24):
            rnd = random.Random(7100 + trial)
            n = rnd.randint(3, 5)
            gates = random_gates(
                rnd, n, gate_p=0.50, ancilla_p=0.12, cinit_p=0.08,
                fresh_p=0.15, measure_p=0.5,
            )
            split = CompiledCircuit(gates).prefix_len
            suffix = gates[split:]
            sim = StateVector(rng=np.random.default_rng(trial))
            for w in range(n):
                sim.add_qubit(w, False)
            for gate in gates[:split]:
                sim.execute(gate)
            fork = widest = sim.num_qubits
            for gate in suffix:
                sim.execute(gate)
                widest = max(widest, sim.num_qubits)
            peak, events = suffix_peak_and_events(fork, suffix)
            assert peak == widest, trial
            assert events == _stochastic_events(suffix), trial
            above_fork += widest > fork
            below_init_count += widest < fork + sum(
                isinstance(g, Init) for g in suffix
            )

            outputs = tuple(
                [(w, QUANTUM) for w in sim.axes]
                + [(w, CLASSICAL) for w in sim.bits]
            )
            bc = BCircuit(Circuit(
                tuple((w, QUANTUM) for w in range(n)), gates, outputs,
            ))
            result = get_backend("statevector").run(bc, shots=2048, seed=1)
            assert result.metadata["batch"] == min(
                2048, 1 << max(0, 16 - widest)
            ), trial
        # Non-vacuous: liveness climbed past the fork width, and counting
        # every suffix Init on top of the fork width would overestimate it.
        assert above_fork and below_init_count


class TestSimulateBatchParameter:
    def test_simulate_batch_shapes_and_guards(self):
        def bell(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return a, b

        bc, _ = build(bell, qubit, qubit)
        sim = simulate(bc, batch=5)
        assert sim.batch == 5
        assert sim.state.shape == (5, 2, 2)
        scalar = simulate(bc)
        for i in range(5):
            assert np.array_equal(
                np.asarray(sim.state[i]), np.asarray(scalar.state)
            )
        with pytest.raises(SimulationError):
            sim.basis_probabilities([0, 1])

    def test_broadcast_requires_batch_one(self):
        sim = StateVector(batch=2)
        with pytest.raises(SimulationError):
            sim.broadcast(4)
        with pytest.raises(SimulationError):
            StateVector(batch=0)

    def test_preloaded_randomness_exhaustion_raises(self):
        sim = StateVector(batch=2)
        sim.add_qubit(0, False)
        sim.execute(NamedGate("H", (0,)))
        sim.preload_randoms(np.zeros((2, 0)))
        with pytest.raises(SimulationError):
            sim.measure_qubit(0)


class TestServiceRunPath:
    def test_canonical_run_options_accepts_batch(self):
        from repro.service.jobs import canonical_run_options

        options = canonical_run_options(
            {"shots": 32, "seed": 5, "batch": 16}
        )
        assert options["batch"] == 16
        assert canonical_run_options({})["batch"] is None

    @pytest.mark.parametrize("bad", [0, -3, True, "16", 1.5])
    def test_canonical_run_options_rejects_bad_batch(self, bad):
        from repro.service.jobs import canonical_run_options
        from repro.service.registry import ServiceError

        with pytest.raises(ServiceError):
            canonical_run_options({"batch": bad})

    def test_service_run_payload_bit_identical_across_batch(self):
        from repro.service.workers import run_program_payload

        def stochastic(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            qc.hadamard(b)
            return m, b

        prog = Program.capture(stochastic, qubit, qubit)
        plain = run_program_payload(prog, {"shots": 40, "seed": 11})
        batched = run_program_payload(
            prog, {"shots": 40, "seed": 11, "batch": 8}
        )
        assert batched["counts"] == plain["counts"]


class TestOutcomeReadout:
    def test_forked_outcome_rows_match_per_shot_keys(self):
        # The batched readout builds outcome keys from stacked member
        # columns; spot-check against manually simulated members.
        def circ(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            return m, b

        bc, _ = build(circ, qubit, qubit)
        result = get_backend("statevector", batch=64).run(
            bc, shots=64, seed=2
        )
        assert sum(result.counts.values()) == 64
        # Perfectly correlated circuit: only 00 and 11 are possible.
        assert set(result.counts) <= {outcome_key([False, False]),
                                      outcome_key([True, True])}


class TestClassicalGatesAcrossBatchSizes:
    def test_zero_input_functions_match_legacy(self):
        # all(), any() and a sum over no inputs: True, False, False.
        for name in ("and", "or", "xor"):
            legacy = LegacyStateVector()
            legacy.execute(CGate(name, 5, ()))
            for batch in BATCH_SIZES:
                sim = StateVector(batch=batch)
                sim.execute(CGate(name, 5, ()))
                assert sim.bits[5].tolist() == [legacy.bits[5]] * batch

    def test_qubit_controlled_classical_not_raises_at_every_batch(self):
        # Unsimulable whatever its classical controls read, so the error
        # does not depend on the values of the bits.
        gate = CNot(7, (Control(8, True, CLASSICAL), Control(0, True)))
        for batch in BATCH_SIZES:
            for value in (False, True):
                sim = StateVector(batch=batch)
                sim.add_qubit(0, False)
                sim.set_bit(7, False)
                sim.set_bit(8, value)
                with pytest.raises(SimulationError, match="qubit"):
                    sim.execute(gate)
        # The reference engine refuses it too, also when the classical
        # control, read first, is False.
        for value in (False, True):
            legacy = LegacyStateVector()
            legacy.add_qubit(0, False)
            legacy.bits.update({7: False, 8: value})
            with pytest.raises(SimulationError, match="qubit"):
                legacy.execute(gate)


def _pin_program(entry, seed):
    """A fresh ``SIMULATE`` program, its chain input the benchmark's."""
    make = SIMULATE[entry]
    return make(bool(seed & 1)) if entry.startswith("teleport") else make()


def _sample_record(result):
    metadata = {
        k: v for k, v in result.metadata.items()
        if k in ("batched", "width", "batch")
    }
    return [sorted(result.counts.items()), metadata]


def _state_record(result):
    """A ``shots=None`` result's amplitude bytes, wire order and bits."""
    state = np.ascontiguousarray(result.statevector)
    return [
        hashlib.sha256(state.tobytes()).hexdigest(), list(state.shape),
        list(result.statevector_wires),
        sorted((w, bool(v)) for w, v in result.bits.items()),
    ]


def _digest(records):
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _random_stochastic_circuit(trial):
    """A seeded random circuit whose outputs are the wires it leaves live."""
    rnd = random.Random(9100 + trial)
    n = rnd.randint(3, 5)
    gates = random_gates(
        rnd, n, gate_p=0.50, ancilla_p=0.12, cinit_p=0.08, fresh_p=0.1,
        measure_p=0.5,
    )
    sim = StateVector(rng=np.random.default_rng(trial))
    for w in range(n):
        sim.add_qubit(w, False)
    for gate in gates:
        sim.execute(gate)
    outputs = tuple(
        [(w, QUANTUM) for w in sim.axes] + [(w, CLASSICAL) for w in sim.bits]
    )
    return BCircuit(Circuit(
        tuple((w, QUANTUM) for w in range(n)), tuple(gates), outputs,
    ))


def _unmeasured(bc):
    """*bc* inlined, its trailing ``Measure`` gates dropped: the outputs
    they measured stay qubits, so a B=1 run returns their amplitudes."""
    gates = compile_flat(bc).gates
    tail = len(gates)
    while tail and isinstance(gates[tail - 1], Measure):
        tail -= 1
    measured = {g.wire for g in gates[tail:]}
    outputs = tuple(
        (w, QUANTUM if w in measured else t) for w, t in bc.circuit.outputs
    )
    return BCircuit(Circuit(bc.circuit.inputs, list(gates[:tail]), outputs))


class TestPinnedResults:
    """Seeded results of the statevector engine, pinned by SHA-256.

    The digests were recorded when ``StateVector`` still ran batch-1
    states through scalar code paths of its own.  One ``(B, 2**n)`` path
    must reproduce them byte for byte: a ``(1, N)`` row reduces in the
    flat array's order and ``rng.random(1)`` draws what ``rng.random()``
    draws, so B=1 amplitudes, bits and seeded counts do not move.
    Amplitude digests are exact float bytes; numpy builds whose float
    kernels round differently would need them re-recorded.
    """

    def test_sampled_catalogue(self):
        records = [
            [entry, seed,
             _sample_record(_pin_program(entry, seed).run(shots=1024,
                                                          seed=seed))]
            for entry in SIMULATE
            for seed in (1, 2)
        ]
        assert _digest(records) == (
            "ef9a11e59c30ad899cb3273c989edd7fdb14e45f085383e78ed21184c00bc63b"
        )

    def test_batch_one_states(self):
        records = [
            [entry, seed, _state_record(_pin_program(entry, seed).run(seed=seed))]
            for entry, seed in (("bwt-n2", 1), ("teleport-h3", 1), ("cl-w4", 2))
        ]
        assert _digest(records) == (
            "8988098f3f9e912900e3565b5a6c4186c315a270904e24bade70825c7bf2d380"
        )

    def test_wide_catalogue(self):
        # Seeded counts and B=1 states of the entries past 16 qubits,
        # whose runs of X/CNOT/Toffoli gates act on states of 2**17 to
        # 2**21 amplitudes.  bwt-n3 is also pinned before its trailing
        # measurements, and tf-mul-l2 (a classical reversible circuit)
        # on seeded basis inputs, so every amplitude the runs move shows.
        records = []
        for entry, make in SIMULATE_WIDE.items():
            for seed in (1, 2):
                records.append([entry, seed, _sample_record(
                    make().run(shots=1024, seed=seed)
                )])
            records.append([entry, _state_record(make().run(seed=1))])
        backend = get_backend("statevector")
        bwt = SIMULATE_WIDE["bwt-n3"]().bcircuit
        records.append(["bwt-n3", "unmeasured", _state_record(
            backend.run(_unmeasured(bwt), seed=1)
        )])
        tf = SIMULATE_WIDE["tf-mul-l2"]().bcircuit
        for seed in (1, 2):
            rnd = random.Random(seed)
            in_values = {w: rnd.random() < 0.5 for w, _ in tf.circuit.inputs}
            records.append(["tf-mul-l2", seed, _state_record(
                backend.run(tf, in_values=in_values, seed=seed)
            )])
        assert _digest(records) == (
            "d31c700b05420234177271abf64b2650c89990871774ffac4ca4a1dea64270af"
        )

    def test_random_stochastic_circuits(self):
        records, forked = [], 0
        for trial in range(60):
            bc = _random_stochastic_circuit(trial)
            row = [trial]
            for batch in (None, 1, 3):
                result = get_backend("statevector", batch=batch).run(
                    bc, shots=32, seed=trial
                )
                row.append(_sample_record(result))
            forked += not result.metadata["batched"]
            row.append(_state_record(get_backend("statevector").run(
                bc, seed=trial
            )))
            records.append(row)
        assert forked >= 50
        # Re-recorded when a Term run began rescaling by its own kept
        # weight: 29 of the 60 states moved, by at most 4.5e-16, and no
        # sample record did (test_random_stochastic_counts).
        assert _digest(records) == (
            "05ed2b504ba9475a2e3a7005bd4fb1d5436206fa2170f73f1725d18b61208b02"
        )

    def test_random_stochastic_counts(self):
        # What test_random_stochastic_circuits pins except the amplitude
        # bytes: seeded counts at three batch settings, and the single
        # run's wire order and bits.  A Term in superposition rescales by
        # its own kept weight, so amplitudes may move by rounding; no
        # count, wire or bit may.
        records = []
        for trial in range(60):
            bc = _random_stochastic_circuit(trial)
            row = [trial]
            for batch in (None, 1, 3):
                row.append(_sample_record(get_backend(
                    "statevector", batch=batch
                ).run(bc, shots=32, seed=trial)))
            single = get_backend("statevector").run(bc, seed=trial)
            row.append([list(single.statevector_wires), sorted(
                (w, bool(v)) for w, v in single.bits.items()
            )])
            records.append(row)
        assert _digest(records) == (
            "70f244c3aea6268504bc17e41995e4ac4e8aa512ebf74e0e94e748aef6c1dd85"
        )

    def test_scalar_surface(self):
        # RunResult.bits holds plain bools, materialized and streamed.
        for result in (
            _pin_program("teleport-h3", 1).run(seed=4),
            _pin_program("teleport-h3", 1).stream().run(seed=4),
        ):
            assert result.bits
            assert all(type(v) is bool for v in result.bits.values())
            # The engine itself keeps (1,) bool arrays at B=1.
            engine_bits = result.metadata["state"].bits
            assert engine_bits.keys() == result.bits.keys()
            assert all(v.shape == (1,) and v.dtype == bool
                       for v in engine_bits.values())

        # run_generic and run_with_lifting read out plain bools, and a
        # dynamic lift hands the generator a plain bool.
        lifted = []

        def coin(qc, a):
            qc.hadamard(a)
            m = qc.measure(a)
            value = qc.dynamic_lift(m)
            lifted.append(value)
            echo = qc.qinit(value)
            b = qc.qinit_qubit(False)
            qc.hadamard(b)
            return m, echo, b

        for seed in range(6):
            for out in (run_generic(coin, False, seed=seed),
                        run_with_lifting(coin, False, seed=seed)):
                assert all(type(v) is bool for v in out)
                assert out[0] == out[1]
        assert all(type(v) is bool for v in lifted)
        assert set(lifted) == {False, True}

        # A streamed run samples what the materialized run samples.  A
        # stream measured only at its end is drawn once, not replayed.
        bwt = _pin_program("bwt-n2", 1)
        for program in (_teleport_chain(4, True), _pin_program("cl-w3", 1),
                        _pin_program("gse-p5", 1), bwt):
            streamed = program.stream().run(shots=64, seed=1)
            assert streamed.counts == program.run(shots=64, seed=1).counts
            if program is bwt:
                assert "replays" not in streamed.metadata


#: The basis permutations a run may fuse, as (name, targets, controls):
#: X, CNOT, Toffoli, swap and Fredkin.
_MOVES = (("not", 1, 0), ("not", 1, 1), ("not", 1, 2), ("swap", 2, 0),
          ("swap", 2, 1))


def _permutation_circuit(rnd, n):
    """Seeded runs of basis permutations over an ``n``-qubit superposition.

    Runs of 2-12 moves (either control sign, often controlled on wire 0,
    which no move flips unless a run is drawn to) alternate with an H, T,
    Y, a classically controlled X, or an ancilla's Init or Term; an
    ancilla is only a control until its Term, and a measured ancilla
    gives the classical control a bit that differs between members.
    """
    gates = list(_superpose(n))
    gates += [Init(n, False), NamedGate("H", (n,)), Measure(n)]
    ancilla = None
    for _ in range(10):
        flips_outermost = rnd.random() < 0.2
        live = list(range(n)) + ([ancilla[0]] if ancilla else [])
        for _ in range(rnd.randint(2, 12)):
            name, arity, controls = rnd.choice(_MOVES)
            targets = rnd.sample(range(4, n), arity)
            if flips_outermost:
                targets[0], flips_outermost = 0, False
            pool = [w for w in live if w not in targets]
            wires = rnd.sample(pool, controls)
            if 0 in pool and 0 not in wires and rnd.random() < 0.5:
                wires.append(0)
            gates.append(NamedGate(name, tuple(targets), tuple(
                Control(w, rnd.random() < 0.5) for w in wires
            )))
        roll = rnd.randrange(6)
        wire = rnd.randrange(n)
        if roll == 0:
            gates.append(NamedGate("H", (wire,)))
        elif roll == 1:
            gates.append(NamedGate("T", (wire,)))
        elif roll == 2:
            gates.append(NamedGate("Y", (wire,)))
        elif roll == 3:
            gates.append(NamedGate(
                "not", (wire,), (Control(n, rnd.random() < 0.5, CLASSICAL),)
            ))
        elif ancilla is None:
            ancilla = (n + 1 + rnd.randrange(100), rnd.random() < 0.5)
            gates.append(Init(*ancilla))
        else:
            gates.append(Term(*ancilla))
            ancilla = None
    return gates


def _prepared(n, batch):
    sim = StateVector(rng=np.random.default_rng(7), batch=batch)
    for w in range(n):
        sim.add_qubit(w, False)
    return sim


def _assert_same_state(fused, reference, atol=None):
    """Same axes and bits, and the same amplitude bytes (or amplitudes
    within *atol*)."""
    assert fused.axes == reference.axes
    if atol is None:
        assert fused.data.tobytes() == reference.data.tobytes()
    else:
        np.testing.assert_allclose(fused.data, reference.data, rtol=0,
                                   atol=atol)
    assert fused.bits.keys() == reference.bits.keys()
    for wire, bits in reference.bits.items():
        assert np.array_equal(fused.bits[wire], bits)


class TestFusedRuns:
    """``StateVector.run`` against ``execute`` gate by gate, byte for byte.

    ``run`` gathers each run of two or more basis permutations once the
    state exceeds one block; amplitudes only move, so the state, wire
    axes and bits must be the bytes of the per-gate path.
    """

    @pytest.mark.parametrize("batch,n", [(1, 18), (3, 17)])
    def test_runs_equal_gates_one_by_one(self, batch, n):
        fused_runs = 0
        for trial in range(4):
            gates = _permutation_circuit(random.Random(8800 + trial), n)
            fused, reference = _prepared(n, batch), _prepared(n, batch)
            with obs_core.capture() as rec:
                fused.run(gates)
            for gate in gates:
                reference.execute(gate)
            _assert_same_state(fused, reference)
            fused_runs += rec.counters.get("sim.kernel.fused", 0)
            assert rec.counters.get("sim.fused.gates", 0) >= (
                2 * rec.counters.get("sim.kernel.fused", 0)
            )
        assert fused_runs > 0

    def test_outermost_axis(self):
        # bwt-n3's runs are controlled on the outermost axis: it picks
        # each block's table, and the run is gathered.  A run that flips
        # the outermost axis goes gate by gate.
        n = 17
        controlled = [
            NamedGate("not", (5,), (Control(0, True), Control(9, False))),
            NamedGate("not", (12,), (Control(0, False),)),
            NamedGate("swap", (3, 14), (Control(0, True),)),
            NamedGate("not", (16,), (Control(0, True), Control(2, True))),
            NamedGate("not", (8,)),
        ]
        flipping = [NamedGate("not", (0,), (Control(7, True),))] + controlled
        for gates, runs in ((controlled, 1), (flipping, 0)):
            fused, reference = _prepared(n, 1), _prepared(n, 1)
            for sim in (fused, reference):
                for gate in _superpose(n):
                    sim.execute(gate)
            with obs_core.capture() as rec:
                fused.run(gates)
            for gate in gates:
                reference.execute(gate)
            _assert_same_state(fused, reference)
            assert rec.counters.get("sim.kernel.fused", 0) == runs
            assert rec.counters.get("sim.kernel.permute", 0) == (
                0 if runs else len(gates)
            )


#: Wrong-value weight an almost-reset ancilla keeps: under the Term
#: threshold (amplitude 1e-6, weight 1e-12) alone, over it twice.
_NEARLY_RESET = 0.6e-12


def _ancilla_circuit(rnd, n):
    """Seeded runs of Init and Term gates over an ``n``-qubit register.

    After a preamble that superposes the register and measures a fresh
    qubit (a bit that differs between members), each round allocates two
    Init runs of 1-7 wires, either value, each followed by a CNOT or a
    Toffoli from the register into every ancilla; adds T phases and
    uncomputes.  Two of the first run's ancillas are then rotated by a
    weight of :data:`_NEARLY_RESET` each, so their run keeps a weight
    short of 1 by more than rounding.  The first run is terminated in a
    random order, on middle axes (the second run lies inside it), and the
    second last in, first out on the innermost axes; half the time the
    two Term runs touch and are one run.  Rounds alternate with H, T,
    CNOT, Toffoli and a classically controlled X on the register.
    """
    tilt = 2 * np.arcsin(np.sqrt(_NEARLY_RESET))
    gates = list(_superpose(n))
    gates += [Init(n, False), NamedGate("H", (n,)), Measure(n)]
    fresh = n + 1
    for _ in range(3):
        runs, compute = [], []
        for _ in range(2):
            run = [(fresh + i, rnd.random() < 0.5)
                   for i in range(rnd.randint(1, 7))]
            fresh += len(run)
            gates += [Init(w, v) for w, v in run]
            runs.append(run)
            for w, _ in run:
                compute.append(NamedGate("not", (w,), tuple(
                    Control(c, rnd.random() < 0.5)
                    for c in rnd.sample(range(n), rnd.randint(1, 2))
                )))
                gates.append(compute[-1])
        gates += [NamedGate("T", (w,)) for w, _ in runs[0] + runs[1]
                  if rnd.random() < 0.5]
        gates += compute[::-1]
        first, second = runs
        for w, _ in rnd.sample(first, min(2, len(first))):
            gates.append(NamedGate("Ry", (w,), param=tilt))
        gates += [Term(w, v) for w, v in rnd.sample(first, len(first))]
        if rnd.random() < 0.5:
            gates.append(NamedGate("T", (rnd.randrange(n),)))
        gates += [Term(w, v) for w, v in reversed(second)]
        a, b, c = rnd.sample(range(n), 3)
        gates += [
            NamedGate("H", (a,)), NamedGate("T", (b,)),
            NamedGate("not", (c,), (Control(a, True),)),
            NamedGate("not", (a,), (Control(b, True), Control(c, False))),
            NamedGate("not", (b,), (Control(n, rnd.random() < 0.5, CLASSICAL),)),
        ]
    return gates


def _raised(sim, gates, one_by_one):
    """The error that running *gates* raises, as its type and message."""
    with pytest.raises((AssertionFailedError, SimulationError)) as caught:
        if one_by_one:
            for gate in gates:
                sim.execute(gate)
        else:
            sim.run(gates)
    return type(caught.value), str(caught.value)


class TestInitTermRuns:
    """``StateVector.run`` against ``execute`` gate by gate on Init and
    Term runs.

    ``run`` allocates each run of Inits with one ``add_qubits`` and
    terminates each run of Terms with one ``remove_qubits_asserted``.
    An Init run gives the bytes of the gates one by one; a Term run
    checks every assertion as the gates would, in order, and rescales
    the kept block by its own weight, so amplitudes agree to rounding,
    also with :class:`LegacyStateVector`, which renormalizes after every
    Term.
    """

    @pytest.mark.parametrize("batch", [1, 3])
    def test_runs_equal_gates_one_by_one(self, batch):
        n = 5
        for trial in range(6):
            gates = _ancilla_circuit(random.Random(9300 + trial), n)
            first_term = next(
                i for i, g in enumerate(gates) if isinstance(g, Term)
            )
            grouped, reference = _prepared(n, batch), _prepared(n, batch)
            grouped.run(gates[:first_term])
            for gate in gates[:first_term]:
                reference.execute(gate)
            _assert_same_state(grouped, reference)
            grouped.run(gates[first_term:])
            for gate in gates[first_term:]:
                reference.execute(gate)
            _assert_same_state(grouped, reference, atol=1e-14)
            if batch == 1:
                # The reference engine renormalizes after every Term.
                legacy = LegacyStateVector(rng=np.random.default_rng(7))
                for gate in [Init(w, False) for w in range(n)] + gates:
                    legacy.execute(gate)
                assert legacy.axes == grouped.axes
                assert legacy.bits == _member_bits(grouped, 0)
                np.testing.assert_allclose(
                    grouped.data.ravel(), legacy.state.ravel(), rtol=0,
                    atol=1e-14,
                )

    def test_every_run_is_counted_once(self):
        gates = [Init(10, True), Init(11, False), Init(12, True),
                 NamedGate("H", (0,)), Init(13, False),
                 NamedGate("H", (0,)), Term(13, False), Term(11, False),
                 Term(10, True), NamedGate("T", (1,)), Term(12, True)]
        counts = {}
        for batch in (1, 3):
            for grouped in (True, False):
                sim = _prepared(3, batch)
                with obs_core.capture() as rec:
                    if grouped:
                        sim.run(gates)
                    else:
                        for gate in gates:
                            sim.execute(gate)
                counts[batch, grouped] = rec.counters
        def kernel(counters):
            return {k: v for k, v in counters.items()
                    if k.startswith("sim.kernel.")}

        for batch in (1, 3):
            runs = counts[batch, True]
            assert runs.get("sim.init.runs") == 1
            assert runs.get("sim.term.runs") == 1
            assert "sim.init.runs" not in counts[batch, False]
            # No run is a kernel dispatch (the benchmark sums sim.kernel.*).
            assert kernel(runs) == kernel(counts[batch, False])
        assert counts[3, True]["sim.batch.gates"] == len(gates)
        assert counts[3, False]["sim.batch.gates"] == len(gates)
        assert "sim.batch.gates" not in counts[1, True]

    @pytest.mark.parametrize("batch", [1, 3])
    def test_failed_assertion_names_the_same_wire(self, batch):
        # Term j of a run fails, the Terms before it pass: the run
        # raises what the gate that fails raises, one by one.
        n, k = 4, 5
        tilt = 2 * np.arcsin(np.sqrt(_NEARLY_RESET))
        for j in range(k):
            for value in (False, True):
                ancillas = [n + i for i in range(k)]
                setup = list(_superpose(n))
                setup += [Init(w, value) for w in ancillas]
                setup += [NamedGate("Ry", (w,), param=tilt)
                          for w in ancillas[:j]]
                setup.append(NamedGate("H", (ancillas[j],)))
                terms = [Term(w, value) for w in ancillas]
                raised = []
                for one_by_one in (True, False):
                    sim = _prepared(n, batch)
                    sim.run(setup)
                    raised.append(_raised(sim, terms, one_by_one))
                assert raised[0] == raised[1]
                assert raised[0][0] is AssertionFailedError
                assert f"qubit {ancillas[j]} " in raised[0][1]

    def test_nearly_reset_wires_pass_one_at_a_time(self):
        # Each wire's wrong weight is under the threshold, their sum over
        # it: the run checks each Term, not the run's total.
        tilt = 2 * np.arcsin(np.sqrt(_NEARLY_RESET))
        setup = [Init(w, False) for w in (4, 5, 6)] + [
            NamedGate("Ry", (w,), param=tilt) for w in (4, 5, 6)
        ]
        terms = [Term(w, False) for w in (6, 5, 4)]
        for batch in (1, 3):
            grouped, reference = _prepared(4, batch), _prepared(4, batch)
            grouped.run(setup + terms)
            for gate in setup + terms:
                reference.execute(gate)
            _assert_same_state(grouped, reference, atol=1e-14)

    def test_pattern_weights_sum_the_squares(self):
        # Every layout of the reduction: axes kept in the innermost block,
        # axes outside it, and none within WEIGHT_BLOCK_AXES of the end.
        rnd = random.Random(9400)
        rng = np.random.default_rng(9400)
        for _ in range(300):
            n = rnd.randint(1, 15)
            batch = rnd.choice((1, 3))
            axes = rnd.sample(range(n), rnd.randint(1, min(n, 4)))
            data = (rng.standard_normal((batch, 1 << n))
                    + 1j * rng.standard_normal((batch, 1 << n)))
            squares = (abs(data) ** 2).reshape((batch,) + (2,) * n)
            expected = squares.sum(
                axis=tuple(1 + a for a in range(n) if a not in axes)
            ).transpose((0,) + tuple(1 + sorted(axes).index(a) for a in axes))
            np.testing.assert_allclose(pattern_weights(data, axes), expected,
                                       rtol=1e-12)

    def test_live_and_dead_wires_raise_as_one_by_one(self):
        cases = [
            [Init(7, False), Init(8, True), Init(7, True)],
            [Init(7, False), Init(2, True)],
            [Init(7, True), Init(8, False), Term(8, False), Term(9, False)],
            [Init(7, True), Init(8, False), Term(8, False), Term(8, False)],
        ]
        for gates in cases:
            raised = [_raised(_prepared(3, 3), gates, one_by_one)
                      for one_by_one in (True, False)]
            assert raised[0] == raised[1]
            assert raised[0][0] is SimulationError


def _memo_circuit(rnd, n):
    """A seeded :func:`random_gates` circuit that also grows and shrinks.

    Fresh qubits (``Init``), ancilla triples (``Init``, a T controlled
    by the ancilla, ``Term``) and mid-circuit ``Measure``/``Discard``
    change the state's rank between gates, so one gate shape recurs at
    another ``ndim``; measured wires become classical controls that
    select some members of a batch and not others.
    """
    return random_gates(rnd, n, steps=60, gate_p=0.6, ancilla_p=0.1,
                        cinit_p=0.1, fresh_p=0.1)


def _memo_run(gates, n, batch, seed):
    """Run *gates* on a fresh ``n``-qubit state; the state and counters."""
    sim = StateVector(rng=np.random.default_rng(seed), batch=batch)
    sim.add_qubits([(w, False) for w in range(n)])
    with obs_core.capture() as rec:
        sim.run(gates)
    counters = {k: v for k, v in rec.counters.items()
                if k.startswith("sim.kernel.") or k == "sim.batch.gates"}
    return sim, counters


class TestSlotMemo:
    """``_slots``, memoized per ``(ndim, target_axes, ctrl)``, against its
    undecorated function.

    Each seeded circuit runs through ``StateVector.run`` with the memo and
    again with ``_slots`` replaced by the function it wraps (in
    :mod:`repro.sim.kernels` and :mod:`repro.sim.state`); the two runs
    give the same amplitude bytes, axes, bits, draws and kernel
    counters.  The circuits meet every kernel kind, both control signs,
    classical controls that select some members, a shape met again at a
    lower ``ndim`` and one met again with a control's bit flipped: a memo
    keyed on less than the whole shape would hand out a wrong table.
    """

    @pytest.mark.parametrize("batch", [1, 3])
    def test_memo_equals_fresh_tables(self, batch, monkeypatch):
        fresh = sim_kernels._slots.__wrapped__
        keys = []  # every slot table the reference run builds, in order
        partial = []  # classical masks that select some members only

        def recorded(ndim, target_axes, ctrl):
            keys.append((ndim, target_axes, ctrl))
            return fresh(ndim, target_axes, ctrl)

        split = StateVector._split_controls

        def split_recorded(sim, controls):
            resolved = split(sim, controls)
            if resolved is not None and resolved[1] is not None:
                partial.append(controls)
            return resolved

        kinds = set()
        for trial in range(24):
            rnd = random.Random(9600 + trial)
            n = 3 + trial % 6
            gates = _memo_circuit(rnd, n)
            memo, memo_counters = _memo_run(gates, n, batch, trial)
            with monkeypatch.context() as patch:
                patch.setattr(sim_kernels, "_slots", recorded)
                patch.setattr(sim_state, "_slots", recorded)
                patch.setattr(StateVector, "_split_controls", split_recorded)
                reference, counters = _memo_run(gates, n, batch, trial)
            _assert_same_state(memo, reference)
            assert memo.rng.bit_generator.state == (
                reference.rng.bit_generator.state
            )
            assert memo_counters == counters
            for gate in gates:
                if isinstance(gate, NamedGate):
                    kernel = gate_kernel(gate.name, gate.param, gate.inverted)
                    unit = kernel.kind != PERMUTE or all(
                        phase == 1 for phase in kernel.data[1])
                    kinds.add((kernel.kind, kernel.arity, unit))
        assert {(PHASE, 0, True), (DIAGONAL, 1, True), (DIAGONAL, 2, True),
                (PERMUTE, 1, True), (PERMUTE, 1, False), (PERMUTE, 2, True),
                (DENSE, 1, True), (DENSE, 2, True)} <= kinds
        assert {bit for _, _, ctrl in keys for _, bit in ctrl} == {0, 1}
        if batch > 1:
            assert partial
        # A shape met again at a lower rank, and again under the other
        # bit of one of its controls.
        first_rank, lower, signs = {}, False, {}
        for ndim, targets, ctrl in keys:
            first_rank.setdefault((targets, ctrl), ndim)
            lower |= ndim < first_rank[targets, ctrl]
            axes = tuple(axis for axis, _ in ctrl)
            signs.setdefault((ndim, targets, axes), set()).add(ctrl)
        assert lower
        assert any(len(ctrls) > 1 for ctrls in signs.values())

    def test_tables_are_shared_tuples(self):
        table = sim_kernels._slots(5, (1, 3), ((2, 0),))
        assert type(table) is tuple
        assert all(type(slot) is tuple for slot in table)
        assert sim_kernels._slots(5, (1, 3), ((2, 0),)) is table
        assert len(table) == 4 and table[2] == (
            slice(None), 1, 0, 0, slice(None))
        # The no-target table is the control subspace alone.
        assert sim_kernels._slots(4, (), ((1, 1), (3, 0)))[0] == (
            sim_kernels._subindex(4, ((1, 1), (3, 0))))


def _shared_rows_circuit(trial):
    """A seeded :func:`random_gates` circuit with a tail on measured bits.

    The tail measures a qubit, then allocates an ancilla, flips it under
    a classical control, puts it in superposition and measures it; runs
    an ``Init``/controlled-T/``Term`` triple after those measurements;
    and computes on the measured bits with a ``CGate`` and a classically
    controlled ``CNot``.  Returns the gates, the input width and the
    outputs: the qubits left live and every classical wire.
    """
    rnd = random.Random(5200 + trial)
    n = rnd.randint(3, 5)
    gates = random_gates(
        rnd, n, gate_p=0.55, ancilla_p=0.12, cinit_p=0.06, fresh_p=0.1,
        classical_control_p=0.5, measure_p=0.6,
    )
    sim = StateVector(rng=np.random.default_rng(trial))
    sim.add_qubits([(w, False) for w in range(n)])
    sim.run(gates)
    live, bits = sorted(sim.axes), sorted(sim.bits)
    fresh = max([*live, *bits]) + 1
    ancilla, flag, parity = fresh, fresh + 1, fresh + 2
    if len(live) > 1:
        gates += [NamedGate("H", (live[0],)), Measure(live[0])]
        bits.append(live.pop(0))
    control = Control(bits[-1], True, CLASSICAL) if bits else None
    gates += [
        Init(ancilla, False),
        NamedGate("not", (ancilla,), (control,) if control else ()),
        NamedGate("H", (ancilla,)),
        Measure(ancilla),
        Init(flag, True),
        NamedGate("T", (live[0],), (Control(flag, True),)),
        Term(flag, True),
        CGate("xor", parity, (ancilla, *bits[-1:])),
        CNot(ancilla, (Control(parity, False, CLASSICAL),)),
    ]
    bits += [ancilla, parity]
    outputs = tuple([(w, QUANTUM) for w in live]
                    + [(w, CLASSICAL) for w in bits])
    return gates, n, outputs


def _fork_and_identity(gates, n, shots, seed):
    """The suffix of *gates* ready to run from one prefix state, twice: as
    one row standing for *shots* shots, and as a *shots*-row identity-map
    state.  Also returns the suffix and how many columns of draws cover
    its events and a readout of every qubit it leaves live."""
    split = CompiledCircuit(gates).prefix_len
    states = []
    for forked in (True, False):
        base = StateVector(rng=np.random.default_rng(seed),
                           batch=1 if forked else shots)
        base.add_qubits([(w, False) for w in range(n)])
        base.run(gates[:split])
        states.append(base.broadcast(shots) if forked else base)
    peak, events = suffix_peak_and_events(
        states[1].num_qubits, gates[split:])
    return states, gates[split:], events + peak


def _read_out(sim):
    """Measure every live qubit of *sim* in wire order; each shot's bits."""
    for wire in sorted(sim.axes):
        sim.bits[wire] = sim.measure_qubit(wire)
    return {w: sim.per_shot(v).tolist() for w, v in sim.bits.items()}


class TestSharedRows:
    """A forked batch keeps one state row per distinct measurement
    history, against the identity map (row i is shot i).

    Fed one pre-drawn matrix, a fork whose rows are shared gives every
    shot the bits, outcomes and amplitudes of the identity-map run;
    seeded counts agree at every ``batch=``; a fork's rows never exceed
    ``min(shots, 2**j)`` after its j-th measurement; and an assertion
    that fails on some histories, a collapse to zero norm and exhausted
    randomness raise what the identity-map run raises.
    """

    @pytest.mark.parametrize("shots", [1, 7, 64])
    def test_every_shot_matches_the_identity_map(self, shots):
        splits = 0
        for trial in range(16):
            gates, n, _ = _shared_rows_circuit(trial)
            (fork, identity), suffix, columns = _fork_and_identity(
                gates, n, shots, trial)
            draws = np.random.default_rng(600 + trial).random(
                (shots, columns))
            for sim in (fork, identity):
                sim.preload_randoms(draws)
                sim.run(suffix)
            assert fork.batch <= identity.batch == shots
            assert fork.axes == identity.axes
            np.testing.assert_allclose(
                fork.per_shot(fork.data), identity.data, rtol=0, atol=1e-12)
            assert _read_out(fork) == _read_out(identity)
            splits += fork.batch > 1
            # Every row stands for at least one shot.
            if fork.shot_rows is not None:
                assert np.bincount(fork.shot_rows).min() >= 1
        if shots > 1:
            assert splits

    def test_seeded_counts_agree_at_every_batch(self):
        # 29 shots: ragged last batches at batch=3 (9 x 3 + 2) and
        # batch=8 (3 x 8 + 5).
        for trial in range(16):
            gates, n, outputs = _shared_rows_circuit(trial)
            bc = BCircuit(Circuit(
                tuple((w, QUANTUM) for w in range(n)), gates, outputs))
            # The identity-map reference: one state per shot, one matrix.
            rng = np.random.default_rng(trial)
            sim = StateVector(rng=rng, batch=29)
            sim.add_qubits([(w, False) for w in range(n)])
            compiled = compile_flat(bc)
            tail = len(compiled.gates)
            while tail and isinstance(compiled.gates[tail - 1], Measure):
                tail -= 1
            split = min(compiled.prefix_len, tail)
            sim.run(compiled.gates[:split])
            _, events = suffix_peak_and_events(
                sim.num_qubits, compiled.gates[split:])
            events += sum(t == QUANTUM for _, t in outputs)
            sim.preload_randoms(rng.random((29, events)))
            sim.run(compiled.gates[split:])
            columns = [sim.measure_qubit(w) if t == QUANTUM else sim.bits[w]
                       for w, t in outputs]
            expected: dict[str, int] = {}
            for shot in range(29):
                key = "".join("1" if c[shot] else "0" for c in columns)
                expected[key] = expected.get(key, 0) + 1
            for batch in (None, 1, 3, 8):
                result = get_backend("statevector", batch=batch).run(
                    bc, shots=29, seed=trial)
                assert not result.metadata["batched"]
                assert result.counts == expected, (trial, batch)

    def test_rows_never_exceed_histories(self):
        for trial in range(16):
            gates, n, _ = _shared_rows_circuit(trial)
            (fork, _), suffix, columns = _fork_and_identity(
                gates, n, 256, trial)
            fork.preload_randoms(
                np.random.default_rng(trial).random((256, columns)))
            measured = 0
            for gate in suffix:
                fork.execute(gate)
                measured += isinstance(gate, (Measure, Discard))
                assert fork.batch <= min(256, 1 << measured), trial

        def two_coins(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.hadamard(b)
            return m, qc.measure(b)

        bc, _ = build(two_coins, qubit, qubit)
        sim = StateVector(rng=np.random.default_rng(1))
        sim.add_qubits([(0, False), (1, False)])
        fork = sim.broadcast(1024)
        fork.preload_randoms(np.random.default_rng(2).random((1024, 2)))
        fork.run(compile_flat(bc).gates)
        assert fork.batch <= 4
        assert sorted(np.bincount(fork.shot_rows).tolist()) == sorted(
            np.unique(fork.per_shot(np.stack(
                [fork.bits[0], fork.bits[1]], axis=1)), axis=0,
                return_counts=True)[1].tolist())

    def test_failures_raise_what_the_identity_map_raises(self):
        # Term asserts |0> on a qubit flipped where the measured bit is 1:
        # it fails on those histories only.  CTerm asserts a bit that is
        # wrong on one history.  Draws past 1.0 pick a branch of zero
        # weight; a matrix one column short runs out.
        term = [NamedGate("H", (0,)), Measure(0),
                NamedGate("not", (1,), (Control(0, True, CLASSICAL),)),
                Term(1, False)]
        cterm = [NamedGate("H", (0,)), Measure(0), CTerm(0, False)]
        collapse = [NamedGate("not", (0,)), Measure(0)]
        cases = [
            (term, np.array([[0.9], [0.9], [0.1]]), AssertionFailedError),
            (cterm, np.array([[0.9], [0.1], [0.9]]), AssertionFailedError),
            (collapse, np.array([[0.5], [1.5], [0.5]]), SimulationError),
            (term, np.zeros((3, 0)), SimulationError),
        ]
        for gates, draws, error in cases:
            messages = []
            for forked in (True, False):
                sim = StateVector(rng=np.random.default_rng(0),
                                  batch=1 if forked else 3)
                sim.add_qubits([(0, False), (1, False)])
                if forked:
                    sim = sim.broadcast(3)
                sim.preload_randoms(draws)
                with pytest.raises(error) as raised:
                    sim.run(gates)
                messages.append(str(raised.value))
            assert messages[0] == messages[1], gates

    def test_outputs_past_64_bits_pack_without_overflow(self):
        # 69 outputs: the measured bit first (the most significant), 66
        # classical wires (every third flipped under the measured bit)
        # and two qubits read out last.
        gates = [NamedGate("H", (w,)) for w in range(3)]
        gates.append(Measure(0))
        for k in range(66):
            gates.append(CInit(3 + k, k % 2 == 0))
            if k % 3 == 0:
                gates.append(CNot(3 + k, (Control(0, True, CLASSICAL),)))
        gates.append(NamedGate("H", (1,), (Control(0, True, CLASSICAL),)))
        outputs = (((0, CLASSICAL),)
                   + tuple((3 + k, CLASSICAL) for k in range(66))
                   + ((1, QUANTUM), (2, QUANTUM)))
        bc = BCircuit(Circuit(
            tuple((w, QUANTUM) for w in range(3)), gates, outputs))
        for batch in (None, 1, 3):
            result = get_backend("statevector", batch=batch,
                                 max_width=80).run(bc, shots=64, seed=3)
            assert {len(key) for key in result.counts} == {69}
            assert {key[0] for key in result.counts} == {"0", "1"}
            # Recorded before forks shared rows (np.unique over bool rows).
            assert hashlib.sha256(json.dumps(
                sorted(result.counts.items())).encode()).hexdigest() == (
                "0d3251853a6a21c1240366bd768e54d1db111360633732cbe33ca931c863179d"
            ), batch
