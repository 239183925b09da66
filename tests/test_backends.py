"""Tests for the pluggable execution backend subsystem."""

from __future__ import annotations

import hashlib
import json
import random

import numpy as np
import pytest

from repro import (
    BackendError,
    RunResult,
    available_backends,
    bit,
    build,
    get_backend,
    qubit,
    register_backend,
    run_generic,
)
from repro.backends import Backend, marginal_counts
from repro.core.circuit import BCircuit, Circuit
from repro.core.errors import SimulationError
from repro.core.gates import (
    CDiscard,
    CInit,
    CNot,
    Control,
    Discard,
    Init,
    Measure,
    NamedGate,
    Term,
)
from repro.program import Program


def bell(qc, a, b):
    qc.hadamard(a)
    qc.qnot(b, controls=a)
    return a, b


def bell_measured(qc, a, b):
    qc.hadamard(a)
    qc.qnot(b, controls=a)
    return qc.measure((a, b))


def ghz(qc, a, b, c):
    qc.hadamard(a)
    qc.qnot(b, controls=a)
    qc.qnot(c, controls=b)
    return a, b, c


#: A classical NOT controlled by a set bit and by a qubit.
QUANTUM_CONTROLLED_CNOT = """\
Inputs: 0:Qubit
CInit1(8)
CInit0(7)
CNot(7) with controls=[+c8, +0]
CDiscard(8)
Outputs: 0:Qubit, 7:Bit
"""


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = set(available_backends())
        assert {"statevector", "clifford", "classical", "resources"} <= names

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(BackendError, match="statevector"):
            get_backend("quantum-annealer")

    def test_custom_backend_registration(self):
        @register_backend
        class FakeBackend(Backend):
            name = "fake-for-test"
            capabilities = frozenset({"counts"})

            def run(self, bc, *, shots=None, in_values=None, seed=None):
                return RunResult(backend=self.name, shots=shots,
                                 counts={"0": shots or 1})

        try:
            result = get_backend("fake-for-test").run(None, shots=3)
            assert result.counts == {"0": 3}
        finally:
            from repro.backends.registry import _REGISTRY

            del _REGISTRY["fake-for-test"]

    def test_nameless_backend_rejected(self):
        class Nameless(Backend):
            pass

        with pytest.raises(BackendError):
            register_backend(Nameless)

    def test_constructor_options_forwarded(self):
        backend = get_backend("statevector", max_width=5)
        assert backend.max_width == 5


class TestStatevectorBackend:
    def test_shot_counts_acceptance(self):
        # The PR's acceptance criterion, verbatim.
        bc, _ = build(bell, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=1024)
        assert isinstance(result.counts, dict)
        assert sum(result.counts.values()) == 1024
        assert set(result.counts) <= {"00", "11"}

    def test_seeded_runs_reproduce(self):
        bc, _ = build(bell, qubit, qubit)
        backend = get_backend("statevector")
        a = backend.run(bc, shots=256, seed=11).counts
        b = backend.run(bc, shots=256, seed=11).counts
        assert a == b

    def test_measurement_free_run_is_batched(self):
        bc, _ = build(ghz, qubit, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=64, seed=0)
        assert result.metadata["batched"]
        assert set(result.counts) <= {"000", "111"}

    def test_trailing_measurements_still_batch(self):
        bc, _ = build(bell_measured, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=64, seed=0)
        assert result.metadata["batched"]
        assert set(result.counts) <= {"00", "11"}

    def test_mid_circuit_measurement_resimulates(self):
        def teleport_ish(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            return m, b

        bc, _ = build(teleport_ish, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=40, seed=1)
        assert not result.metadata["batched"]
        assert set(result.counts) <= {"00", "11"}
        assert sum(result.counts.values()) == 40

    def test_statevector_without_shots(self):
        bc, _ = build(bell, qubit, qubit)
        result = get_backend("statevector").run(bc)
        assert result.counts is None
        amplitudes = np.abs(result.statevector.ravel()) ** 2
        assert amplitudes == pytest.approx([0.5, 0, 0, 0.5])

    def test_in_values(self):
        def passthrough(qc, a, b):
            return a, b

        bc, _ = build(passthrough, qubit, qubit)
        wires = [w for w, _ in bc.circuit.inputs]
        result = get_backend("statevector").run(
            bc, shots=8, in_values={wires[0]: True}
        )
        assert result.counts == {"10": 8}

    def test_width_limit(self):
        bc, _ = build(bell, qubit, qubit)
        backend = get_backend("statevector", max_width=1)
        assert not backend.supports(bc)
        with pytest.raises(BackendError, match="width"):
            backend.run(bc, shots=1)

    def test_invalid_shots(self):
        bc, _ = build(bell, qubit, qubit)
        with pytest.raises(BackendError, match="shots"):
            get_backend("statevector").run(bc, shots=0)


class TestCliffordBackend:
    def test_bell_counts(self):
        bc, _ = build(bell, qubit, qubit)
        result = get_backend("clifford").run(bc, shots=128, seed=5)
        assert set(result.counts) == {"00", "11"}
        assert sum(result.counts.values()) == 128

    def test_agrees_with_statevector(self):
        bc, _ = build(ghz, qubit, qubit, qubit)
        sv = get_backend("statevector").run(bc, shots=400, seed=2).counts
        cl = get_backend("clifford").run(bc, shots=400, seed=2).counts
        assert set(sv) == set(cl) == {"000", "111"}
        assert abs(sv["000"] - cl["000"]) < 120  # both ~200

    def test_deterministic_run_without_shots(self):
        def flip(qc, a):
            qc.gate_X(a)
            return qc.measure(a)

        bc, _ = build(flip, qubit)
        result = get_backend("clifford").run(bc)
        assert list(result.bits.values()) == [True]

    @pytest.mark.parametrize("held", ("1", "0"))
    def test_classical_not_controlled_by_a_qubit_is_refused(self, held):
        # The statevector's refusal, whatever the classical control
        # holds: a set bit once reached the qubit as a bare KeyError,
        # and a clear one let the gate pass unchecked.
        prog = Program.loads(QUANTUM_CONTROLLED_CNOT.replace("CInit1",
                                                             f"CInit{held}"))
        for backend in ("clifford", "statevector"):
            for shots in (None, 4):
                for run in (prog.run, prog.stream().run):
                    with pytest.raises(SimulationError) as excinfo:
                        run(backend, shots=shots, seed=1)
                    assert str(excinfo.value) == (
                        "a classical NOT cannot be controlled by a qubit "
                        "(measurement would be required); restructure the "
                        "circuit"
                    )


def _reinit_circuit(seed: int):
    """A seeded circuit that re-initializes columns after a Term, a
    Discard or a Measure, with a single possible outcome.

    Scrambled qubits (H, S, CNOT among themselves) are released by a
    Discard or a Measure; basis-state qubits by a Term asserting their
    tracked value.  Every released id is then initialized again to a
    random value, permuted by X and CNOT, and measured, so the outcome
    depends only on the re-initialized columns being reset.
    """
    rnd = random.Random(f"clifford-reinit/{seed}")
    n = rnd.randint(2, 5)
    gates, values, released = [], {}, []
    scrambled = [w for w in range(n) if rnd.random() < 0.6]
    for w in range(n):
        values[w] = rnd.random() < 0.5
        gates.append(Init(w, values[w]))
    for w in scrambled:
        gates.append(NamedGate("H", (w,)))
        if rnd.random() < 0.5:
            gates.append(NamedGate("S", (w,)))
    for a, b in zip(scrambled, scrambled[1:]):
        gates.append(NamedGate("not", (b,), (Control(a),)))
    for w in range(n):
        kind = rnd.choice(("discard", "measure", "term"))
        if w in scrambled and kind == "term":
            kind = "discard"
        if kind == "term":
            gates.append(Term(w, values[w]))
        elif kind == "discard":
            gates.append(Discard(w))
        else:
            gates += [Measure(w), CDiscard(w)]
        released.append(w)
    for w in released:
        values[w] = rnd.random() < 0.5
        gates.append(Init(w, values[w]))
    for _ in range(rnd.randint(0, 6)):
        a, b = rnd.sample(range(n), 2)
        if rnd.random() < 0.5:
            gates.append(NamedGate("X", (a,)))
            values[a] = not values[a]
        else:
            gates.append(NamedGate("not", (b,), (Control(a),)))
            values[b] ^= values[a]
    gates += [Measure(w) for w in range(n)]
    key = "".join(str(int(values[w])) for w in range(n))
    return BCircuit(Circuit((), gates, tuple((w, "C") for w in range(n)))), key


class TestCliffordReinitialization:
    """A column released by Term, Discard or Measure and initialized
    again holds the new value, as on the statevector backend."""

    def test_init_after_term_one(self):
        bc = BCircuit(Circuit(
            (), [Init(0, True), Term(0, True), Init(0, False), Measure(0)],
            ((0, "C"),)))
        for backend in ("clifford", "statevector"):
            assert get_backend(backend).run(bc, shots=32, seed=1).counts \
                == {"0": 32}

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_reinitializations_agree(self, seed):
        bc, key = _reinit_circuit(seed)
        for backend in ("clifford", "statevector"):
            assert get_backend(backend).run(bc, shots=16, seed=seed).counts \
                == {key: 16}, backend
        stream = Program.from_bcircuit(bc).stream()
        assert stream.run("clifford", shots=16, seed=seed).counts \
            == {key: 16}


#: Uncontrolled Clifford gates with how each acts on a tracked basis
#: value; after a None the wire is no longer tracked.
_CLIFFORD_1Q = {"X": "flip", "Z": "keep", "S": "keep", "Y": "flip",
                "H": None, "S*": None}


def _pin_clifford_circuit(seed: int):
    """A seeded Clifford circuit and its input values.

    Quantum and classical inputs, ancillas, Term assertions on qubits
    in a known basis state, mid-circuit measurements that feed classical
    controls and classical NOTs, Discards, and columns initialized again
    after a Term, Discard or Measure released them.  Outcomes are random
    wherever a scrambled qubit is measured.
    """
    rnd = random.Random(f"clifford-pin/{seed}")
    n, m = rnd.randint(1, 4), rnd.randint(0, 2)
    inputs = [(w, "Q") for w in range(n)] + [(n + j, "C") for j in range(m)]
    in_values = {w: rnd.random() < 0.5 for w, _ in inputs}
    qubits = list(range(n))
    bits = list(range(n, n + m))
    basis = {w: in_values[w] for w in qubits}  # qubits in a basis state
    released: list[int] = []
    next_id = n + m
    gates = []

    def fresh() -> int:
        nonlocal next_id
        if released and rnd.random() < 0.7:
            return released.pop(rnd.randrange(len(released)))
        next_id += 1
        return next_id - 1

    for _ in range(rnd.randint(5, 24)):
        roll = rnd.random()
        if roll < 0.12 or not qubits:
            wire, value = fresh(), rnd.random() < 0.5
            gates.append(Init(wire, value))
            qubits.append(wire)
            basis[wire] = value
        elif roll < 0.42:
            name = rnd.choice(sorted(_CLIFFORD_1Q))
            wire = rnd.choice(qubits)
            controls = ()
            if bits and rnd.random() < 0.25:
                controls = (Control(rnd.choice(bits), rnd.random() < 0.5,
                                    "C"),)
            gates.append(NamedGate(name.rstrip("*"), (wire,), controls,
                                   inverted=name.endswith("*")))
            effect = _CLIFFORD_1Q[name]
            if effect is None or controls:
                basis.pop(wire, None)
            elif effect == "flip" and wire in basis:
                basis[wire] = not basis[wire]
        elif roll < 0.62 and len(qubits) >= 2:
            a, b = rnd.sample(qubits, 2)
            name = rnd.choice(("not", "Z", "swap"))
            if name == "swap":
                gates.append(NamedGate("swap", (a, b)))
                va, vb = basis.pop(a, None), basis.pop(b, None)
                if vb is not None:
                    basis[a] = vb
                if va is not None:
                    basis[b] = va
                continue
            gates.append(NamedGate(name, (b,), (Control(a, rnd.random() < 0.8),)))
            if name == "not" and a in basis and b in basis:
                basis[b] ^= basis[a] == gates[-1].controls[0].positive
            elif a not in basis or name == "not":
                basis.pop(a, None)
                basis.pop(b, None)
        elif roll < 0.74:
            wire = rnd.choice(qubits)
            qubits.remove(wire)
            if wire in basis and rnd.random() < 0.6:
                gates.append(Term(wire, basis.pop(wire)))
                released.append(wire)
            elif rnd.random() < 0.4:
                basis.pop(wire, None)
                gates.append(Discard(wire))
                released.append(wire)
            else:
                basis.pop(wire, None)
                gates.append(Measure(wire))
                bits.append(wire)
        elif roll < 0.84:
            wire = fresh()
            gates.append(CInit(wire, rnd.random() < 0.5))
            bits.append(wire)
        elif roll < 0.92 and bits:
            wire = rnd.choice(bits)
            others = [b for b in bits if b != wire]
            controls = tuple(Control(b, rnd.random() < 0.5, "C")
                             for b in rnd.sample(others, min(len(others), 2)))
            gates.append(CNot(wire, controls))
        elif bits:
            wire = rnd.choice(bits)
            bits.remove(wire)
            gates.append(CDiscard(wire))
            released.append(wire)
    outputs = [(w, "Q") for w in qubits] + [(w, "C") for w in bits]
    rnd.shuffle(outputs)
    bc = BCircuit(Circuit(tuple(inputs), tuple(gates), tuple(outputs)))
    bc.check()
    return bc, in_values


def _pin_digest(records) -> str:
    text = json.dumps(records, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedCliffordResults:
    """Seeded results of the Clifford simulator, pinned by SHA-256.

    Recorded while the backend, the streaming feed and
    ``run_clifford_generic`` each kept their own input loader, readout
    and tableau sizing; one growing state must reproduce them exactly.
    Columns are numbered inputs first, then by first ``Init``, and a
    spare |0> column never enters another column's measurement, so the
    random draws and their outcomes do not move.
    """

    def test_seeded_random_circuits(self):
        backend = get_backend("clifford")
        records, random_outcomes = [], 0
        for seed in range(150):
            bc, in_values = _pin_clifford_circuit(seed)
            sampled = backend.run(bc, shots=64, seed=seed,
                                  in_values=in_values).counts
            single = backend.run(bc, seed=seed, in_values=in_values)
            streamed = Program.from_bcircuit(bc).stream().run(
                "clifford", shots=16, seed=seed, in_values=in_values
            ).counts
            random_outcomes += len(sampled) > 1
            records.append([
                seed, sorted(sampled.items()),
                sorted(single.bits.items()), sorted(streamed.items()),
            ])
        assert random_outcomes >= 40
        assert _pin_digest(records) == (
            "ab0692adcef7dc6eaf8b7e78aab367ac6d74e2be7b044931550135dc912542b6"
        )

    def test_run_clifford_generic(self):
        from repro.sim import run_clifford_generic

        records = [
            [seed,
             list(run_clifford_generic(bell, False, True, seed=seed)),
             list(run_clifford_generic(ghz, True, False, False, seed=seed))]
            for seed in range(20)
        ]
        assert _pin_digest(records) == (
            "6cd5efcfd8d02ff3abf17c5d84ff8c54bc463bcc9453daf06eed8e4e09265c8b"
        )

    def test_equivalence_verdicts(self):
        from repro.backends.equiv import decide_equivalence

        wide = 24
        gates = [NamedGate("H", (w,)) for w in range(wide)]
        gates += [NamedGate("not", (w + 1,), (Control(w),))
                  for w in range(wide - 1)]
        inputs = tuple((w, "Q") for w in range(wide))
        chain = BCircuit(Circuit(inputs, tuple(gates), inputs))
        broken = BCircuit(Circuit(inputs, tuple(gates[1:]), inputs))
        phase = [NamedGate("H", (0,)),
                 NamedGate("phase", (), (), param=0.7),
                 NamedGate("H", (0,))]
        one = ((0, "Q"),)
        with_phase = BCircuit(Circuit(one, tuple(phase), one))
        without = BCircuit(Circuit(one, (phase[0], phase[2]), one))
        pairs = [(chain, chain), (chain, broken), (with_phase, without)]
        records = []
        for a, b in pairs:
            verdict = decide_equivalence(a, b, max_width=4)
            records.append([verdict.verdict, verdict.decider])
        for a, b in pairs[2:]:
            verdict = Program.from_bcircuit(a).equivalent_to(
                Program.from_bcircuit(b))
            records.append([verdict.verdict, verdict.decider])
        assert records[:3] == [["equivalent", "clifford"],
                               ["distinct", "clifford"],
                               ["equivalent", "clifford"]]
        assert _pin_digest(records) == (
            "3cab38c4339b957030fc4622a9b470799f0b7559a44d6589197bbba42451f778"
        )


class TestClassicalBackend:
    def test_toffoli_truth_table(self):
        def toffoli(qc, a, b, c):
            qc.qnot(c, controls=(a, b))
            return a, b, c

        bc, _ = build(toffoli, qubit, qubit, qubit)
        wires = [w for w, _ in bc.circuit.inputs]
        backend = get_backend("classical")
        for a in (False, True):
            for b in (False, True):
                result = backend.run(
                    bc, in_values={wires[0]: a, wires[1]: b}
                )
                key = "".join("1" if v else "0" for v in (a, b, a and b))
                assert result.counts == {key: 1}

    def test_shots_report_single_outcome(self):
        def ident(qc, a):
            return a

        bc, _ = build(ident, bit)
        result = get_backend("classical").run(bc, shots=100)
        assert result.counts == {"0": 100}


class TestResourceBackend:
    def test_resource_keys(self):
        bc, _ = build(ghz, qubit, qubit, qubit)
        res = get_backend("resources").run(bc).resources
        assert res["total_gates"] == 3
        assert res["width"] == 3
        assert res["depth"] == 3
        assert res["inputs"] == res["outputs"] == 3

    def test_counts_boxed_without_inlining(self):
        def inner(qc, a):
            qc.hadamard(a)
            return a

        def outer(qc, a):
            qc.box("sub", inner, a, repetitions=1000)
            return a

        bc, _ = build(outer, qubit)
        res = get_backend("resources").run(bc).resources
        assert res["total_gates"] == 1000
        assert res["subroutines"] == 1

    def test_report_formatting(self):
        from repro.backends import format_resource_report

        bc, _ = build(ghz, qubit, qubit, qubit)
        report = format_resource_report(get_backend("resources").run(bc))
        assert "Total gates: 3" in report
        assert "Depth: 3" in report


class TestRunResult:
    def test_probabilities(self):
        result = RunResult(backend="x", shots=4, counts={"0": 3, "1": 1})
        assert result.probabilities() == {"0": 0.75, "1": 0.25}

    def test_most_frequent(self):
        result = RunResult(backend="x", shots=4, counts={"0": 1, "1": 3})
        assert result.most_frequent() == "1"

    def test_countless_result_raises(self):
        result = RunResult(backend="x")
        with pytest.raises(BackendError):
            result.probabilities()
        with pytest.raises(BackendError):
            result.most_frequent()

    def test_marginal_counts(self):
        bc, _ = build(ghz, qubit, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=100, seed=9)
        first = bc.circuit.outputs[0][0]
        marg = marginal_counts(result, bc, [first])
        assert set(marg) <= {0, 1}
        assert sum(marg.values()) == 100

    def test_marginal_counts_rejects_non_output(self):
        bc, _ = build(ghz, qubit, qubit, qubit)
        result = get_backend("statevector").run(bc, shots=10, seed=9)
        with pytest.raises(BackendError):
            marginal_counts(result, bc, [99999])


class TestRunGeneric:
    def test_default_backend_counts(self):
        result = run_generic(bell, qubit, qubit, shots=64, seed=4)
        assert result.backend == "statevector"
        assert sum(result.counts.values()) == 64

    def test_backend_selection(self):
        result = run_generic(bell, qubit, qubit, backend="clifford",
                             shots=16, seed=4)
        assert result.backend == "clifford"

    def test_resources_via_run_generic(self):
        result = run_generic(ghz, qubit, qubit, qubit, backend="resources")
        assert result.resources["total_gates"] == 3


class TestRunnerEmit:
    def test_run_format_with_countless_backend(self, capsys):
        import argparse

        from repro.algorithms.runner import emit

        bc, _ = build(ghz, qubit, qubit, qubit)
        args = argparse.Namespace(
            fmt="run", backend="resources", shots=8, seed=None
        )
        assert emit(bc, args) == 2
        assert "does not produce counts" in capsys.readouterr().out
