"""Streamed-vs-materialized equivalence suite + streaming memory ceiling.

The streaming engine's contract: every consumer of
``Program.stream()`` produces *exactly* what the materialized path
produces -- identical Counters, depths, resource dicts, interchange
text, QASM text, and (where the randomness stream lines up) identical
seeded samples -- while never materializing the main circuit.  The suite
pins that equivalence across all seven algorithm families and bounds the
memory of a >10M-logical-gate streamed count.
"""

from __future__ import annotations

import io
import itertools
import math
import random

import numpy as np
import pytest

from repro import Program, get_backend, obs, qubit
from repro.backends import BackendError
from repro.core.circuit import BCircuit, Circuit
from repro.core.errors import AssertionFailedError, QuipperError
from repro.core.gates import CDiscard, CGate, CNot, CTerm
from repro.core.wires import CLASSICAL, QUANTUM
from repro.io import loads
from repro.io.qasm import QasmExportError
from repro.sim import StateVector
from repro.transform import to_toffoli
from repro.transform.inline import compile_flat

from repro.algorithms.bwt.main import bwt_program
from repro.algorithms.bf.main import hex_oracle_program
from repro.algorithms.cl.regulator import period_finding_circuit
from repro.algorithms.gse.main import gse_program
from repro.algorithms.qls import DEMO_B, DEMO_MATRIX
from repro.algorithms.qls.hhl import hhl_circuit
from repro.algorithms.tf.main import part_program
from repro.algorithms.usv.lattice import parity_kernel_matrix, planted_instance
from repro.algorithms.usv.usv import coset_sampling_circuit
from families import SIMULATE, teleport_chain
from strategies import random_gates
from test_backends import _pin_clifford_circuit


def _usv_program() -> Program:
    basis, parity = planted_instance(3, 0)
    kernel = parity_kernel_matrix(parity, seed=0)
    return Program.from_bcircuit(
        coset_sampling_circuit(kernel), name="usv-coset"
    )


#: One small, fast instance per algorithm family of the paper's
#: evaluation.  Factories, not instances: streamed and materialized sides
#: each get an independent Program so the stream genuinely regenerates.
ALGORITHMS = {
    "bwt": lambda: bwt_program(2, 1, 0.3),
    "tf-pow17": lambda: part_program("pow17", 2, 2, 1, "simple"),
    "bf-hex": lambda: hex_oracle_program(2, 2),
    "gse": lambda: gse_program(2, 1.0, 1),
    "qls-hhl": lambda: Program.capture(
        lambda qc: hhl_circuit(qc, DEMO_MATRIX, DEMO_B, 2, math.pi / 2, 1.0),
        name="hhl",
    ),
    "cl": lambda: Program.capture(
        lambda qc: period_finding_circuit(qc, 4, 6), name="cl"
    ),
    "usv": _usv_program,
}

ALGO = pytest.mark.parametrize("name", sorted(ALGORITHMS))


@ALGO
class TestSevenAlgorithmEquivalence:
    """Acceptance: streamed consumers == materialized consumers, everywhere."""

    def test_gatecount(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        assert streamed.stream().count() == materialized.count()
        assert streamed.count(stream=True) == materialized.count()

    def test_depth_and_t_depth(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        assert streamed.stream().depth() == materialized.depth()
        assert streamed.stream().t_depth() == materialized.t_depth()

    def test_resources(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        assert streamed.resources(stream=True) == materialized.resources()

    def test_ascii_dump_roundtrip(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        fp = io.StringIO()
        streamed.dumps(fp=fp)
        text = fp.getvalue()
        assert text == materialized.dumps()
        reloaded = loads(text)
        assert reloaded.circuit == materialized.bcircuit.circuit
        assert {
            name: sub.circuit for name, sub in reloaded.namespace.items()
        } == {
            name: sub.circuit
            for name, sub in materialized.bcircuit.namespace.items()
        }
        # Custom QData shapes degrade to their tuple encoding on load, so
        # object equality is not the invariant -- but one load reaches the
        # text-level fixpoint.
        from repro.io import dumps as io_dumps

        stable = io_dumps(reloaded)
        assert io_dumps(loads(stable)) == stable

    def test_ascii_printer(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        fp = io.StringIO()
        streamed.ascii(fp=fp)
        assert fp.getvalue() == materialized.ascii() + "\n"

    def test_qasm_export(self, name):
        """Streamed QASM (with a fused binary decomposition in the
        stream) matches the materialized transform + export; circuits
        QASM 2 cannot express must fail identically on both paths."""
        materialized = ALGORITHMS[name]().transform("binary")
        streamed = ALGORITHMS[name]().stream("binary")
        try:
            expected = materialized.qasm()
        except QasmExportError:
            with pytest.raises(QasmExportError):
                streamed.write_qasm(io.StringIO())
            return
        fp = io.StringIO()
        streamed.write_qasm(fp)
        assert fp.getvalue() == expected

    def test_streamed_transform_counts(self, name):
        materialized = ALGORITHMS[name]().transform(to_toffoli)
        streamed = ALGORITHMS[name]().stream(to_toffoli)
        assert streamed.count() == materialized.count()

    def test_iteration_matches_stored_gates(self, name):
        materialized = ALGORITHMS[name]()
        streamed = ALGORITHMS[name]()
        assert list(streamed.stream()) == materialized.bcircuit.circuit.gates


class TestSimulationFeeds:
    """The statevector/clifford feeds track the materialized backends."""

    @staticmethod
    def _bell():
        def bell(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return a, b

        return Program.capture(bell, qubit, qubit)

    def test_statevector_state_equivalence_gse(self):
        reference = gse_program(2, 1.0, 1).run(seed=11)
        streamed = gse_program(2, 1.0, 1).stream().run(seed=11)
        assert streamed.bits == reference.bits
        assert np.allclose(streamed.statevector, reference.statevector)
        assert streamed.statevector_wires == reference.statevector_wires

    def test_batched_sampling_is_seed_exact(self):
        reference = self._bell().run(shots=512, seed=5)
        streamed = self._bell().stream().run(shots=512, seed=5)
        assert streamed.counts == reference.counts

    def test_mid_circuit_measurement_sampling_is_seed_exact(self):
        def midm(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            return m, b

        reference = Program.capture(midm, qubit, qubit).run(shots=64, seed=9)
        streamed = (
            Program.capture(midm, qubit, qubit).stream().run(shots=64, seed=9)
        )
        assert streamed.counts == reference.counts

    def test_clifford_feed_is_seed_exact(self):
        reference = self._bell().run("clifford", shots=64, seed=3)
        streamed = self._bell().stream().run("clifford", shots=64, seed=3)
        assert streamed.counts == reference.counts

    def test_clifford_feed_grows_tableau_mid_stream(self):
        def grower(qc, a):
            qc.hadamard(a)
            fresh = [qc.qinit_qubit(False) for _ in range(20)]
            for q in fresh:
                qc.qnot(q, controls=a)
            bits = qc.measure(fresh)
            qc.cdiscard(bits)
            return a

        reference = Program.capture(grower, qubit).run(
            "clifford", shots=32, seed=7
        )
        streamed = Program.capture(grower, qubit).stream().run(
            "clifford", shots=32, seed=7
        )
        assert streamed.counts == reference.counts

    def test_resources_backend_has_no_feed(self):
        from repro.backends import BackendError

        with pytest.raises(BackendError):
            self._bell().stream().run("resources")

    def test_statevector_feed_enforces_width_cap_on_inputs(self):
        from repro.backends import BackendError

        def wide(qc, qs):
            return qs

        program = Program.capture(wide, [qubit] * 5)
        with pytest.raises(BackendError, match="input qubits exceed"):
            program.stream().run(max_width=3)

    def test_statevector_feed_enforces_width_cap_before_allocating(self):
        from repro.backends import BackendError

        def grower(qc, a):
            fresh = [qc.qinit_qubit(False) for _ in range(6)]
            for q in fresh:
                qc.qterm(q)
            return a

        program = Program.capture(grower, qubit)
        with pytest.raises(BackendError, match="exceeded the statevector"):
            program.stream().run(max_width=4)


def _logic_circuit(trial):
    """A seeded :func:`~strategies.random_gates` circuit with mid-circuit
    measurement and classical logic on the measured and ``CInit`` bits;
    its outputs are the wires it leaves live."""
    rnd = random.Random(8300 + trial)
    n = rnd.randint(3, 5)
    gates = random_gates(
        rnd, n, gate_p=0.45, ancilla_p=0.1, cinit_p=0.08, fresh_p=0.1,
        classical_control_p=0.5, measure_p=0.6, logic_p=0.15,
    )
    sim = StateVector(rng=np.random.default_rng(trial))
    sim.add_qubits([(w, False) for w in range(n)])
    sim.run(gates)
    outputs = tuple([(w, QUANTUM) for w in sim.axes]
                    + [(w, CLASSICAL) for w in sim.bits])
    return BCircuit(Circuit(
        tuple((w, QUANTUM) for w in range(n)), tuple(gates), outputs))


def _replayed_counts(bc, shots, seed):
    """The counts of simulating every shot on its own: one batch-1 copy
    of the prefix state per shot, drawing from the shared generator as
    the gates ask, then measuring the quantum outputs.  Only a suffix
    that forks is sampled this way."""
    rng = np.random.default_rng(seed)
    base = StateVector(rng=rng)
    base.load_inputs(bc.circuit.inputs, {})
    compiled = compile_flat(bc)
    base.run(compiled.gates[:compiled.prefix_len])
    counts = {}
    for _ in range(shots):
        sim = base.copy()
        sim.run(compiled.gates[compiled.prefix_len:])
        key = "".join(
            "1" if (sim.measure_qubit(w) if t == QUANTUM else sim.bits[w])[0]
            else "0"
            for w, t in bc.circuit.outputs
        )
        counts[key] = counts.get(key, 0) + 1
    return counts


def _generations(run):
    """How many times *run* generated its stream, and its result."""
    with obs.capture() as rec:
        result = run()
    return rec.counters.get("stream.generations", 0), result


class TestOneSampler:
    """A stream is sampled by the statevector backend's one sampler.

    The first generation runs the prefix once and scans the rest; each
    fork batch regenerates the stream and runs its suffix alone.  So
    streamed counts are ``Program.run``'s, and both are the counts of
    simulating every shot on its own, at every ``batch=``, with the last
    batch ragged (29 shots).
    """

    @pytest.mark.parametrize("entry", sorted(SIMULATE))
    def test_catalogue_counts_equal_program_run(self, entry):
        make = SIMULATE[entry]
        bits = (False, True) if entry.startswith("teleport") else (None,)
        for bit in bits:
            fresh = (lambda: make(bit)) if bit is not None else make
            for batch in (None, 1, 3):
                stored = fresh().run(shots=29, seed=4, batch=batch)
                streamed = fresh().stream().run(shots=29, seed=4,
                                                batch=batch)
                assert streamed.counts == stored.counts, (bit, batch)
                assert streamed.metadata.get("batch") == \
                    stored.metadata.get("batch")

    def test_random_circuits_with_classical_logic(self):
        forked = logic = 0
        for trial in range(60):
            bc = _logic_circuit(trial)
            logic += any(isinstance(g, (CGate, CNot, CTerm, CDiscard))
                         for g in bc.circuit.gates)
            stream = Program.from_bcircuit(bc).stream()
            for batch in (None, 1, 3):
                stored = get_backend("statevector", batch=batch).run(
                    bc, shots=29, seed=trial)
                streamed = stream.run(shots=29, seed=trial, batch=batch)
                assert streamed.counts == stored.counts, (trial, batch)
            if not stored.metadata["batched"]:
                forked += 1
                assert stored.counts == _replayed_counts(bc, 29, trial), \
                    trial
        assert forked >= 40 and logic >= 40, (forked, logic)

    def test_one_generation_per_fork_batch(self):
        for batch, shots in ((None, 64), (1, 5), (3, 29), (8, 64)):
            count, result = _generations(
                lambda: teleport_chain(3, True).stream().run(
                    shots=shots, seed=2, batch=batch))
            b = result.metadata["batch"]
            assert count == 1 + -(-shots // b), (batch, shots)
        # Measured only at its end: drawn from the one prefix state.
        count, result = _generations(
            lambda: TestSimulationFeeds._bell().stream().run(
                shots=64, seed=1))
        assert count == 1 and result.metadata["batched"]
        count, _ = _generations(lambda: teleport_chain(3).stream().run())
        assert count == 1

    @pytest.mark.parametrize("where", ["prefix", "suffix", "missing"])
    def test_a_producer_that_changes_is_refused(self, where):
        runs = []

        def circ(qc, a, b):
            runs.append(None)
            again = len(runs) > 1
            qc.hadamard(a)
            if again and where == "prefix":
                qc.gate_X(b)
            m = qc.measure(a)
            if not (again and where == "missing"):
                qc.qnot(b, controls=m)
            if again and where == "suffix":
                qc.hadamard(b)
            return m, b

        program = Program.capture(circ, qubit, qubit)
        with pytest.raises(BackendError, match="different gates on a rerun"):
            program.stream().run(shots=8, seed=1)

    @pytest.mark.parametrize("where", ["prefix", "suffix"])
    def test_a_producer_that_swaps_a_gate_is_refused(self, where):
        # As many gates on every run, one of them different: Z on the
        # first run, X on the reruns.  The gate counts agree, so only
        # the running hash of each generation's gates tells them apart.
        runs = []

        def circ(qc, a, b):
            runs.append(None)
            flip = qc.gate_X if len(runs) > 1 else qc.gate_Z
            qc.hadamard(a)
            if where == "prefix":
                flip(b)
            m = qc.measure(a)
            qc.qnot(b, controls=m)
            if where == "suffix":
                flip(b)
            return m, b

        program = Program.capture(circ, qubit, qubit)
        with pytest.raises(BackendError, match="different gates on a rerun"):
            program.stream().run(shots=8, seed=1)
        assert len(runs) == 2  # the first generation, then one rerun

    def test_a_fork_past_the_width_cap_is_refused_first(self):
        def grower(qc, a):
            qc.hadamard(a)
            m = qc.measure(a)
            fresh = [qc.qinit_qubit(False) for _ in range(6)]
            for q in fresh:
                qc.qterm(q)
            return m

        program = Program.capture(grower, qubit)
        with obs.capture() as rec:
            with pytest.raises(BackendError,
                               match="exceeded the statevector"):
                program.stream().run(shots=8, seed=1, max_width=4)
        assert rec.counters["stream.generations"] == 1
        assert "sim.batch.forks" not in rec.counters


def _clifford_teleport(hops: int, bit: bool):
    """Teleport ``H|bit>`` along *hops* Bell pairs with Clifford gates
    alone, then undo the ``H``: every shot reads back *bit*."""

    def chain(qc):
        src = qc.qinit_qubit(bit)
        qc.hadamard(src)
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

    return Program.capture(chain, name=f"clifford-teleport({hops})")


class TestOneCliffordSampler:
    """The Clifford backend runs the prefix once and each shot's suffix
    on a copy of its tableau, for stored circuits and streams alike; a
    ``Term`` is checked without drawing."""

    def test_streamed_counts_equal_stored(self):
        backend = get_backend("clifford")
        suffixes = 0
        for seed in range(60):
            bc, in_values = _pin_clifford_circuit(seed)
            stored = backend.run(bc, shots=24, seed=seed,
                                 in_values=in_values)
            streamed = Program.from_bcircuit(bc).stream().run(
                "clifford", shots=24, seed=seed, in_values=in_values)
            assert streamed.counts == stored.counts, seed
            suffixes += compile_flat(bc).prefix_len < len(compile_flat(bc))
        assert suffixes >= 30
        for hops in (1, 3):
            for bit in (False, True):
                stored = _clifford_teleport(hops, bit).run(
                    "clifford", shots=16, seed=hops)
                streamed = _clifford_teleport(hops, bit).stream().run(
                    "clifford", shots=16, seed=hops)
                assert streamed.counts == stored.counts == {
                    str(int(bit)): 16}

    def test_one_generation_per_shot_with_a_suffix(self):
        count, _ = _generations(
            lambda: _clifford_teleport(2, True).stream().run(
                "clifford", shots=7, seed=1))
        assert count == 1 + 7
        count, _ = _generations(
            lambda: TestSimulationFeeds._bell().stream().run(
                "clifford", shots=7, seed=1))
        assert count == 1

    def test_h_then_term_always_fails(self):
        def in_prefix(qc, a, b):
            qc.hadamard(a)
            qc.qterm(a)
            return b

        def in_suffix(qc, a, b):
            qc.hadamard(b)
            m = qc.measure(b)
            qc.hadamard(a)
            qc.qterm(a)
            return m

        for circ in (in_prefix, in_suffix):
            for seed in range(20):
                for shots in (None, 1, 2, 64):
                    program = Program.capture(circ, qubit, qubit)
                    for run in (program.run, program.stream().run):
                        with pytest.raises(AssertionFailedError):
                            run("clifford", shots=shots, seed=seed)


def _repeated_subroutine_program(repetitions: int) -> Program:
    """~8 gates per body, iterated ``repetitions`` times in place."""

    def body(qc, qs):
        with qc.ancilla() as a:
            for q in qs:
                qc.qnot(a, controls=q)
        qc.hadamard(qs[0])
        qc.gate_T(qs[1])
        return qs

    def circ(qc, qs):
        qc.nbox("step", repetitions, body, qs)
        return qs

    return Program.capture(circ, [qubit] * 3, name="repeated")


class TestMemoryCeiling:
    """Acceptance: >10M logical gates resource-count in O(body) memory."""

    def test_ten_million_gate_count_under_memory_budget(self):
        program = _repeated_subroutine_program(2_000_000)
        with obs.capture(memory=True) as rec:
            counts = program.stream().count()
        peak = rec.peak_memory
        assert sum(counts.values()) > 10_000_000
        # The count is symbolic (body counted once, multiplied through
        # the repetition factor): peak allocation stays in the kilobyte
        # range.  16 MiB is two orders of magnitude of headroom.
        assert peak < 16 * 1024 * 1024
        # Nothing was cached on the Program either -- the circuit was
        # never generated.
        assert repr(program).endswith("(lazy)>")

    def test_many_emitted_gates_stream_in_bounded_memory(self):
        """A stream of 100k *emitted* top-level gates allocates O(1) per
        gate -- the gates are dropped as they flow past."""

        def circ(qc, qs):
            for _ in range(25_000):
                qc.hadamard(qs[0])
                qc.qnot(qs[1], controls=qs[0])
                qc.gate_T(qs[1])
                qc.qnot(qs[1], controls=qs[0])
            return qs

        program = Program.capture(circ, [qubit] * 2)
        with obs.capture(memory=True) as rec:
            counts = program.stream().count()
        assert sum(counts.values()) == 100_000
        assert rec.peak_memory < 8 * 1024 * 1024
        # The telemetry layer saw the same stream it measured: the
        # retention histogram exists only if with_computed ran (it did
        # not here), but the stream span must be present.
        assert any(s.name == "stream" for s in rec.spans)

    def test_resources_of_large_repeated_stream(self):
        program = _repeated_subroutine_program(2_000_000)
        resources = program.stream().resources()
        assert resources["total_gates"] > 10_000_000
        reference = _repeated_subroutine_program(2_000_000)
        assert resources["width"] == reference.bcircuit.check()
        assert resources["depth"] == reference.depth()


class TestStreamMechanics:
    """The plumbing: iteration, re-running, buffering, error paths."""

    def test_early_break_unwinds_the_producer(self):
        program = _repeated_subroutine_program(5)

        def endless(qc, qs):
            for _ in range(10_000):
                qc.hadamard(qs[0])
            return qs

        stream = Program.capture(endless, [qubit]).stream()
        first = list(itertools.islice(iter(stream), 7))
        assert len(first) == 7
        # The stream handle is reusable: a fresh full pass still works.
        assert stream.total_gates() == 10_000
        assert program.stream().total_gates() > 0

    def test_producer_errors_propagate_through_iteration(self):
        def broken(qc, a):
            qc.hadamard(a)
            raise RuntimeError("mid-generation failure")

        stream = Program.capture(broken, qubit).stream()
        with pytest.raises(RuntimeError, match="mid-generation"):
            list(stream)

    def test_with_computed_buffers_only_the_compute_block(self):
        def circ(qc, qs):
            def compute():
                qc.hadamard(qs[0])
                with qc.ancilla() as a:
                    qc.qnot(a, controls=qs[1])

                    def inner():
                        qc.gate_T(a)

                    qc.with_computed(inner, lambda _: qc.gate_S(a))
                return None

            qc.with_computed(compute, lambda _: qc.gate_Z(qs[0]))
            return qs

        materialized = Program.capture(circ, [qubit] * 2)
        streamed = Program.capture(circ, [qubit] * 2)
        assert streamed.stream().count() == materialized.count()
        fp = io.StringIO()
        streamed.dumps(fp=fp)
        assert fp.getvalue() == materialized.dumps()

    def test_streaming_builder_cannot_finish(self):
        from repro.core.stream import StreamingCirc

        qc = StreamingCirc(lambda g: None)
        with pytest.raises(QuipperError):
            qc.finish()

    def test_built_program_streams_by_replay(self):
        program = self_captured = ALGORITHMS["gse"]()
        program.bcircuit  # force the build; stream() must replay it
        assert program.stream().count() == self_captured.count()

    def test_stream_repr_names_the_program(self):
        stream = _repeated_subroutine_program(3).stream(to_toffoli)
        assert "repeated" in repr(stream)


class TestReusedWireIds:
    """A wire id can come back after its wire dies; the streamed depth
    must serialize the new life after the old one, as the materialized
    depth does."""

    def test_qasm_import_reusing_a_terminated_column(self):
        text = "\n".join([
            "OPENQASM 2.0;",
            'include "qelib1.inc";',
            "qreg q[2];",
            *["h q[0];"] * 4,
            "// assert q[0] == |0> (quipper termination)",
            "h q[1];",
            "h q[0];",
            "cx q[0], q[1];",
        ]) + "\n"
        program = Program.loads_qasm(text)
        assert program.depth() == program.stream().depth() == 8

    def test_with_computed_recreates_its_ancilla(self):
        def circ(qc, a, b):
            def compute():
                with qc.ancilla() as anc:
                    for _ in range(3):
                        qc.hadamard(anc)

            qc.with_computed(compute, lambda _: qc.hadamard(b))
            return a, b

        materialized = Program.capture(circ, qubit, qubit)
        streamed = Program.capture(circ, qubit, qubit)
        assert streamed.stream().depth() == materialized.depth() == 10
