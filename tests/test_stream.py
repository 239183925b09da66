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

import numpy as np
import pytest

from repro import Program, obs, qubit
from repro.core.errors import QuipperError
from repro.io import loads
from repro.io.qasm import QasmExportError
from repro.transform import to_toffoli

from repro.algorithms.bwt.main import bwt_program
from repro.algorithms.bf.main import hex_oracle_program
from repro.algorithms.cl.regulator import period_finding_circuit
from repro.algorithms.gse.main import gse_program
from repro.algorithms.qls import DEMO_B, DEMO_MATRIX
from repro.algorithms.qls.hhl import hhl_circuit
from repro.algorithms.tf.main import part_program
from repro.algorithms.usv.lattice import parity_kernel_matrix, planted_instance
from repro.algorithms.usv.usv import coset_sampling_circuit


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
