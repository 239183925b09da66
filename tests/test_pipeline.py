"""Fused transformer pipeline tests.

The contract under test: ``transform_bcircuit_fused(bc, r1, ..., rk)``
produces the same circuit as folding the legacy one-rule-per-pass
transformer over the rules (up to ancilla numbering), while traversing
every subroutine body exactly once, reusing untouched subroutine objects,
and reporting dangling wires at ``finish``.
"""

from __future__ import annotations

import pytest

from repro import build, qubit
from repro.core.builder import Circ
from repro.core.errors import DanglingWiresError, DanglingWiresWarning
from repro.core.gates import Gate, NamedGate
from repro.transform import (
    BINARY,
    aggregate_gate_count,
    canonicalize_wires,
    decompose_generic,
    fixpoint_rule,
    to_binary,
    to_toffoli,
    transform_bcircuit,
    transform_bcircuit_fused,
)
from repro.transform.transformer import _legacy_transform_bcircuit

from test_io import random_bcircuit


# ---------------------------------------------------------------------------
# Rules used throughout: total on arbitrary gate streams (never raise).
# ---------------------------------------------------------------------------


def s_to_tt(qc: Circ, gate: Gate):
    """Rewrite S into T;T (and S* into T*;T*)."""
    if isinstance(gate, NamedGate) and gate.name == "S":
        half = NamedGate(
            "T", gate.targets, gate.controls, inverted=gate.inverted
        )
        qc._emit_raw(half)
        qc._emit_raw(half)
        return True
    return False


def h_to_xyx(qc: Circ, gate: Gate):
    """Rewrite H into X;Y;X (not unitarily meaningful; stresses fusion)."""
    if isinstance(gate, NamedGate) and gate.name == "H":
        for name in ("X", "Y", "X"):
            qc._emit_raw(NamedGate(name, gate.targets, gate.controls))
        return True
    return False


def _sequential(bc, *rules):
    for rule in rules:
        bc = _legacy_transform_bcircuit(bc, rule)
    return bc


class TestFusedEquivalence:
    """Satellite: randomized fused-vs-sequential equivalence."""

    @pytest.mark.parametrize("seed", range(25))
    def test_fused_matches_sequential_on_random_circuits(self, seed):
        """.transform(r1, r2) == sequential transform o transform, across
        the gate-constructor generators of test_io."""
        bc = random_bcircuit(seed)
        rules = (to_toffoli, s_to_tt)
        seq = _sequential(bc, *rules)
        fused = transform_bcircuit_fused(bc, *rules)
        assert canonicalize_wires(fused) == canonicalize_wires(seq)
        assert aggregate_gate_count(fused) == aggregate_gate_count(seq)
        fused.check()

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_three_rule_chain(self, seed):
        bc = random_bcircuit(seed)
        rules = (to_toffoli, h_to_xyx, s_to_tt)
        seq = _sequential(bc, *rules)
        fused = transform_bcircuit_fused(bc, *rules)
        assert canonicalize_wires(fused) == canonicalize_wires(seq)

    def test_single_rule_is_gate_for_gate_identical(self):
        """One fused stage reproduces the legacy pass exactly (same ids)."""
        bc = random_bcircuit(7)
        assert transform_bcircuit_fused(bc, to_toffoli) == (
            _legacy_transform_bcircuit(bc, to_toffoli)
        )

    def test_empty_chain_is_identity(self):
        bc = random_bcircuit(3)
        assert transform_bcircuit_fused(bc) is bc


def _boxed_circuit():
    """Two nested boxes: outer calls inner, main calls outer twice."""

    def inner(qc, a, b):
        qc.gate_S(a)
        qc.qnot(b, controls=a)
        return a, b

    def outer(qc, a, b, c):
        a, b = qc.box("inner", inner, a, b)
        qc.hadamard(c, controls=(a, b))  # 2 controls: toffoli rule fires
        return a, b, c

    def main_fn(qc, a, b, c):
        a, b, c = qc.box("outer", outer, a, b, c)
        a, b, c = qc.box("outer", outer, a, b, c)
        return a, b, c

    return build(main_fn, qubit, qubit, qubit)[0]


class TestSingleTraversal:
    """Acceptance: each subroutine body is traversed exactly once."""

    @staticmethod
    def _counting_rule(log: list, tag: str):
        def rule(qc: Circ, gate: Gate):
            log.append((tag, id(gate)))
            return False

        rule.__name__ = f"count_{tag}"
        return rule

    def test_each_body_traversed_once_by_each_stage(self):
        bc = _boxed_circuit()
        log: list = []
        rules = tuple(
            self._counting_rule(log, tag) for tag in ("r1", "r2", "r3")
        )
        transform_bcircuit_fused(bc, *rules)
        stored = [
            id(g) for g in bc.circuit.gates
        ] + [
            id(g)
            for sub in bc.namespace.values()
            for g in sub.circuit.gates
        ]
        # Every stored gate flowed through every rule exactly once: 3 rules
        # x 1 traversal, never 3 rules x 3 traversals.
        for tag in ("r1", "r2", "r3"):
            seen = [g for t, g in log if t == tag]
            assert sorted(seen) == sorted(stored)
            assert len(seen) == len(set(seen))
        assert len(log) == 3 * len(stored)

    def test_sequential_passes_traverse_k_times(self):
        """The cost model the fusion removes: k passes = k traversals."""
        bc = _boxed_circuit()
        log: list = []
        rule = self._counting_rule(log, "r")
        _sequential(bc, rule, rule, rule)
        stored = len(bc.circuit.gates) + sum(
            len(s.circuit.gates) for s in bc.namespace.values()
        )
        assert len(log) == 3 * stored  # same totals, but 3 full rewrites


class TestIdentityReuse:
    """Satellite bugfix: untouched subroutine bodies are reused."""

    def test_noop_rule_reuses_subroutines_and_width(self):
        bc = _boxed_circuit()
        bc.check()
        inner = bc.namespace["inner"]
        out = transform_bcircuit(bc, lambda qc, gate: False)
        assert out.namespace["inner"] is inner
        assert out.namespace["outer"] is bc.namespace["outer"]
        assert out == bc

    def test_changed_callee_invalidates_cached_width_of_reused_caller(self):
        bc = _boxed_circuit()
        bc.check()

        def touch_s(qc, gate):
            # Rewrites only the S gate, which lives in "inner": "outer"
            # is untouched and must be reused, but its transient width
            # depends on inner's.
            if isinstance(gate, NamedGate) and gate.name == "S":
                with qc.ancilla():
                    qc._emit_raw(gate)
                return True
            return False

        original_width = bc.namespace["outer"].width(bc.namespace)
        out = transform_bcircuit(bc, touch_s)
        assert out.namespace["inner"] is not bc.namespace["inner"]
        assert out.namespace["outer"] is bc.namespace["outer"]
        assert out.check() == original_width + 1  # ancilla widened the peak

    def test_derived_namespace_keeps_the_source_order(self):
        """Bodies are rewritten callees first, but a derived namespace
        lists its names in the source's order, callers first included."""
        from repro.core.circuit import BCircuit

        built = _boxed_circuit()
        callers_first = BCircuit(
            built.circuit, dict(reversed(built.namespace.items()))
        )
        for bc in (built, callers_first):
            order = list(bc.namespace)
            for out in (transform_bcircuit(bc, to_toffoli),
                        _legacy_transform_bcircuit(bc, to_toffoli)):
                assert list(out.namespace) == order
                assert out.check() == bc.check() + 1

    def test_rule_touching_only_main_reuses_all_subroutines(self):
        bc = _boxed_circuit()
        out = transform_bcircuit(bc, to_toffoli)  # 2-control H is in outer
        assert out.namespace["inner"] is bc.namespace["inner"]
        assert out.namespace["outer"] is not bc.namespace["outer"]


class TestStreamedWidthCaches:
    """Subroutine widths cannot go stale through the streaming
    consumers.

    A width is only right for the namespace state it was computed
    against: the streamed resource report must see in-place body edits
    and rewritten callees -- and a boxed function *re-entered with a
    different shape* mid-stream (which mints a new ``name#2`` namespace
    key) must never inherit the width of the earlier shape.
    """

    @staticmethod
    def _reentrant_program():
        from repro import Program

        def body(qc, qs):
            with qc.ancilla() as a:
                for q in qs:
                    qc.qnot(a, controls=q)
            return qs

        def circ(qc, qs):
            qc.box("f", body, qs[:2])  # narrow shape first: key "f"
            qc.box("f", body, qs)      # re-entered wider: key "f#2"
            return qs

        return Program.capture(circ, [qubit] * 5)

    def test_streamed_reentry_with_different_shape_recomputes_width(self):
        materialized = self._reentrant_program()
        streamed = self._reentrant_program().stream().resources()
        assert streamed["width"] == materialized.bcircuit.check()
        assert streamed["gate_counts"] == dict(materialized.count())
        # Both shape variants were minted as distinct namespace entries.
        assert streamed["subroutines"] == 2

    def test_streamed_replay_drops_stale_width_caches(self):
        """An in-place body edit after a check() must not leak the old
        cached width into a streamed resource count (exactly as
        BCircuit.check invalidates before recomputing)."""
        from repro import Program
        from repro.core.gates import Init, Term

        bc = _boxed_circuit()
        bc.check()
        # Widen "inner" in place: an extra ancilla alive across the body.
        inner = bc.namespace["inner"].circuit
        inner.gates.insert(0, Init(99, False))
        inner.gates.append(Term(99, False))
        streamed = Program.from_bcircuit(bc).stream().resources()["width"]
        assert streamed == bc.check()

    def test_streamed_rules_drop_stale_width_caches_of_reused_subs(self):
        """A rule-stream reuses untouched Subroutine objects; their
        pre-stream width caches must be re-validated, not trusted (the
        no-rules guard alone does not see the transform's namespace)."""
        from repro import Program
        from repro.core.gates import Init, Term

        bc = _boxed_circuit()
        bc.check()  # populate caches
        inner = bc.namespace["inner"].circuit
        inner.gates.insert(0, Init(99, False))
        inner.gates.append(Term(99, False))

        def noop(qc, gate):
            return False

        streamed = Program.from_bcircuit(bc).stream(noop).resources()
        assert streamed["width"] == bc.check()


class TestSourceWidthAfterDerivedQueries:
    """Querying a derived hierarchy's width leaves the source's widths
    alone: ``outer`` calls ``inner``, whose 3-control NOT takes an
    ancilla in the Toffoli base, so the lowered width is 5 and the
    source's stays 4 (the two hierarchies share the reused ``outer``)."""

    @staticmethod
    def _program():
        from repro import Program

        def inner(qc, a, b, c, d):
            qc.qnot(d, controls=(a, b, c))
            return a, b, c, d

        def outer(qc, *qs):
            return qc.box("inner", inner, *qs)

        def main(qc, *qs):
            return qc.box("outer", outer, *qs)

        return Program.capture(main, *[qubit] * 4)

    @staticmethod
    def _assert_source_width(bc):
        assert bc.namespace["outer"].width(bc.namespace) == 4
        assert bc.circuit.check(bc.namespace) == 4
        assert bc.check() == 4

    def test_transformed_width_query(self):
        program = self._program()
        lowered = program.transform("toffoli")
        assert lowered.width() == 5
        assert lowered.bcircuit.namespace["outer"] is (
            program.bcircuit.namespace["outer"]
        )
        self._assert_source_width(program.bcircuit)

    def test_streamed_resources_of_a_built_program(self):
        program = self._program()
        bc = program.bcircuit
        assert program.stream("toffoli").resources()["width"] == 5
        self._assert_source_width(bc)


class TestStreamTransformer:
    """The streaming rule chain matches the fused materializing pipeline."""

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_streamed_rules_match_fused(self, seed):
        from repro import Program

        bc = random_bcircuit(seed)
        rules = (to_toffoli, s_to_tt)
        fused = transform_bcircuit_fused(bc, *rules)
        streamed = Program.from_bcircuit(bc).stream(*rules)
        assert streamed.count() == aggregate_gate_count(fused)

    def test_streamed_chain_reuses_untouched_subroutines(self):
        from repro.core.stream import replay_bcircuit
        from repro.transform.pipeline import StreamTransformer
        from repro.core.stream import StreamConsumer

        bc = _boxed_circuit()
        bc.check()

        class _Probe(StreamConsumer):
            def finish(self, end):
                return end.namespace

        transformer = StreamTransformer((to_toffoli,), _Probe())
        namespace = replay_bcircuit(bc, transformer)
        # The 2-control H lives in "outer": rewritten.  "inner" is
        # untouched and the original object reused.
        assert namespace["inner"] is bc.namespace["inner"]
        assert namespace["outer"] is not bc.namespace["outer"]

    def test_streamed_chain_invalidates_reused_callers_of_changed_bodies(self):
        from repro.core.stream import StreamConsumer, replay_bcircuit
        from repro.transform.pipeline import StreamTransformer

        bc = _boxed_circuit()
        bc.check()
        original_outer_width = bc.namespace["outer"].width(bc.namespace)

        def touch_s(qc, gate):
            if isinstance(gate, NamedGate) and gate.name == "S":
                with qc.ancilla():
                    qc._emit_raw(gate)
                return True
            return False

        class _Probe(StreamConsumer):
            def finish(self, end):
                return end.namespace

        namespace = replay_bcircuit(
            bc, StreamTransformer((touch_s,), _Probe())
        )
        # "inner" (holds the S) was rewritten; "outer" is reused but its
        # transient width depends on inner's.
        assert namespace["inner"] is not bc.namespace["inner"]
        assert namespace["outer"] is bc.namespace["outer"]
        assert namespace["outer"].circuit.check(namespace) == (
            original_outer_width + 1
        )


class TestStreamStagesOnDeepChains:
    """The streamed transform and optimize stages rewrite bodies through
    the callee-first memo: a chain of boxes deeper than the Python stack
    streams like any other, and a cycle is still reported."""

    def test_deep_chain_streams_without_recursion(self):
        from repro import Program

        from test_qasm_import import _doubling_chain

        program = Program.loads_qasm(_doubling_chain(2000))
        expected = {("H", 0, 0): 2 ** 1999}
        assert program.stream("toffoli").count() == expected
        assert program.stream().optimize().count() == expected

    def test_a_cycle_is_reported(self):
        from repro import Program
        from repro.core.circuit import BCircuit, Circuit, Subroutine
        from repro.core.errors import QuipperError
        from repro.core.gates import BoxCall

        def calling(callee):
            ends = ((0, "Q"),)
            return Circuit(ends, [BoxCall(callee, ends, ends)], ends)

        namespace = {"a": Subroutine("a", calling("b")),
                     "b": Subroutine("b", calling("a"))}
        program = Program.from_bcircuit(BCircuit(calling("a"), namespace))
        for stream in (program.stream("toffoli"), program.stream().optimize()):
            with pytest.raises(QuipperError, match="recursive subroutine"):
                stream.count()


class TestFusedGateBases:
    """The fused toffoli+binary chain matches decompose_generic."""

    def test_binary_chain_matches_legacy_fixpoint(self):
        bc = _boxed_circuit()
        legacy = decompose_generic(BINARY, bc)
        fused = transform_bcircuit_fused(bc, to_toffoli, to_binary)
        assert aggregate_gate_count(fused) == aggregate_gate_count(legacy)
        assert canonicalize_wires(fused) == canonicalize_wires(legacy)

    def test_fixpoint_marker_round_trip(self):
        assert getattr(to_binary, "_fused_fixpoint", False)
        assert not getattr(to_toffoli, "_fused_fixpoint", False)
        rewrapped = fixpoint_rule(s_to_tt)
        assert getattr(rewrapped, "_fused_fixpoint", False)


class TestFinishDanglingWires:
    """Satellite bugfix: finish(outputs) reports leftover live wires."""

    @staticmethod
    def _leaky(qc, a, b):
        qc.hadamard(a)
        qc.hadamard(b)
        return a  # b stays live and undeclared

    def test_warn_mode_emits_structured_warning(self):
        with pytest.warns(DanglingWiresWarning) as record:
            bc, outs = build(self._leaky, qubit, qubit)
        assert record[0].category is DanglingWiresWarning
        warning = record[0].message
        assert warning.wires == ((1, "Q"),)
        # Back-compatible repackaging still happens.
        assert bc.circuit.out_arity == 2
        assert isinstance(outs, tuple) and len(outs) == 2

    def test_error_mode_raises(self):
        with pytest.raises(DanglingWiresError) as excinfo:
            build(self._leaky, qubit, qubit, on_extra="error")
        assert excinfo.value.wires == ((1, "Q"),)

    def test_ignore_mode_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bc, _ = build(self._leaky, qubit, qubit, on_extra="ignore")
        assert bc.circuit.out_arity == 2

    def test_clean_finish_never_warns(self):
        import warnings

        def clean(qc, a, b):
            qc.hadamard(a)
            return a, b

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build(clean, qubit, qubit)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build(self._leaky, qubit, qubit, on_extra="explode")
