"""Fused transformer pipeline tests.

The contract under test: ``transform_bcircuit_fused(bc, r1, ..., rk)``
produces the same circuit as folding the legacy one-rule-per-pass
transformer over the rules (up to ancilla numbering), while traversing
every subroutine body exactly once, reusing untouched subroutine objects,
and reporting dangling wires at ``finish``.
"""

from __future__ import annotations

import random

import pytest

from repro import build, qubit
from repro.core.builder import Circ
from repro.core.circuit import BCircuit, Circuit, Subroutine, track_gate
from repro.core.errors import (DanglingWiresError, DanglingWiresWarning,
                               QuipperError)
from repro.core.gates import BoxCall, Control, Gate, NamedGate
from repro.core.stream import StreamConsumer, replay_bcircuit
from repro.core.wires import CLASSICAL, QUANTUM
from repro.transform import (
    aggregate_gate_count,
    canonicalize_wires,
    fixpoint_rule,
    to_binary,
    to_toffoli,
    transform_bcircuit,
    transform_bcircuit_fused,
)
from repro.transform.binary import _binary_rule
from repro.transform.inline import _max_wire_id
from repro.transform.pipeline import StreamTransformer
from repro.transform.transformer import _legacy_transform_bcircuit

from families import COMPILE, ESTIMATE
from strategies import random_gates, superpose
from test_io import random_bcircuit
from test_liveness import (CASES, CORRUPTIONS, ECHOED_FAN_OUT, INPUTS,
                           _namespace, _seeded_inputs)


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


def _uncalled_body_text() -> str:
    """A one-gate main circuit next to a body it never calls."""
    from repro import Program

    def body(qc, a, b, c, d):
        qc.hadamard(a, controls=(b, c, d))
        return a, b, c, d

    def caller(qc, a, b, c, d):
        return qc.box("body", body, a, b, c, d)

    def main_fn(qc, a, b, c, d):
        qc.qnot(d, controls=(a, b, c))
        return a, b, c, d

    namespace = build(caller, qubit, qubit, qubit, qubit)[0].namespace
    main = build(main_fn, qubit, qubit, qubit, qubit)[0].circuit
    return Program.from_bcircuit(BCircuit(main, namespace)).dumps()


class _NamespaceProbe(StreamConsumer):
    def finish(self, end):
        return end.namespace


class TestStreamedBodies:
    """A streamed transform rewrites every body, called or not, and ends
    in the source's namespace order, as the materialized one does."""

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    @pytest.mark.parametrize("entry", ["uncalled", *COMPILE])
    def test_streamed_dump_is_the_materialized_transform(self, entry, base):
        import io

        from repro import Program
        from repro.io import loads

        text = (_uncalled_body_text() if entry == "uncalled"
                else COMPILE[entry]().dumps())
        source = Program.loads(text)
        materialized = source.transform(base).bcircuit
        fp = io.StringIO()
        Program.loads(text).stream(base).dump(fp)
        streamed = loads(fp.getvalue())
        # The stream draws main-circuit ancillas from
        # STREAM_TRANSFORM_BASE, so wire ids agree only canonicalized.
        assert canonicalize_wires(streamed) == canonicalize_wires(materialized)
        rules = (to_toffoli,) if base == "toffoli" else (to_toffoli, to_binary)
        namespace = replay_bcircuit(
            source.bcircuit, StreamTransformer(rules, _NamespaceProbe())
        )
        assert list(namespace) == list(materialized.namespace)
        if entry == "uncalled":
            assert list(namespace) == ["body"]

    @pytest.mark.parametrize("entry", ["uncalled", *COMPILE])
    def test_streamed_optimize_bodies_are_the_materialized_ones(self, entry):
        import io

        from repro import Program
        from repro.io import loads
        from repro.optimize import StreamOptimizer, optimize_bcircuit

        text = (_uncalled_body_text() if entry == "uncalled"
                else COMPILE[entry]().dumps())
        lowered = Program.loads(text).transform("binary")
        materialized = optimize_bcircuit(lowered.bcircuit)
        namespace = replay_bcircuit(
            lowered.bcircuit, StreamOptimizer((), _NamespaceProbe())
        )
        assert list(namespace) == list(materialized.namespace)
        assert namespace == materialized.namespace
        fp = io.StringIO()
        lowered.stream().optimize().dump(fp)
        assert list(loads(fp.getvalue()).namespace) == list(namespace)
        if entry == "uncalled":
            assert list(namespace) == ["body"]


def conjugate_by_h(qc: Circ, gate: Gate):
    """Conjugate a controlled one-target gate by H on its target, with
    ``with_basis_change`` (not unitarily meaningful; exercises it)."""
    if (isinstance(gate, NamedGate) and gate.controls
            and len(gate.targets) == 1):
        qc.with_basis_change(
            lambda: qc._emit_raw(NamedGate("H", gate.targets)),
            lambda: qc._emit_raw(gate),
        )
        return True
    return False


def and_into_ancilla(qc: Circ, gate: Gate):
    """Control a multiply-controlled gate by one ancilla that
    ``with_computed`` sets to its controls' AND and uncomputes."""
    if isinstance(gate, NamedGate) and len(gate.controls) > 1:
        def compute():
            anc = qc.qinit_qubit(False)
            qc._emit_raw(NamedGate("not", (anc.wire_id,), gate.controls))
            return anc

        qc.with_computed(compute, lambda anc: qc._emit_raw(NamedGate(
            gate.name, gate.targets, (Control(anc.wire_id, True, QUANTUM),),
            gate.inverted, gate.param,
        )))
        return True
    return False


def _controlled_z_circuit() -> BCircuit:
    """Singly and multiply controlled Z gates in a box and in main."""

    def body(qc, a, b, c):
        qc.gate_Z(c, controls=(a, b))
        qc.gate_Z(b, controls=a)
        return a, b, c

    def main_fn(qc, a, b, c, d):
        a, b, c = qc.box("body", body, a, b, c)
        qc.gate_Z(a, controls=(b, c, d))
        qc.gate_Z(d, controls=c)
        return a, b, c, d

    return build(main_fn, qubit, qubit, qubit, qubit)[0]


class TestRulesThatUncompute:
    """A rule may use ``with_computed`` and ``with_basis_change`` on its
    builder, stored or streamed, as on a plain ``Circ``."""

    RULES = {"basis_change": conjugate_by_h, "ancilla": and_into_ancilla}

    @pytest.mark.parametrize("rule", RULES)
    @pytest.mark.parametrize("seed", [None, *range(0, 25, 5)])
    def test_rule_matches_the_plain_builder(self, rule, seed):
        import io

        from repro import Program
        from repro.io import loads

        rule = self.RULES[rule]
        bc = _controlled_z_circuit() if seed is None else random_bcircuit(seed)
        expected = _legacy_transform_bcircuit(bc, rule)
        assert transform_bcircuit(bc, rule) == expected
        assert Program.from_bcircuit(bc).transform(rule).bcircuit == expected
        fp = io.StringIO()
        Program.from_bcircuit(bc).stream(rule).dump(fp)
        assert canonicalize_wires(loads(fp.getvalue())) == (
            canonicalize_wires(expected)
        )

    def test_fixpoint_rule_uncomputes_what_it_emitted(self):
        """A fixpoint rule that rewrites its own compute block uncomputes
        the block it emitted, once, as whole-circuit rounds do."""
        import io

        from repro import Program
        from repro.io import loads

        def rule(qc, gate):
            if isinstance(gate, NamedGate) and gate.name == "A":
                qc.with_basis_change(
                    lambda: qc._emit_raw(NamedGate("B", gate.targets)),
                    lambda: qc._emit_raw(NamedGate("C", gate.targets)),
                )
                return True
            if isinstance(gate, NamedGate) and gate.name == "B":
                qc._emit_raw(
                    NamedGate("D", gate.targets, inverted=gate.inverted)
                )
                return True
            return False

        def main_fn(qc, a):
            qc.named_gate("A", a)
            return a

        bc = build(main_fn, qubit)[0]
        rounds = _sequential(bc, rule, rule)
        assert [(g.name, g.inverted) for g in rounds.circuit.gates] == [
            ("D", False), ("C", False), ("D", True)
        ]
        fused = transform_bcircuit_fused(bc, fixpoint_rule(rule))
        assert fused == rounds
        fp = io.StringIO()
        Program.from_bcircuit(bc).stream(fixpoint_rule(rule)).dump(fp)
        assert loads(fp.getvalue()) == rounds

    @pytest.mark.parametrize("rule", RULES)
    def test_uncomputing_stage_inside_a_chain(self, rule):
        bc = _controlled_z_circuit()
        rules = (self.RULES[rule], to_toffoli, s_to_tt)
        fused = transform_bcircuit_fused(bc, *rules)
        assert canonicalize_wires(fused) == (
            canonicalize_wires(_sequential(bc, *rules))
        )
        fused.check()


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


def legacy_binary(bc: BCircuit) -> BCircuit:
    """The binary base by the one-rule-per-pass transformer: the Toffoli
    rule once, then the unwrapped binary rule in whole-hierarchy rounds
    until every gate touches at most two quantum wires."""
    from repro.transform.toffoli import _toffoli_rule

    def binary(gate) -> bool:
        return not isinstance(gate, NamedGate) or len(gate.targets) + sum(
            c.wire_type == QUANTUM for c in gate.controls) <= 2

    bc = _legacy_transform_bcircuit(bc, _toffoli_rule)
    for _ in range(8):
        bodies = [bc.circuit, *(sub.circuit for sub in bc.namespace.values())]
        if all(binary(g) for body in bodies for g in body.gates):
            return bc
        bc = _legacy_transform_bcircuit(bc, _binary_rule)
    raise AssertionError("binary rounds did not reach a fixpoint")


class TestFusedGateBases:
    """The fused toffoli+binary chain matches the legacy rounds."""

    def test_binary_chain_matches_legacy_fixpoint(self):
        bc = _boxed_circuit()
        legacy = legacy_binary(bc)
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


# ---------------------------------------------------------------------------
# Lowering by gate shape
# ---------------------------------------------------------------------------


def _plain_toffoli(qc: Circ, gate: Gate):
    return to_toffoli(qc, gate)


#: Gate base -> (the built-in chain, the same rules as plain callables).
#: A chain holding any other callable than a built-in rule keeps the
#: per-gate stages, so the second chain is the lowering without the shape
#: memo.
CHAINS = {
    "toffoli": ((to_toffoli,), (_plain_toffoli,)),
    "binary": ((to_toffoli, to_binary),
               (_plain_toffoli,
                fixpoint_rule(lambda qc, gate: _binary_rule(qc, gate)))),
}


def _exact(circuit: Circuit) -> tuple:
    """*circuit* for ``==``: wire ids kept, and a parameter compared by
    its repr, so that -0.0 differs from 0.0."""
    return (circuit.inputs, circuit.outputs,
            [(g, repr(g.param)) if isinstance(g, NamedGate) else g
             for g in circuit.gates])


def _outcome(lower):
    """``("ok", result)`` of *lower()*, or the class and message it raised."""
    try:
        return "ok", lower()
    except Exception as exc:  # noqa: BLE001 - compared across the chains
        return type(exc).__name__, str(exc)


def _assert_same_outcome(memo, plain, source: dict | None):
    """Both chains raised alike, or lowered to the same hierarchy.

    With *source* (the input namespace) a body must be reused by one
    chain exactly when the other reuses it.
    """
    assert memo[0] == plain[0], (memo, plain)
    if memo[0] != "ok":
        assert memo[1] == plain[1]
        return
    memo, plain = memo[1], plain[1]
    assert _exact(memo.circuit) == _exact(plain.circuit)
    assert list(memo.namespace) == list(plain.namespace)
    for name, sub in plain.namespace.items():
        assert _exact(memo.namespace[name].circuit) == _exact(sub.circuit)
        if source is not None:
            assert (memo.namespace[name] is source.get(name)) == (
                sub is source.get(name)
            )


def _assert_same_lowering(bc: BCircuit, base: str):
    memo_rules, plain_rules = CHAINS[base]
    memo = _outcome(lambda: transform_bcircuit_fused(bc, *memo_rules))
    plain = _outcome(lambda: transform_bcircuit_fused(bc, *plain_rules))
    _assert_same_outcome(memo, plain, bc.namespace)
    return memo


class _Collect(StreamConsumer):
    """The gates a stream emits, as a hierarchy with its namespace."""

    def begin(self, inputs, namespace):
        self.gates = []

    def gate(self, gate):
        self.gates.append(gate)

    def finish(self, end):
        return BCircuit(Circuit(end.inputs, self.gates, end.outputs),
                        end.namespace)


def _assert_same_stream(source, base: str):
    """The same, for the gates a stream emits: *source* is a hierarchy
    (replayed) or a program (generated afresh for each chain)."""
    memo_rules, plain_rules = CHAINS[base]
    if isinstance(source, BCircuit):
        def streamed(rules):
            return replay_bcircuit(source,
                                   StreamTransformer(rules, _Collect()))
        namespace = source.namespace
    else:
        def streamed(rules):
            return source.stream(*rules)._produce(_Collect())
        namespace = None
    _assert_same_outcome(_outcome(lambda: streamed(memo_rules)),
                         _outcome(lambda: streamed(plain_rules)), namespace)


def _lowerable(gate: Gate) -> bool:
    """Whether the binary base lowers *gate*: of the two-target gates,
    only ``W`` and ``swap`` may carry quantum controls."""
    return not (
        isinstance(gate, NamedGate) and len(gate.targets) == 2
        and gate.name not in ("W", "swap")
        and any(c.wire_type == QUANTUM for c in gate.controls)
    )


def _live_after(inputs, gates, namespace) -> tuple:
    live = dict(inputs)
    widths = {name: 0 for name in namespace}
    for gate in gates:
        track_gate(live, gate, widths)
    return tuple(live.items())


def _random_hierarchy(seed: int, lowerable: bool = True) -> BCircuit:
    """A main circuit calling three bodies: ``caller`` calls ``lowered``
    (gates with up to six controls), and no rule touches ``kept``.

    The main circuit adds classical controls, measurements, discards and
    fresh wires.  With *lowerable*, gates the binary base has no rule
    for are left out.
    """
    rnd = random.Random(f"lowering/{seed}")
    m = rnd.randint(4, 6)
    n = m + rnd.randint(2, 4)
    ends = tuple((w, QUANTUM) for w in range(m))

    def body(gates):
        gates = [g for g in gates if not lowerable or _lowerable(g)]
        return Circuit(ends, gates, ends)

    lowered = random_gates(rnd, m, steps=30, max_controls=6, gate_p=0.85,
                           ancilla_p=0.15, cinit_p=0.0)
    caller = [BoxCall("lowered", ends, ends), *superpose(m),
              BoxCall("lowered", ends, ends, inverted=True)]
    namespace = {
        "caller": Subroutine("caller", body(caller)),
        "kept": Subroutine("kept", body(superpose(m))),
        "lowered": Subroutine("lowered", body(lowered)),
    }
    inputs = tuple((w, QUANTUM) for w in range(n))
    gates = [BoxCall("caller", ends, ends),
             BoxCall("kept", ends, ends, controls=(Control(m, False),))]
    gates += [g for g in random_gates(rnd, n, steps=60, max_controls=6,
                                      fresh_p=0.05, measure_p=0.6)
              if not lowerable or _lowerable(g)]
    bc = BCircuit(Circuit(inputs, gates,
                          _live_after(inputs, gates, namespace)), namespace)
    bc.check()
    return bc


class TestLoweringByShape:
    """The built-in base rules lower each gate shape once per transform
    call and rename that lowering for every later gate of the shape.

    The reference is the same rules as plain callables, which every gate
    still goes through: the lowerings must agree gate for gate, wire ids
    included (no ``canonicalize_wires``), in namespace order and in
    which bodies are reused untouched.
    """

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    @pytest.mark.parametrize("entry", sorted(COMPILE))
    def test_compile_catalogue(self, entry, base):
        program = COMPILE[entry]()
        _assert_same_lowering(program.bcircuit, base)
        _assert_same_stream(program, base)

    @pytest.mark.parametrize("entry", sorted(ESTIMATE))
    def test_estimate_catalogue(self, entry):
        make, base = ESTIMATE[entry]
        program = make()
        _assert_same_lowering(program.bcircuit, base)
        _assert_same_stream(program, base)

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_hierarchies(self, seed, base):
        bc = _random_hierarchy(seed)
        outcome = _assert_same_lowering(bc, base)
        assert outcome[0] == "ok"
        assert outcome[1].namespace["kept"] is bc.namespace["kept"]
        _assert_same_stream(bc, base)

    def test_random_hierarchies_cover_every_shape_kind(self):
        seen = set()
        for seed in range(25):
            bc = _random_hierarchy(seed)
            bodies = [bc.circuit] + [s.circuit for s in bc.namespace.values()]
            for gate in (g for c in bodies for g in c.gates):
                if not isinstance(gate, NamedGate):
                    continue
                quantum = sum(c.wire_type == QUANTUM for c in gate.controls)
                seen.add(("controls", min(quantum, 3)))
                seen.update(("sign", c.positive) for c in gate.controls)
                seen.update(("type", c.wire_type) for c in gate.controls)
                seen.add(("param", gate.param is not None))
                seen.add(("inverted", gate.inverted))
                if quantum and gate.name in ("W", "swap", "H"):
                    seen.add(("controlled", gate.name))
        assert seen >= {
            ("controls", 3), ("sign", True), ("sign", False),
            ("type", QUANTUM), ("type", CLASSICAL), ("param", True),
            ("inverted", True), ("controlled", "W"), ("controlled", "swap"),
            ("controlled", "H"),
        }, seen

    def test_a_shape_the_binary_base_rejects_fails_alike(self):
        """A controlled two-target rotation has no binary rule: both
        chains raise at the same gate, with its own wires in the
        message."""
        rejected = 0
        for seed in range(10):
            bc = _random_hierarchy(seed, lowerable=False)
            _assert_same_lowering(bc, "toffoli")
            outcome = _assert_same_lowering(bc, "binary")
            rejected += outcome[0] == "QuipperError"
        assert rejected >= 3

    def test_controlled_two_target_rotation_is_a_quipper_error(self):
        """The binary base has no rule for a quantum-controlled
        ``exp(-i%ZZ)``.  The stored and streamed chains, memo and
        per-gate alike, raise the same ``QuipperError``: a CLI exits 2
        on it and the service answers 400."""
        from repro.program import Program

        text = ('Inputs: 0:Qubit, 1:Qubit, 2:Qubit\n'
                'QGate["exp(-i0.5ZZ)"](0,1) with controls=[+2]\n'
                'Outputs: 0:Qubit, 1:Qubit, 2:Qubit\n')
        program = Program.loads(text)
        kind, message = _assert_same_lowering(program.bcircuit, "binary")
        assert kind == "QuipperError"
        assert message.startswith(
            "no binary decomposition implemented for gate "
            "NamedGate['exp(-i0.5ZZ)']"
        )
        _assert_same_stream(program.bcircuit, "binary")
        _assert_same_stream(program, "binary")
        with pytest.raises(QuipperError, match="no binary decomposition"):
            Program.loads(text).transform("binary").bcircuit

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    def test_liveness_table_fails_alike(self, base):
        for case in CASES.values():
            bc = BCircuit(Circuit(INPUTS, list(case.gates), case.outputs),
                          _namespace())
            _assert_same_lowering(bc, base)

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    def test_liveness_corruptions_fail_alike(self, base):
        """Each seeded corruption of the liveness suite, and the same
        corruptions of gates with up to six controls, which the rules
        expand: both chains raise the same class with the same message,
        or lower alike."""
        cases = [(inputs, gates) for _, inputs, gates, _ in _seeded_inputs()]
        for seed in range(60):
            rnd = random.Random(f"lowering-corruptions/{seed}")
            n = rnd.randint(6, 8)
            gates = [g for g in random_gates(rnd, n, steps=20, max_controls=6)
                     if _lowerable(g)]
            inputs = tuple((w, QUANTUM) for w in range(n))
            top = _max_wire_id(Circuit(inputs, gates))
            for corrupt in CORRUPTIONS:
                broken = corrupt(rnd, inputs, list(gates), top)
                if broken is not None:
                    cases.append((inputs, broken))
        raised = 0
        for inputs, gates in cases:
            bc = BCircuit(Circuit(inputs, gates, inputs))
            raised += _assert_same_lowering(bc, base)[0] != "ok"
        assert raised >= 20

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    def test_echoed_classical_fan_out_lowers_alike(self, base):
        """One bit read as two controls: declined as it stands, and
        refused by the in-place check after a clean gate of the same
        shape has made its template."""
        gates, outputs, _ = ECHOED_FAN_OUT["controls"]
        _assert_same_lowering(BCircuit(Circuit(INPUTS, gates, outputs)), base)
        Q, C = QUANTUM, CLASSICAL
        inputs = ((0, Q), (1, Q), (2, Q), (3, Q), (4, C), (5, C))

        def not3(a, b):
            return NamedGate("not", (0,), (
                Control(1), Control(2), Control(3), Control(a, True, C),
                Control(b, False, C)))

        bc = BCircuit(Circuit(inputs, [not3(4, 5), not3(4, 4), not3(5, 4)],
                              inputs))
        assert _assert_same_lowering(bc, base)[0] == "ok"
        _assert_same_stream(bc, base)

    @pytest.mark.parametrize("base", ["toffoli", "binary"])
    def test_each_gate_keeps_its_own_parameter(self, base):
        """A parameter is not part of a shape: each renamed gate carries
        its own, a signed zero included, and a gate without one stays
        without."""
        inputs = tuple((w, QUANTUM) for w in range(4))
        controls = (Control(1), Control(2, False), Control(3))
        gates = [NamedGate("Rz", (0,), controls, param=param)
                 for param in (None, 0.5, -0.0, 0.0, None, 0.5, -0.0)]
        bc = BCircuit(Circuit(inputs, gates, inputs))
        assert _assert_same_lowering(bc, base)[0] == "ok"
        _assert_same_stream(bc, base)

    def test_a_user_rule_is_offered_every_gate(self):
        bc = _random_hierarchy(3)
        offered: list = []

        def count(qc, gate):
            offered.append(gate)
            return False

        transform_bcircuit_fused(bc, count, to_toffoli, to_binary)
        assert len(offered) == len(bc)
        offered.clear()
        lowered = transform_bcircuit_fused(bc, to_toffoli, count, to_binary)
        assert len(offered) == len(transform_bcircuit_fused(bc, to_toffoli))
        plain = transform_bcircuit_fused(bc, *CHAINS["binary"][1])
        assert _exact(lowered.circuit) == _exact(plain.circuit)

    def test_shape_counters_are_added_once_per_call(self, monkeypatch):
        from repro import Program
        from repro.obs import core as obs

        Q = QUANTUM
        inputs = tuple((w, Q) for w in range(5))
        toffoli3 = [NamedGate("not", (t,), tuple(
            Control(w) for w in range(5) if w != t)[:3]) for t in range(3)]
        gates = [*toffoli3, NamedGate("H", (0,)), NamedGate("H", (1,))]
        bc = BCircuit(Circuit(inputs, gates, inputs))
        added: list = []
        add = obs.add

        def spy(name, n=1):
            added.append(name)
            add(name, n)

        monkeypatch.setattr(obs, "add", spy)
        for lower in (
            lambda: transform_bcircuit_fused(bc, to_toffoli, to_binary),
            lambda: Program.from_bcircuit(bc).stream("binary").count(),
        ):
            added.clear()
            with obs.capture() as rec:
                lower()
            # Two shapes lowered, three gates renamed; the memo lasts one
            # call, so each call lowers both shapes again.
            assert rec.counters["transform.shapes.expanded"] == 2
            assert rec.counters["transform.shapes.reused"] == 3
            assert added.count("transform.shapes.expanded") == 1
            assert added.count("transform.shapes.reused") == 1
        with obs.capture() as rec:
            transform_bcircuit_fused(bc, *CHAINS["binary"][1])
        assert "transform.shapes.reused" not in rec.counters

    def test_max_wire_id_reads_every_wire(self):
        bodies = []
        for seed in range(25):
            bc = _random_hierarchy(seed)
            bodies += [bc.circuit] + [s.circuit for s in bc.namespace.values()]
            bodies.append(random_bcircuit(seed).circuit)
        bodies.append(Circuit())
        for circuit in bodies:
            wires = [w for w, _ in circuit.inputs] + [
                w for g in circuit.gates
                for w, _ in g.wires_in() + g.wires_out()]
            assert _max_wire_id(circuit) == max(wires, default=-1)
