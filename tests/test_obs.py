"""Telemetry subsystem suite: spans, metrics, sinks, and zero-cost off.

The two contracts under test:

* **Enabled**: spans nest correctly across the whole pipeline --
  including the thread hop of ``GateStream.gates()`` and fused
  ``StreamTransformer`` stages -- and every sink (summary table, JSONL,
  Chrome trace) renders a loadable, internally consistent view.
* **Disabled**: instrumented code produces bit-identical results and
  the per-gate hot path performs no telemetry allocation.
"""

from __future__ import annotations

import io
import json
import threading
import tracemalloc

import pytest

from repro import Program, obs, qubit
from repro.algorithms.tf.main import main as tf_main
from repro.obs import core as obs_core


def _bell_program(name: str = "bell") -> Program:
    def bell(qc, a, b):
        qc.hadamard(a)
        qc.qnot(b, controls=a)
        return qc.measure((a, b))

    return Program.capture(bell, qubit, qubit, name=name)


def _boxed_program() -> Program:
    """A program with a boxed subroutine (exercises body rewriting)."""

    def body(qc, qs):
        qc.qnot(qs[0], controls=(qs[1], qs[2]))  # Toffoli: decomposable
        qc.hadamard(qs[1])
        return qs

    def circ(qc, qs):
        qc.nbox("step", 3, body, qs)
        return qs

    return Program.capture(circ, [qubit] * 3, name="boxed")


class TestRecorderMath:
    """Counters, histograms, and derived metrics."""

    def test_counters_and_histograms_accumulate(self):
        with obs.capture() as rec:
            obs.add("x")
            obs.add("x", 4)
            obs.observe("h", 2.0)
            obs.observe("h", 6.0)
        assert rec.counters["x"] == 5
        hist = rec.histograms["h"]
        assert (hist.count, hist.min, hist.max, hist.mean) == (2, 2.0, 6.0, 4.0)

    def test_cache_hit_rate_aggregates_cache_counters(self):
        rec = obs.Recorder()
        assert rec.cache_hit_rate() is None
        rec.counters["cache.a.hits"] = 3
        rec.counters["cache.a.misses"] = 1
        rec.counters["cache.b.hits"] = 2
        rec.counters["cache.b.misses"] = 2
        assert rec.cache_hit_rate() == pytest.approx(5 / 8)

    def test_span_totals_aggregate_by_path(self):
        with obs.capture() as rec:
            for _ in range(3):
                with obs.span("stage"):
                    pass
        totals = rec.span_totals()
        assert totals["stage"][0] == 3

    def test_capture_is_reentrant(self):
        with obs.capture() as outer:
            obs.add("outer.only")
            with obs.capture() as inner:
                obs.add("inner.only")
            obs.add("outer.only")
        assert "inner.only" not in outer.counters
        assert outer.counters["outer.only"] == 2
        assert inner.counters == {"inner.only": 1}
        assert not obs_core.ENABLED

    def test_capture_memory_records_high_water(self):
        with obs.capture(memory=True) as rec:
            _ = [0] * 50_000
        assert rec.peak_memory is not None
        assert rec.peak_memory > 50_000 * 8

    def test_registered_caches_report_deltas(self):
        program = _bell_program()
        with obs.capture() as rec:
            program.run(shots=8, seed=1)
        assert rec.counters.get("cache.compiled_stream.misses") == 1
        # Running the same circuit again inside a fresh session is a
        # pure memo hit.
        with obs.capture() as rec2:
            program.run(shots=8, seed=1)
        assert rec2.counters.get("cache.compiled_stream.hits") == 1
        assert "cache.compiled_stream.misses" not in rec2.counters

    def test_slot_memo_reports_deltas(self):
        def twice(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            qc.hadamard(a)  # the first H's slot table, read again
            return qc.measure((a, b))

        program = Program.capture(twice, qubit, qubit, name="twice")
        with obs.capture() as rec:
            program.run(shots=8, seed=1)
        assert rec.counters.get("cache.sim.slots.hits", 0) >= 1
        # A second run meets only shapes the first one tabled.
        with obs.capture() as rec2:
            program.run(shots=8, seed=1)
        assert rec2.counters.get("cache.sim.slots.hits", 0) >= 3
        assert rec2.counters.get("cache.sim.slots.misses", 0) == 0


    def test_fork_rows_histogram_counts_shared_histories(self):
        # One coin measured mid-circuit steers a second qubit: a forked
        # batch's shots share at most two rows, one per history.
        def coins(qc, a, b):
            qc.hadamard(a)
            m = qc.measure(a)
            qc.hadamard(b)
            qc.qnot(b, controls=m)
            return m, b

        program = Program.capture(coins, qubit, qubit, name="coins")
        for batch, forks in ((None, 1), (16, 16)):
            with obs.capture() as rec:
                result = program.run(shots=256, seed=1, batch=batch)
            assert sum(result.counts.values()) == 256
            rows = rec.histograms["sim.fork.rows"]
            assert rows.count == rec.counters["sim.batch.forks"] == forks
            assert rows.max == 2
            assert rows.total < rec.histograms["sim.batch.occupancy"].total
            # Gates after the measurement ran on two rows.
            assert rec.counters["sim.batch.gates"] >= forks


class TestSpanNesting:
    """Span paths reflect lexical nesting, across threads and stages."""

    def test_paths_join_with_slash(self):
        with obs.capture() as rec:
            with obs.span("a"):
                with obs.span("b"):
                    pass
        assert [s.path for s in rec.spans] == ["a/b", "a"]

    def test_pipeline_stages_nest_under_run(self):
        program = _bell_program().transform("binary").optimize()
        with obs.capture() as rec:
            program.run(shots=16, seed=3)
        names = {s.name for s in rec.spans}
        assert {"capture", "transform", "optimize", "compile",
                "run.statevector"} <= names
        # Lazy generation happens inside run, so every stage span's
        # path is rooted at the run span.
        for record in rec.spans:
            assert record.path.startswith("run.statevector")

    def test_thread_backed_iteration_nests_under_consumer_span(self):
        program = _bell_program()
        with obs.capture() as rec:
            with obs.span("outer"):
                gates = list(program.stream().gates())
        assert gates
        by_name = {s.name: s for s in rec.spans}
        assert by_name["stream"].path == "outer/stream"
        # The stream span was recorded on the producer thread, the outer
        # span on this one -- nesting survived the thread hop.
        assert by_name["stream"].tid != by_name["outer"].tid
        assert by_name["outer"].tid == threading.get_ident()

    def test_materialized_consumers_each_open_a_replay_span(self):
        program = _boxed_program()
        program.bcircuit
        with obs.capture() as rec:
            program.count()
            program.depth()
            program.t_depth()
            program.resources()
            program.ascii()
            program.dumps()
            program.qasm()
        consumers = [s.attrs["consumer"] for s in rec.spans
                     if s.name == "replay"]
        assert set(consumers) == {
            "StreamingSummary", "AsciiStreamWriter", "QasmStreamWriter",
        }
        # One summary walk, one T-depth walk: depth() and resources()
        # read the hierarchy's memo.
        assert consumers.count("StreamingSummary") == 2

    def test_stream_transformer_stages_report_body_counters(self):
        program = _boxed_program()
        with obs.capture() as rec:
            program.stream("binary").count()
        assert rec.counters.get("transform.bodies.rewritten", 0) >= 1

    def test_stream_optimizer_reports_body_counters(self):
        program = _boxed_program()
        with obs.capture() as rec:
            program.stream().optimize().count()
        bodies = (rec.counters.get("optimize.bodies.rewritten", 0)
                  + rec.counters.get("optimize.bodies.reused", 0))
        assert bodies >= 1

    def test_kernel_class_histogram_counts_every_gate(self):
        program = _bell_program()
        with obs.capture() as rec:
            program.run(shots=4, seed=0)
        # H is dense, the controlled-not dispatches as a permutation.
        assert rec.counters.get("sim.kernel.dense", 0) >= 1
        assert rec.counters.get("sim.kernel.permute", 0) >= 1
        assert rec.counters.get("sim.kernel.controlled", 0) >= 1

    def test_optimizer_pass_rewrite_counters(self):
        def cancels(qc, a):
            qc.hadamard(a)
            qc.hadamard(a)
            return a

        program = Program.capture(cancels, qubit).optimize()
        with obs.capture() as rec:
            assert program.total_gates() == 0
            rewrites = [k for k in rec.counters
                        if k.startswith("optimize.pass.")
                        and k.endswith(".rewrites")]
            assert rewrites

    def test_retention_marks_observed(self):
        def circ(qc, a):
            qc.with_computed(
                lambda: qc.hadamard(a), lambda _: qc.gate_T(a)
            )
            return a

        with obs.capture() as rec:
            Program.capture(circ, qubit).stream().count()
        assert rec.counters.get("stream.retention.marks") == 1
        assert rec.histograms["stream.retention.buffered"].count == 1


class TestDisabledMode:
    """Off means off: identical results, no telemetry allocation."""

    def test_results_bit_identical_with_and_without_capture(self):
        plain = _bell_program().run(shots=256, seed=42).counts
        with obs.capture():
            captured = _bell_program().run(shots=256, seed=42).counts
        after = _bell_program().run(shots=256, seed=42).counts
        assert plain == captured == after

    def test_disabled_span_is_shared_noop(self):
        handle = obs.span("anything", attr=1)
        assert handle is obs_core._NOOP_SPAN
        assert handle is obs.span("something.else")
        with handle as h:
            h.set(ignored=True)  # must not raise or record

    def test_gate_hot_path_allocates_nothing_in_obs(self):
        def many(qc, a):
            for _ in range(300):
                qc.hadamard(a)
            return a

        program = Program.capture(many, qubit)
        program.bcircuit  # build outside the measured window
        obs_file = obs_core.__file__
        tracemalloc.start()
        try:
            program.run(seed=0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        blocks = sum(
            stat.count
            for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename == obs_file
        )
        assert blocks == 0

    def test_counters_dropped_without_recorder(self):
        obs.add("ghost")
        obs.observe("ghost.h", 1.0)
        with obs.capture() as rec:
            pass
        assert "ghost" not in rec.counters
        assert "ghost.h" not in rec.histograms


class TestSinks:
    """Summary table, JSONL, and Chrome trace renderings."""

    @pytest.fixture()
    def session(self):
        program = _bell_program().transform("binary").optimize()
        with obs.capture() as rec:
            program.run(shots=32, seed=7)
        return rec

    def test_summary_mentions_spans_counters_and_hit_rate(self, session):
        text = obs.format_summary(session)
        assert "telemetry:" in text
        assert "sim.kernel" in text
        assert "cache hit rate" in text

    def test_jsonl_rows_parse_and_cover_all_kinds(self, session):
        buf = io.StringIO()
        obs.write_jsonl(session, buf)
        rows = [json.loads(line) for line in buf.getvalue().splitlines()]
        kinds = {row["type"] for row in rows}
        assert {"session", "span", "counter"} <= kinds
        assert rows[0]["type"] == "session"
        assert rows[0]["spans"] == len(session.spans)

    def test_chrome_trace_is_loadable_with_distinct_stages(self, session):
        buf = io.StringIO()
        obs.write_chrome_trace(session, buf)
        trace = json.loads(buf.getvalue())
        events = trace["traceEvents"]
        cats = {e["cat"] for e in events if e.get("ph") == "X"}
        assert {"capture", "transform", "optimize", "compile",
                "run.statevector"} <= cats
        for event in events:
            if event.get("ph") == "X":
                assert event["dur"] >= 0
                assert isinstance(event["ts"], (int, float))
        instants = [e for e in events if e.get("ph") == "I"]
        assert instants and "sim.kernel.permute" in instants[0]["args"]

    def test_dump_chrome_trace_accepts_path_and_handle(self, session,
                                                       tmp_path):
        target = tmp_path / "trace.json"
        obs.dump_chrome_trace(session, target)
        assert json.loads(target.read_text())["traceEvents"]
        buf = io.StringIO()
        obs.dump_chrome_trace(session, buf)
        assert json.loads(buf.getvalue())["traceEvents"]


class TestProgramSurface:
    """``Program.run(trace=...)`` and ``Program.report()``."""

    def test_run_trace_writes_chrome_json(self, tmp_path):
        target = tmp_path / "trace.json"
        result = _bell_program().run(shots=16, seed=5, trace=target)
        assert result.counts
        trace = json.loads(target.read_text())
        cats = {e["cat"] for e in trace["traceEvents"] if e.get("ph") == "X"}
        assert "run.statevector" in cats
        assert not obs_core.ENABLED

    def test_run_trace_matches_untraced_counts(self, tmp_path):
        traced = _bell_program().run(
            shots=64, seed=9, trace=tmp_path / "t.json"
        )
        plain = _bell_program().run(shots=64, seed=9)
        assert traced.counts == plain.counts

    def test_report_returns_profile_table(self):
        text = _bell_program().report(shots=8, seed=1)
        assert text.startswith("telemetry:")
        assert "run.statevector" in text


class TestCliSurface:
    """``--trace`` / ``--profile`` / ``-v`` on the algorithm CLIs."""

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount",
                        "--trace", str(target)]) == 0
        capsys.readouterr()
        trace = json.loads(target.read_text())
        assert any(e.get("ph") == "X" for e in trace["traceEvents"])

    def test_verbose_summary_line_on_stderr(self, capsys):
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount",
                        "-v"]) == 0
        err = capsys.readouterr().err
        line = [ln for ln in err.splitlines() if ln.startswith("gates=")][-1]
        assert "depth=" in line
        assert "wall=" in line
        assert "cache_hit=" in line

    def test_profile_flag_prints_table_to_stderr(self, capsys):
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount",
                        "--profile"]) == 0
        assert "telemetry:" in capsys.readouterr().err

    def test_profile_file_writes_jsonl(self, tmp_path, capsys):
        target = tmp_path / "profile.jsonl"
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount",
                        "--profile", str(target)]) == 0
        capsys.readouterr()
        rows = [json.loads(line)
                for line in target.read_text().splitlines()]
        assert rows[0]["type"] == "session"

    def test_no_flags_leaves_telemetry_disabled(self, capsys):
        assert tf_main(["-s", "pow17", "-l", "2", "-f", "gatecount"]) == 0
        capsys.readouterr()
        assert not obs_core.ENABLED
        assert obs.current_recorder() is None
