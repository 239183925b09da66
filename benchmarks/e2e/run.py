"""Run the repository's end-to-end benchmark and check its outputs.

From the repository root::

    python benchmarks/e2e/run.py --workload compile --seed 1
    python benchmarks/e2e/run.py --workload compile --seed 1 --trace 1
    python benchmarks/e2e/run.py --all --seed 1

One run sets the workload up, runs whole passes of its seeded item list
for about ``run_seconds`` of ``BENCHMARK.json`` (closed loop), checks
every output, then times its set-up again in fresh processes.  Each
metric is printed as ``name value unit``; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics, measured
with tracing off.  ``--trace 1`` reports the per-layer metrics instead:
it runs the items with tracing off and on side by side (see
:func:`run_phase`), keeps the spans in memory and writes them at exit
as a Chrome trace with a ``layers`` summary.

Times are reported in *reference seconds* (see :mod:`speed`): the
speed of the core running the items is sampled while they run, each
set-up time is set against a baseline process spawned next to it, and
every measured time is scaled to a machine of fixed speed.

The exit code is 0 when every output checked out, 1 when a check
failed, and 2 when the benchmark could not run at all (for instance
when the repository's ``src/`` tree is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

from speed import BASELINE_S, SpeedSampler, baseline_s
from tracing import ITEM, NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
    "gates_out": "count",
}

#: Layers timed by the benchmark's own spans (``<layer>.busy_s``).
LAYERS = (
    "core.builder", "transform.pipeline", "transform.count", "core.circuit",
    "transform.depth", "optimize", "io.qasm", "io.qasm_parser",
    "transform.inline", "backends.statevector", "service.client",
)

#: Per-layer metrics: name -> unit.  Busy time and counts are per item.
PER_LAYER = {
    **{f"{layer}.busy_s": "s/item" for layer in LAYERS},
    "core.builder.gates_out": "gates/item",
    "transform.pipeline.gates_out": "gates/item",
    "transform.bodies.reused": "count/item",
    "optimize.gates.removed": "gates/item",
    "optimize.rounds": "count/item",
    "io.qasm.bytes_out": "B/item",
    "transform.inline.hit_ratio": "ratio",
    "sim.kernel.dispatches": "count/item",
    "sim.batch.forks": "count/item",
    "sim.batch.gates": "count/item",
    "sim.batch.occupancy_mean": "shots",
    "service.hit_p50_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.run_p50_ms": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.cache.hit_ratio": "ratio",
    "service.transport_p50_ms": "ms",
    "service.rejected": "count/item",
    "trace.coverage": "ratio",
    "trace_overhead": "ratio",
}

#: Fresh processes timed for ``setup_s`` (the median is reported): the
#: first half before the workload's own set-up, the rest after the checks,
#: so that one slow stretch of the machine does not hold them all.
SETUP_REPEATS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the Quipper reproduction."
    )
    parser.add_argument("--workload", help="workload to run")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a fresh process")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1; holdout seed 2)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json, which a harness "
                             "running its command passes here)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--items", type=int, default=None,
                        help="run one pass of at most this many items "
                             "(smoke tests)")
    parser.add_argument("--out", help="also write the result JSON here")
    parser.add_argument("--trace-out",
                        help="Chrome trace path for --trace 1 (default "
                             "benchmarks/e2e/results/<workload>-seed<n>"
                             ".trace.json)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    if args.all and args.seconds is not None:
        parser.error("--all runs every workload for run_seconds; "
                     "--seconds applies to one --workload")
    if args.items is not None and args.items < 1:
        parser.error("--items must be positive")
    return args


def cannot_run(message: str):
    """Exit with status 2 and no result line."""
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_seconds() -> float:
    """The length of the timed phase that ``BENCHMARK.json`` fixes."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return float(spec["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError):
        cannot_run(f"no run_seconds in {ROOT / 'BENCHMARK.json'}")


def import_workloads():
    """Put the checkout's ``src/`` first on the path; import the workloads."""
    if not (SRC / "repro" / "__init__.py").is_file():
        cannot_run(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # Child processes (server, set-up probes) import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        cannot_run(f"repro resolved outside {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Timed passes
# ---------------------------------------------------------------------------


class Record(NamedTuple):
    """One item as it ran; *output* is the exception if the item raised.

    *start* and *end* are read from :meth:`SpeedSampler.clock`.
    """

    pass_index: int
    item: tuple
    output: object
    start: float
    end: float


#: One pass: its records and its ``(start, end)`` times.
Pass = tuple[list[Record], tuple[float, float]]

#: Speed samples taken before and after each pass of concurrent clients.
PASS_SAMPLES = 3

#: Fewest items an untraced timed phase runs, so that at least ten lie
#: beyond the reported 90th percentile.
MIN_ITEMS = 100


class Phase:
    """The timed passes of one workload and what they produced."""

    def __init__(self, workload, sampler: SpeedSampler):
        self.workload = workload
        self.sampler = sampler
        self.untraced: list[Pass] = []
        self.traced: list[Pass] = []
        #: Passes whose outputs are checked but not timed.
        self.untimed: list[Pass] = []
        self.tracer = Tracer(clock=sampler.clock)
        #: The program's own obs counters from the counting pass, the
        #: ``sim.batch.occupancy`` (count, total), and the items counted.
        self.counters: dict[str, float] = {}
        self.occupancy = (0, 0.0)
        self.counted = 0

    def run_item(self, index: int, position: int, item, tracer) -> Record:
        start = self.sampler.clock()
        try:
            with tracer.span(ITEM, item=f"{index}.{position}"):
                output = self.workload.run(item, tracer.span)
        except Exception as exc:  # noqa: BLE001 - reported as a failed item
            output = exc
            traceback.print_exc(file=sys.stderr)
        return Record(index, item, output, start, self.sampler.clock())

    def run_pass(self, index: int, items: list, tracers=None) -> Pass:
        """Run one pass closed-loop, by ``workload.clients`` clients.

        *tracers* holds the tracer of each item; by default none traces.
        """
        clock = self.sampler.clock
        if tracers is None:
            tracers = [NullTracer()] * len(items)
        if self.workload.clients == 1:
            start = clock()
            records = [self.run_item(index, position, item, tracer)
                       for position, (item, tracer)
                       in enumerate(zip(items, tracers))]
            return records, (start, clock())
        # The clients run in other threads and leave this one idle: sample
        # the speed around the pass rather than from the timer.
        for _ in range(PASS_SAMPLES):
            self.sampler.sample()
        start = clock()
        with ThreadPoolExecutor(self.workload.clients) as pool:
            records = list(pool.map(
                lambda position, item, tracer: self.run_item(
                    index, position, item, tracer),
                range(len(items)), items, tracers))
        end = clock()
        for _ in range(PASS_SAMPLES):
            self.sampler.sample()
        return records, (start, end)

    def run_paired(self, index: int, items: list) -> None:
        """Run each item of one pass twice in a row, untraced and traced.

        The order alternates from item to item, so that neither side
        gains from the caches the other warmed or from a drift of the
        machine's speed.
        """
        untraced, traced = [], []
        start = self.sampler.clock()
        for position, item in enumerate(items):
            traced_first = (index + position) % 2 == 1
            for tracing_on in (traced_first, not traced_first):
                if tracing_on:
                    traced.append(
                        self.run_item(index, position, item, self.tracer))
                else:
                    untraced.append(
                        self.run_item(index, position, item, NullTracer()))
        interval = (start, self.sampler.clock())
        self.untraced.append((untraced, interval))
        self.traced.append((traced, interval))

    def run_split(self, index: int, items: list) -> None:
        """Run one pass of concurrent clients with half its items traced.

        The k-th copy in the pass of catalogue entry number e is traced
        when ``index + e + k`` is odd, so the two halves hold the same mix
        of entries and run interleaved in time.
        """
        number = {entry: n for n, entry in enumerate(self.workload.catalogue)}
        copies: dict[str, int] = {}
        flags = []
        for entry, _ in items:
            k = copies[entry] = copies.get(entry, -1) + 1
            flags.append((index + number[entry] + k) % 2 == 1)
        null = NullTracer()
        records, interval = self.run_pass(
            index, items, [self.tracer if f else null for f in flags])
        self.untraced.append(
            ([r for r, f in zip(records, flags) if not f], interval))
        self.traced.append(([r for r, f in zip(records, flags) if f], interval))

    def count(self, index: int, items: list) -> None:
        """Run an untimed pass under ``obs.capture()`` for its counters.

        The program's counters slow its dispatch-bound simulation paths
        by about a tenth, so they stay out of the timed passes.
        """
        from repro import obs

        with obs.capture() as rec:
            self.untimed.append(self.run_pass(index, items))
        self.counters = dict(rec.counters)
        hist = rec.histograms.get("sim.batch.occupancy")
        if hist is not None:
            self.occupancy = (hist.count, hist.total)
        self.counted = len(items)

    def records(self) -> list[Record]:
        return [r for records, _ in self.untraced + self.traced + self.untimed
                for r in records]

    def items_per_s(self, passes: list[Pass]) -> float:
        """Items per reference second.

        One client: the items over their summed reference latencies.
        Concurrent clients: the items over the passes' reference lengths.
        """
        reference_s = self.sampler.reference_s
        items = sum(len(records) for records, _ in passes)
        if self.workload.clients == 1:
            busy = sum(reference_s(r.start, r.end)
                       for records, _ in passes for r in records)
        else:
            busy = sum(reference_s(*interval) for _, interval in passes)
        return items / busy

    def latencies_ms(self, passes: list[Pass]) -> list[float]:
        """Reference latency of every item of *passes*, milliseconds."""
        return [self.sampler.reference_s(r.start, r.end) * 1e3
                for records, _ in passes for r in records]

    def trace_overhead(self) -> float:
        """One minus untraced over traced mean item latency.

        With a fixed number of closed-loop clients, throughput is the
        client count over the mean latency, so this is also one minus the
        ratio of traced to untraced throughput.
        """
        return 1.0 - (statistics.fmean(self.latencies_ms(self.untraced))
                      / statistics.fmean(self.latencies_ms(self.traced)))


def run_phase(workload, sampler: SpeedSampler, seconds: float,
              limit: int | None, traced: bool) -> Phase:
    """Run whole passes for about *seconds* (untraced: and for at least
    :data:`MIN_ITEMS` items), or one pass of at most *limit* items.

    A traced run times tracing off against tracing on.  It starts with
    one untimed warm-up pass (skipped when *limit* is set), so that
    neither side pays for cold caches alone.  With one client, every
    item then runs twice in a row (:meth:`Phase.run_paired`); with
    concurrent clients, half of each pass runs traced
    (:meth:`Phase.run_split`), since a never-seen service spec can run
    only once.  A traced run ends with the untimed counting pass
    (:meth:`Phase.count`).
    """
    phase = Phase(workload, sampler)
    index = 0

    def next_items() -> list:
        nonlocal index
        index += 1
        return workload.pass_items(index - 1)[:limit]

    if traced and limit is None:
        phase.untimed.append(phase.run_pass(index, next_items()))
    start = time.perf_counter()
    rounds = 0
    while True:
        if not traced:
            phase.untraced.append(phase.run_pass(index, next_items()))
        elif workload.clients == 1:
            phase.run_paired(index, next_items())
        else:
            phase.run_split(index, next_items())
        rounds += 1
        elapsed = time.perf_counter() - start
        done = traced or MIN_ITEMS <= sum(
            len(records) for records, _ in phase.untraced)
        if limit is not None or (done and
                                 elapsed * (1 + 0.5 / rounds) >= seconds):
            break
    if traced:
        phase.count(index, next_items())
    return phase


def percentile(values: list[float], q: int) -> float:
    """The *q*-th percentile (q in 1..99), interpolated between ranks."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(workload, phase: Phase) -> dict:
    """The per-layer metrics of a traced run (see :data:`PER_LAYER`)."""
    items = max(1, sum(len(records) for records, _ in phase.traced))
    counted = max(1, phase.counted)
    tracer, counters = phase.tracer, phase.counters
    layers = tracer.layers(phase.sampler.scale)
    metrics = {
        f"{layer}.busy_s": layers.get(layer, {}).get("self_s", 0.0) / items
        for layer in LAYERS
    }
    for name in ("core.builder.gates_out", "transform.pipeline.gates_out",
                 "io.qasm.bytes_out"):
        metrics[name] = tracer.counters.get(name, 0) / items
    for name in ("transform.bodies.reused", "optimize.gates.removed",
                 "optimize.rounds", "sim.batch.forks", "sim.batch.gates"):
        metrics[name] = counters.get(name, 0) / counted
    metrics["sim.kernel.dispatches"] = sum(
        v for k, v in counters.items()
        if k.startswith("sim.kernel.") and k != "sim.kernel.controlled"
    ) / counted
    hits = (counters.get("cache.compiled_stream.hits", 0)
            + counters.get("cache.compiled_digest.hits", 0))
    attempts = hits + counters.get("cache.compiled_stream.misses", 0)
    metrics["transform.inline.hit_ratio"] = hits / attempts if attempts else 0.0
    count, total = phase.occupancy
    metrics["sim.batch.occupancy_mean"] = total / count if count else 0.0
    service = workload.layer_metrics()
    for name in PER_LAYER:
        if name.startswith("service.") and name != "service.client.busy_s":
            metrics[name] = service.get(name, 0.0)
    metrics["service.rejected"] /= len(phase.records())
    metrics["trace.coverage"] = tracer.coverage()
    metrics["trace_overhead"] = phase.trace_overhead()
    return metrics


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload) -> int:
    """Child side of a set-up timing: set up, say so, tear down."""
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.teardown()
    return 0


def setup_times(args, repeats: int) -> list[float]:
    """Reference seconds from spawning a process to its set-up end.

    Each probe is scaled by a baseline process spawned just before it
    (see :mod:`speed`).  The probes keep Python's bytecode cache on, as
    an installed package has it, so the first probe writes
    ``__pycache__`` and the median times imports rather than compiling
    the sources.
    """
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(repeats):
        scale = BASELINE_S / baseline_s(env)
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            child.wait(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
        times.append(elapsed * scale)
    return times


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        cannot_run(f"unknown workload {args.workload!r}; "
                   f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        return setup_probe(workload)

    seconds = args.seconds or run_seconds()
    probes = 0 if args.trace else 1 if args.items else SETUP_REPEATS
    setup_s = setup_times(args, probes // 2)
    try:
        workload.setup()
        with SpeedSampler(timer=workload.clients == 1) as sampler:
            phase = run_phase(workload, sampler, seconds, args.items,
                              bool(args.trace))
        layers = layer_metrics(workload, phase) if args.trace else None
    finally:
        workload.teardown()
    peak_rss_mb = workload.peak_rss_mb()

    records = phase.records()
    failures = [f"{r.item[0]} seed {r.item[1]}: {r.output!r}" for r in records
                if isinstance(r.output, Exception)]
    failures += workload.check(
        [r[:3] for r in records if not isinstance(r.output, Exception)]
    )
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    failed = min(len(records), len(failures))

    if args.trace:
        values, units = layers, PER_LAYER
        path = Path(args.trace_out) if args.trace_out else (
            RESULTS / f"{args.workload}-seed{args.seed}.trace.json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        phase.tracer.write_chrome(path, {
            "workload": args.workload, "seed": args.seed,
            "layers": phase.tracer.layers(phase.sampler.scale),
            "counters": phase.counters,
            "metrics": layers,
        })
    else:
        latencies_ms = phase.latencies_ms(phase.untraced)
        values, units = {
            "setup_s": statistics.median(
                setup_s + setup_times(args, probes - len(setup_s))),
            "items_per_s": phase.items_per_s(phase.untraced),
            "item_p50_ms": percentile(latencies_ms, 50),
            "item_p90_ms": percentile(latencies_ms, 90),
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": 1.0 - failed / len(records),
            "gates_out": workload.gates_out,
        }, END_TO_END

    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Every workload
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Run each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in import_workloads().WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(args.trace)]
        if args.items is not None:
            argv += ["--items", str(args.items)]
        print(f"== {name}", flush=True)
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, child.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(combined, indent=2) + "\n")
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
