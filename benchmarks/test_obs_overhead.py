"""Telemetry overhead guard: instrumentation must be ~free.

The obs layer instruments the hottest seam in the tree -- per-gate kernel
dispatch in ``repro.sim.kernels`` -- so it carries an explicit cost
budget:

* **Disabled** (the default), every instrumented site reduces to a single
  module-attribute check (``if _obs.ENABLED:``).  The committed
  ``kernel_throughput`` baseline already polices this path against the
  pre-telemetry numbers via ``compare_baselines.py``.
* **Enabled** (a capture session is active), counters and histogram
  updates may not add more than **2%** to the kernel-throughput gate mix.

This benchmark measures the enabled/disabled ratio directly, reusing the
kernel-throughput mix at the same register width.  The modes are paired
gate by gate: each gate of the mix runs four times in a row, disabled,
enabled, enabled, disabled (or the mirror order, alternately), so the
two modes of a pair see the same machine within a few milliseconds and
a drift or a first-run cache effect lands on both.  The overhead is the
median of the quads' enabled/disabled ratios.  Comparing the fastest
whole round of each mode instead compared moments up to seconds apart,
and on a shared machine the CPU's speed moves by more than the budget
in that time.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro import obs

from conftest import quick_mode, record_benchmark, report
from test_kernel_throughput import QUBITS, _gate_mix, _prepared

from repro.sim.state import StateVector

#: Fractional telemetry overhead allowed on the per-gate hot path.
OVERHEAD_BUDGET = 0.02

# On a shared machine the quads' ratios spread by about +-8% (quartiles),
# so the median needs many quads: 24 rounds of the 32-gate mix give 768.
# Quick-mode rounds stay high too (the quick tree never asserts the
# budget, but its recorded ratio feeds the CI bench-regression diff).
ROUNDS = 8 if quick_mode() else 24


def _timed(sim, gate) -> float:
    start = time.perf_counter()
    sim.execute(gate)
    return time.perf_counter() - start


def _quad(sim, gate, enabled_first: bool, counters: dict):
    """Four runs of *gate*, D E E D (E D D E when *enabled_first*).

    An untimed run goes first, so all four timed runs repeat the gate
    (the first run after a different gate is slower, and the mirror
    orders would put that cost on one mode and then on the other).
    Returns the summed (disabled, enabled) times and adds the enabled
    runs' counters to *counters*.
    """
    sim.execute(gate)
    times = {False: 0.0, True: 0.0}
    outer, inner = enabled_first, not enabled_first
    for enabled in (outer, inner, inner, outer):
        if not enabled:
            times[False] += _timed(sim, gate)
            continue
        with obs.capture() as rec:
            times[True] += _timed(sim, gate)
        for name, count in rec.counters.items():
            counters[name] = counters.get(name, 0) + count
    return times[False], times[True]


def test_enabled_telemetry_overhead_under_budget():
    gates = _gate_mix(QUBITS) * 4
    # One simulator serves both modes: the mix is mode-independent, and
    # sharing the state array removes allocation-placement bias (two
    # separate 2^20 statevectors can differ by more than the budget from
    # page alignment alone).
    sim = _prepared(StateVector, QUBITS)
    for gate in gates:  # warm matrix/kernel LRUs and the page cache
        sim.execute(gate)
    with obs.capture():
        for gate in gates:
            sim.execute(gate)

    # Cyclic-GC pauses are the dominant noise source when this runs after
    # other tests (their surviving objects make gen-2 collections cost
    # more than the 2% budget); collect once, then keep the collector out
    # of the timed runs so the ratio measures instrumentation only.
    gc.collect()
    gc.disable()
    counters: dict[str, int] = {}
    ratios, disabled_rounds, enabled_rounds = [], [], []
    try:
        for round_index in range(ROUNDS):
            disabled_round = enabled_round = 0.0
            for index, gate in enumerate(gates):
                disabled, enabled = _quad(
                    sim, gate, (round_index + index) % 2 == 1, counters
                )
                ratios.append(enabled / disabled)
                disabled_round += disabled / 2
                enabled_round += enabled / 2
            disabled_rounds.append(disabled_round)
            enabled_rounds.append(enabled_round)
    finally:
        gc.enable()
    # The enabled runs really did record: every gate classified.
    kernel_counts = sum(
        count for name, count in counters.items()
        if name.startswith("sim.kernel.") and name != "sim.kernel.controlled"
    )
    assert kernel_counts == 2 * ROUNDS * len(gates)

    overhead = statistics.median(ratios) - 1.0
    disabled = statistics.median(disabled_rounds)
    enabled = statistics.median(enabled_rounds)
    record = {
        "qubits": QUBITS,
        "mix_gates": len(gates),
        "rounds": ROUNDS,
        "disabled_s_per_round": round(disabled, 6),
        "enabled_s_per_round": round(enabled, 6),
        "overhead_pct": round(overhead * 100, 3),
        "speedup": round(1.0 / (1.0 + overhead), 3),
    }
    baseline = record_benchmark("obs_overhead", record)
    report(
        f"telemetry overhead on the kernel gate mix ({QUBITS} qubits)",
        [
            ("gate mix size", "-", len(gates)),
            ("disabled round (s)", "-", f"{disabled:.4f}"),
            ("enabled round (s)", "-", f"{enabled:.4f}"),
            ("overhead", f"< {OVERHEAD_BUDGET:.0%}", f"{overhead:.2%}"),
            (
                "recorded baseline ratio",
                "-",
                baseline["speedup"] if baseline else "recorded now",
            ),
        ],
    )
    if not quick_mode():
        assert overhead < OVERHEAD_BUDGET, record


def test_disabled_capture_records_nothing():
    """Outside a capture session the counters genuinely go nowhere."""
    sim = _prepared(StateVector, QUBITS if quick_mode() else 12)
    gates = _gate_mix(8)
    for gate in gates:
        sim.execute(gate)
    with obs.capture() as rec:
        pass
    assert rec.counters == {}
    assert rec.spans == []
