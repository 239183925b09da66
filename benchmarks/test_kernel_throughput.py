"""Flat kernel engine vs the legacy moveaxis path: the tentpole numbers.

Two claims are recorded against committed baselines:

* **Gate throughput** at 20 qubits: a representative gate mix (Hadamard,
  T, X, CNOT, Z, S, Rz, Toffoli-via-controls) applied through the flat
  in-place kernels must run >= 3x faster than the legacy ``(2,)*n``
  moveaxis + reshape + matmul engine.
* **Shot-fork sampling**: a mid-circuit-measurement circuit sampled
  through the backend (deterministic prefix simulated once, state forked
  per shot) must beat the PR-1 behaviour -- a full per-shot replay on the
  legacy engine -- by >= 5x.

Baselines are written once to ``benchmarks/baselines/*.json`` (never
overwritten); each run also drops its fresh numbers in
``benchmarks/.latest/`` for ``compare_baselines.py``.  Set
``REPRO_BENCH_QUICK=1`` for the CI smoke mode: one round at a smaller
width, error-checking only (no perf assertions, nothing persisted).
"""

from __future__ import annotations

import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np

from repro import build, get_backend, qubit
from repro.backends.base import outcome_key
from repro.core.gates import Control, NamedGate
from repro.core.wires import QUANTUM
from repro.sim.state import LegacyStateVector, StateVector
from repro.transform.inline import compile_flat

from conftest import quick_mode, record_benchmark, report

QUBITS = 16 if quick_mode() else 20
ROUNDS = 1 if quick_mode() else 3
SHOTS = 8 if quick_mode() else 64


def _gate_mix(n: int) -> list[NamedGate]:
    """One round of the benchmark mix, targets spread across the register."""
    w = lambda k: k % n  # noqa: E731
    return [
        NamedGate("H", (w(0),)),
        NamedGate("T", (w(1),)),
        NamedGate("X", (w(2),)),
        NamedGate("X", (w(4),), (Control(w(3)),)),          # CNOT
        NamedGate("Z", (w(5),)),
        NamedGate("S", (w(6),), inverted=True),
        NamedGate("Rz", (w(7),), param=0.37),
        NamedGate("X", (w(10),), (Control(w(8)), Control(w(9)))),  # Toffoli
    ]


def _prepared(engine_cls, n: int):
    sim = engine_cls(rng=np.random.default_rng(0))
    for wire in range(n):
        sim.add_qubit(wire, False)
    for wire in range(n):
        sim.execute(NamedGate("H", (wire,)))
    return sim


def _time_round(sim, gates) -> float:
    start = time.perf_counter()
    for gate in gates:
        sim.execute(gate)
    return time.perf_counter() - start


def _timed_rounds(n: int, rounds: int) -> dict:
    """Alternating timed rounds of both engines, plus the flat state's norm."""
    gates = _gate_mix(n)
    legacy = _prepared(LegacyStateVector, n)
    flat = _prepared(StateVector, n)
    # Warm caches (matrix + kernel LRUs) and the page cache symmetrically.
    for gate in gates:
        legacy.execute(gate)
        flat.execute(gate)

    # Rounds alternate between the engines, so a slow spell on a shared
    # machine lands on both medians instead of on one engine's rounds.
    # Each timed round follows an untimed one on the same engine: a
    # legacy round's fresh arrays evict the flat engine's state from the
    # cache, which would otherwise slow every flat round after it.
    # The cyclic GC stays out of the rounds.
    legacy_rounds, flat_rounds = [], []
    gc.collect()
    gc.disable()
    try:
        for _ in range(rounds):
            for sim, timed in ((legacy, legacy_rounds), (flat, flat_rounds)):
                _time_round(sim, gates)
                timed.append(_time_round(sim, gates))
    finally:
        gc.enable()
    return {
        "legacy": legacy_rounds,
        "flat": flat_rounds,
        "norm": float(np.sum(np.abs(flat.data) ** 2)),
    }


def _timed_rounds_in_fresh_process(n: int, rounds: int) -> dict:
    """:func:`_timed_rounds` in a new interpreter; its result as JSON."""
    here = pathlib.Path(__file__).resolve().parent
    code = (
        "import json, sys; sys.path[:0] = sys.argv[1:3]; "
        "from test_kernel_throughput import _timed_rounds; "
        "print(json.dumps(_timed_rounds(int(sys.argv[3]), int(sys.argv[4]))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(here), str(here.parent / "src"),
         str(n), str(rounds)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_gate_throughput_speedup():
    gates = _gate_mix(QUBITS)
    # Both engines are timed in a fresh interpreter, because in the test
    # session's own process the ratio depends on what the earlier tests
    # left on the heap.  Once large arrays have been freed, glibc serves
    # later 16 MiB requests from recycled heap pages instead of freshly
    # mapped ones, so the legacy engine's per-gate temporaries stop
    # page-faulting: its rounds run about a quarter faster that way, the
    # flat engine's do not.  A fresh process gives every run the
    # conditions of an isolated one.
    timed = _timed_rounds_in_fresh_process(QUBITS, ROUNDS + 2)
    legacy_time = statistics.median(timed["legacy"])
    flat_time = statistics.median(timed["flat"])
    # The mix is unitary-only, so both engines still hold valid states.
    np.testing.assert_allclose(timed["norm"], 1.0, atol=1e-6)

    speedup = legacy_time / flat_time
    per_gate_flat = flat_time / len(gates)
    record = {
        "qubits": QUBITS,
        "mix_gates": len(gates),
        "legacy_s_per_round": round(legacy_time, 6),
        "flat_s_per_round": round(flat_time, 6),
        "flat_gates_per_s": round(len(gates) / flat_time, 1),
        "speedup": round(speedup, 3),
    }
    baseline = record_benchmark("kernel_throughput", record)
    report(
        f"flat kernel engine vs legacy moveaxis path ({QUBITS} qubits)",
        [
            ("gate mix size", "-", len(gates)),
            ("legacy round (s)", "-", f"{legacy_time:.4f}"),
            ("flat round (s)", "-", f"{flat_time:.4f}"),
            ("flat per-gate (ms)", "-", f"{per_gate_flat * 1e3:.2f}"),
            ("speedup", ">= 3", f"{speedup:.2f}x"),
            (
                "recorded baseline speedup",
                "-",
                baseline["speedup"] if baseline else "recorded now",
            ),
        ],
    )
    if not quick_mode():
        assert speedup >= 3.0, record


# -- shot sampling with a mid-circuit measurement ---------------------------


def _stochastic_circuit(qc, *qs):
    """A deep deterministic prefix, one mid-circuit measurement, short tail."""
    for q in qs:
        qc.hadamard(q)
    for layer in range(3):
        for i, q in enumerate(qs):
            qc.gate_T(q)
            qc.qnot(qs[(i + 1) % len(qs)], controls=q)
            qc.rotZ(0.1 * (layer + 1), q)
    m = qc.measure(qs[0])
    rest = qs[1:]
    qc.qnot(rest[0], controls=m)
    qc.hadamard(rest[1])
    return (m,) + tuple(rest)


def _legacy_sample_repeated(bc, shots: int, seed: int) -> dict[str, int]:
    """The PR-1 sampler: every shot replays the whole flat gate list."""
    rng = np.random.default_rng(seed)
    gates = compile_flat(bc).gates
    outputs = bc.circuit.outputs
    counts: dict[str, int] = {}
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


def test_shot_fork_speedup():
    n = 8 if quick_mode() else 12
    bc, _ = build(_stochastic_circuit, *([qubit] * n))
    backend = get_backend("statevector")
    compiled = compile_flat(bc)
    assert compiled.prefix_len < len(compiled.gates)

    start = time.perf_counter()
    legacy_counts = _legacy_sample_repeated(bc, SHOTS, seed=7)
    legacy_time = time.perf_counter() - start

    start = time.perf_counter()
    result = backend.run(bc, shots=SHOTS, seed=7)
    forked_time = time.perf_counter() - start

    # Same rng consumption order => identical seeded counts.
    assert not result.metadata["batched"]
    assert result.counts == legacy_counts

    speedup = legacy_time / forked_time
    record = {
        "qubits": n,
        "shots": SHOTS,
        "prefix_gates": compiled.prefix_len,
        "suffix_gates": len(compiled.gates) - compiled.prefix_len,
        "replay_s": round(legacy_time, 6),
        "forked_s": round(forked_time, 6),
        "speedup": round(speedup, 3),
    }
    baseline = record_benchmark("shot_fork", record)
    report(
        f"prefix-forked vs full-replay shot sampling ({n} qubits, "
        f"{SHOTS} shots)",
        [
            ("prefix gates (run once)", "-", record["prefix_gates"]),
            ("suffix gates (per shot)", "-", record["suffix_gates"]),
            ("full replay (s)", "-", f"{legacy_time:.4f}"),
            ("prefix-forked (s)", "-", f"{forked_time:.4f}"),
            ("speedup", ">= 5", f"{speedup:.2f}x"),
            (
                "recorded baseline speedup",
                "-",
                baseline["speedup"] if baseline else "recorded now",
            ),
        ],
    )
    if not quick_mode():
        assert speedup >= 5.0, record
