"""Equivalence-check backend: prove two circuits equal up to global phase.

Registers as ``backend="equiv"`` (see :meth:`repro.program.Program.
equivalent_to`): instead of sampling one circuit, it compares *two* and
returns a structured :class:`EquivVerdict` in
``RunResult.metadata["equiv"]``.  Three deciders run in escalation
order, cheapest first:

1. **clifford** -- when both circuits are measurement-free Clifford
   circuits over the same inputs, each is driven through the stabilizer
   tableau starting from the identity tableau.  The final tableau
   records the conjugation action on every ``X_i``/``Z_i`` generator,
   so tableau equality decides *unitary* equality up to global phase in
   polynomial time.  A tableau mismatch is a proof of distinctness; the
   statevector decider is then consulted for a concrete witness when
   the width allows.
2. **statevector** -- under the width cap, both circuits are simulated
   on every computational-basis input over the shared input wires
   (inputs only one side has -- e.g. exporter-allocated ancilla columns
   after a QASM round trip -- are forced to |0>, which is their defined
   value).  Final classical bits must agree exactly and final states up
   to one phase; for measurement-free pairs that phase must be *common
   across all basis inputs*, which separates true global phase from an
   observable relative phase.  A mismatch yields a ``distinct`` verdict
   with the witness basis input.
3. **normal-form** -- for circuits too wide to simulate, both sides are
   inlined, peephole-optimized to a fixpoint (:mod:`repro.optimize`),
   wire-canonicalized, and compared as canonical Quipper-ASCII text.
   Textual equality proves equivalence (every peephole rewrite is
   unitarity-preserving); inequality proves nothing, so the verdict
   degrades to ``unknown`` rather than ``distinct``.

The verdict records which decider settled the question and what it
cost.  ``distinct`` verdicts from the statevector decider carry a
witness: the basis-input assignment on which the two circuits
observably differ.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.circuit import BCircuit
from ..core.errors import AssertionFailedError, SimulationError
from ..core.gates import Comment, Discard, Measure, NamedGate
from ..core.wires import QUANTUM
from ..sim.clifford import CliffordState
from ..sim.state import StateVector
from ..transform import canonicalize_wires, inline
from .base import Backend, BackendError, RunResult
from .registry import register_backend


@dataclass
class EquivVerdict:
    """The structured outcome of an equivalence check.

    ``verdict`` is ``"equivalent"``, ``"distinct"``, or ``"unknown"``;
    ``decider`` names the decider that settled it (``"clifford"``,
    ``"statevector"``, ``"normal-form"``, or ``None`` when nothing
    could decide); ``witness`` carries the distinguishing basis input
    for ``distinct`` verdicts found by simulation; ``reason`` is a
    human-readable one-liner; ``cost`` records per-decider work
    counters and the total elapsed seconds.
    """

    verdict: str
    decider: str | None = None
    witness: dict[str, Any] | None = None
    reason: str = ""
    cost: dict[str, Any] = field(default_factory=dict)

    @property
    def is_equivalent(self) -> bool:
        """True only for a proven ``"equivalent"`` verdict."""
        return self.verdict == "equivalent"


def _prepare(bc: BCircuit) -> BCircuit:
    """Inline the hierarchy and canonicalize wire ids for comparison.

    Canonicalization renames inputs first (in input order), then every
    other wire in first-use order -- so two circuits that differ only
    in wire-id bookkeeping (a round-tripped import, an optimized copy)
    line up positionally.
    """
    return canonicalize_wires(inline(bc))


def _flat_gates(bc: BCircuit) -> list:
    return [g for g in bc.circuit.gates if not isinstance(g, Comment)]


def _quantum_inputs(bc: BCircuit) -> list[int]:
    return [w for w, t in bc.circuit.inputs if t == QUANTUM]


# ---------------------------------------------------------------------------
# Decider 1: Clifford tableau comparison
# ---------------------------------------------------------------------------


def _try_clifford(a: BCircuit, b: BCircuit, cost: dict) -> str | None:
    """Tableau comparison; ``"equivalent"``/``"distinct"``/None.

    Applicable only to measurement-free, allocation-free NamedGate
    streams over identical quantum inputs: then the simulation tableau,
    seeded with the identity generators, ends as the conjugation table
    of the whole unitary, and array equality decides equivalence up to
    global phase.
    """
    gates_a, gates_b = _flat_gates(a), _flat_gates(b)
    if a.circuit.inputs != b.circuit.inputs:
        return None
    if any(t != QUANTUM for _, t in a.circuit.inputs):
        return None
    streams = (gates_a, gates_b)
    if any(
        not isinstance(g, NamedGate) for gates in streams for g in gates
    ):
        return None
    tableaus = []
    for gates in streams:
        state = CliffordState()
        state.load_inputs(a.circuit.inputs, {})
        try:
            for gate in gates:
                state.execute(gate)
        except SimulationError:
            return None  # non-Clifford gate: escalate
        tableaus.append(state.tableau)
    cost["clifford_gates"] = len(gates_a) + len(gates_b)
    ta, tb = tableaus
    same = (
        np.array_equal(ta.x, tb.x)
        and np.array_equal(ta.z, tb.z)
        and np.array_equal(ta.r, tb.r)
    )
    return "equivalent" if same else "distinct"


# ---------------------------------------------------------------------------
# Decider 2: statevector comparison over all basis inputs
# ---------------------------------------------------------------------------


def _lazify_inputs(bc: BCircuit, keep: list[int]) -> BCircuit:
    """Demote quantum inputs outside *keep* to just-in-time ``Init(|0>)``.

    A QASM round trip gives every historical wire id its own ``qreg``
    column, so the re-imported circuit can declare far more inputs than
    it ever holds live at once.  Forcing those extra inputs to |0> is
    their defined value; materializing each as an ``Init(False)``
    immediately before its first use (instead of loading them all up
    front) keeps the simulated width equal to the circuit's true peak
    liveness, which is what the width cap should measure.
    """
    keep_set = set(keep)
    pending = {
        w for w, t in bc.circuit.inputs
        if t == QUANTUM and w not in keep_set
    }
    if not pending:
        return bc
    from ..core.gates import Init

    gates = []
    for gate in bc.circuit.gates:
        if not isinstance(gate, Comment):
            for wire, _ in gate.wires_in():
                if wire in pending:
                    pending.discard(wire)
                    gates.append(Init(wire, False))
        gates.append(gate)
    for wire in sorted(pending):  # declared but never touched
        gates.append(Init(wire, False))
    inputs = tuple(
        (w, t) for w, t in bc.circuit.inputs
        if t != QUANTUM or w in keep_set
    )
    circuit = type(bc.circuit)(inputs, tuple(gates), bc.circuit.outputs)
    return BCircuit(circuit, bc.namespace)


def _final_state(bc: BCircuit, in_values: dict[int, bool],
                 seed: int) -> StateVector:
    """Simulate *bc* from a basis input; both sides share the seed so
    measurement draws align on equivalent circuits."""
    sim = StateVector(rng=np.random.default_rng(seed))
    sim.load_inputs(bc.circuit.inputs, in_values)
    sim.run(bc.circuit.gates)
    return sim


def _aligned_state(sim: StateVector) -> tuple[tuple[int, ...], np.ndarray]:
    """The live wire ids (sorted) and the state with axes in that order."""
    wires = sorted(sim.axes)
    array = np.asarray(sim.state)
    if wires:
        array = np.moveaxis(
            array, [sim.axes[w] for w in wires], range(len(wires))
        )
    return tuple(wires), array.ravel()


def _try_statevector(a: BCircuit, b: BCircuit, *, max_width: int,
                     atol: float, seed: int,
                     cost: dict) -> tuple[str, dict | None, str] | None:
    """Exhaustive basis-input comparison under the width cap.

    Returns ``(verdict, witness, reason)`` or ``None`` when the pair is
    too wide.  Sound and complete for unitary circuits: equality of the
    action on every basis state with one common phase *is* equality up
    to global phase.  For stochastic circuits (measure/discard) the
    comparison is per-trajectory under a shared seed.
    """
    in_a, in_b = _quantum_inputs(a), _quantum_inputs(b)
    shared = in_a if len(in_a) <= len(in_b) else in_b
    if len(shared) > max_width:
        return None
    a, b = _lazify_inputs(a, shared), _lazify_inputs(b, shared)
    if max(a.check(), b.check()) > max_width:
        return None
    stochastic = any(
        isinstance(g, (Measure, Discard))
        for bc in (a, b)
        for g in bc.circuit.gates
    )
    phases: list[tuple[dict, complex]] = []
    cost["basis_states"] = 2 ** len(shared)
    for bits in itertools.product((False, True), repeat=len(shared)):
        in_values = dict(zip(shared, bits))
        witness = {"in_values": {w: int(v) for w, v in in_values.items()}}
        failed = []
        sims = []
        for bc in (a, b):
            try:
                sims.append(_final_state(bc, in_values, seed))
            except AssertionFailedError:
                failed.append(bc)
        if len(failed) == 1:
            return ("distinct", witness,
                    "a termination assertion fails on one side only")
        if failed:
            continue  # both sides reject this input identically
        sim_a, sim_b = sims
        if sim_a.bits != sim_b.bits:
            return ("distinct", witness, "final classical bits differ")
        wires_a, state_a = _aligned_state(sim_a)
        wires_b, state_b = _aligned_state(sim_b)
        if wires_a != wires_b:
            return ("distinct", witness, "live output wires differ")
        if not wires_a:
            continue
        anchor = int(np.argmax(np.abs(state_a)))
        if abs(state_b[anchor]) < atol:
            return ("distinct", witness, "final states differ")
        phase = state_a[anchor] / state_b[anchor]
        if abs(abs(phase) - 1.0) > atol or not np.allclose(
            state_a, phase * state_b, atol=atol
        ):
            return ("distinct", witness, "final states differ")
        phases.append((witness, phase))
    if not stochastic and phases:
        reference = phases[0][1]
        for witness, phase in phases[1:]:
            if abs(phase - reference) > atol:
                return (
                    "distinct", witness,
                    "states agree only up to a relative (basis-"
                    "dependent) phase",
                )
    return ("equivalent", None, "all basis inputs agree up to one phase")


# ---------------------------------------------------------------------------
# Decider 3: normal-form comparison
# ---------------------------------------------------------------------------


def _try_normal_form(a: BCircuit, b: BCircuit,
                     cost: dict) -> str | None:
    """Optimize both sides to a peephole fixpoint and compare the text.

    Every pass in the default chain preserves the circuit's semantics,
    so equal canonical serializations prove equivalence at any width.
    Unequal text proves nothing (the rewrite system is not confluent
    for arbitrary circuits), so the caller must degrade to ``unknown``.
    """
    from ..io import dumps
    from ..optimize import DEFAULT_WINDOW, optimize_bcircuit, resolve_passes

    passes = resolve_passes(())
    normal = []
    for bc in (a, b):
        optimized = canonicalize_wires(
            optimize_bcircuit(bc, passes, window=DEFAULT_WINDOW)
        )
        normal.append(dumps(optimized))
    cost["normal_form_gates"] = len(a.circuit.gates) + len(b.circuit.gates)
    return "equivalent" if normal[0] == normal[1] else None


# ---------------------------------------------------------------------------
# The escalation driver and the backend
# ---------------------------------------------------------------------------


def decide_equivalence(a: BCircuit, b: BCircuit, *, max_width: int = 12,
                       atol: float = 1e-7,
                       seed: int | None = None) -> EquivVerdict:
    """Decide whether two circuits are equal up to global phase.

    Runs the three deciders in escalation order (Clifford tableau,
    statevector basis enumeration under *max_width*, peephole normal
    form) and returns the first settled :class:`EquivVerdict`.  *seed*
    fixes the shared measurement-draw stream for stochastic circuits.
    """
    start = time.perf_counter()
    cost: dict[str, Any] = {}
    a, b = _prepare(a), _prepare(b)

    def done(verdict, decider, witness=None, reason=""):
        cost["elapsed_s"] = round(time.perf_counter() - start, 6)
        return EquivVerdict(
            verdict=verdict, decider=decider, witness=witness,
            reason=reason, cost=cost,
        )

    clifford = _try_clifford(a, b, cost)
    if clifford == "equivalent":
        return done("equivalent", "clifford",
                    reason="stabilizer tableaus identical")
    if clifford == "distinct":
        # The tableau mismatch is already a proof; the statevector
        # decider is consulted only to attach a concrete witness.
        sv = _try_statevector(
            a, b, max_width=max_width, atol=atol, seed=seed or 0,
            cost=cost,
        )
        if sv is not None and sv[0] == "distinct":
            return done("distinct", "clifford", sv[1], sv[2])
        return done("distinct", "clifford",
                    reason="stabilizer tableaus differ")
    sv = _try_statevector(
        a, b, max_width=max_width, atol=atol, seed=seed or 0, cost=cost
    )
    if sv is not None:
        verdict, witness, reason = sv
        return done(verdict, "statevector", witness, reason)
    if _try_normal_form(a, b, cost) == "equivalent":
        return done("equivalent", "normal-form",
                    reason="identical peephole normal forms")
    return done(
        "unknown", None,
        reason="too wide to simulate and the normal forms differ; "
        "this proves nothing either way",
    )


@register_backend
class EquivBackend(Backend):
    """The ``equiv`` backend: run = compare against ``other``.

    Construct with ``get_backend("equiv", other=...)`` (or through
    :meth:`repro.program.Program.equivalent_to`); ``run(bc)`` then
    decides ``bc ~ other`` and returns the :class:`EquivVerdict` in
    ``metadata["equiv"]``.  Options: *other* (a Program or BCircuit,
    required), *max_width* (statevector decider cap, default 12),
    *atol* (amplitude tolerance, default 1e-7).
    """

    name = "equiv"
    capabilities = frozenset({"deterministic"})

    def __init__(self, other=None, max_width: int = 12,
                 atol: float = 1e-7):
        if other is None:
            raise BackendError(
                "the equiv backend needs a circuit to compare against: "
                'get_backend("equiv", other=...) or '
                "Program.equivalent_to(other)"
            )
        self.other = getattr(other, "bcircuit", other)
        if not isinstance(self.other, BCircuit):
            raise BackendError(
                f"other must be a Program or BCircuit, got {other!r}"
            )
        self.max_width = max_width
        self.atol = atol

    def run(
        self,
        bc: BCircuit,
        *,
        shots: int | None = None,
        in_values: dict[int, bool] | None = None,
        seed: int | None = None,
    ) -> RunResult:
        """Decide ``bc ~ other``; the verdict rides in metadata.

        *shots* and *in_values* do not apply to equivalence checking
        and are rejected when given; *seed* fixes the shared
        measurement-draw stream used for stochastic circuits.
        """
        if shots is not None:
            raise BackendError("the equiv backend does not sample; "
                               "drop shots=")
        if in_values:
            raise BackendError(
                "the equiv backend enumerates basis inputs itself; "
                "drop in_values="
            )
        verdict = decide_equivalence(
            bc, self.other, max_width=self.max_width, atol=self.atol,
            seed=seed,
        )
        return RunResult(
            backend=self.name,
            metadata={"equiv": verdict, "verdict": verdict.verdict},
        )
