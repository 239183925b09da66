"""Stabilizer backend: polynomial-time sampling of Clifford circuits.

Wraps :mod:`repro.sim.clifford` as the ``"clifford"`` backend.  The
hierarchy is inlined *once* per circuit, its deterministic prefix (which
draws nothing) runs once on a :class:`~repro.sim.clifford.CliffordState`,
and each shot runs the rest on its own copy of that state, so seeded
counts are those of replaying every gate per shot.  Gate streams reach
the same :meth:`CliffordBackend.sample`.
"""

from __future__ import annotations

from ..sim.clifford import CliffordState
from .base import RunResult, SimulatorBackend, SuffixScan, outcome_key
from .registry import register_backend


@register_backend
class CliffordBackend(SimulatorBackend):
    """CHP tableau simulation for Clifford circuits (H, S, CNOT, ...)."""

    name = "clifford"
    capabilities = frozenset({"counts"})

    def load(self, inputs, in_values: dict[int, bool], rng) -> CliffordState:
        state = CliffordState(rng=rng)
        state.load_inputs(inputs, in_values)
        return state

    def single(self, state: CliffordState) -> RunResult:
        return RunResult(backend=self.name, bits=dict(state.bits),
                         metadata={"state": state})

    def sample(self, base: CliffordState, scan: SuffixScan, run_suffix,
               outputs, shots: int, rng) -> RunResult:
        """Per shot: copy the prefix tableau, run the suffix on the copy,
        read the outputs."""
        counts: dict[str, int] = {}
        for _ in range(shots):
            state = base.copy()
            if scan.gates:
                run_suffix(state)
            key = outcome_key([state.read(w, t) for w, t in outputs])
            counts[key] = counts.get(key, 0) + 1
        return RunResult(backend=self.name, shots=shots, counts=counts)
