"""Stabilizer backend: polynomial-time sampling of Clifford circuits.

Wraps :mod:`repro.sim.clifford` as the ``"clifford"`` backend.  The
hierarchical circuit is inlined *once* per run; each shot replays the
flat gate list on a fresh :class:`~repro.sim.clifford.CliffordState`, so
sampling cost is shots x (polynomial tableau update), independent of the
inlining cost.  :class:`CliffordFeed` runs the same state on a gate
stream.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import BCircuit
from ..core.gates import Comment, Gate
from ..core.stream import StreamConsumer
from ..sim.clifford import CliffordState, run_flat
from ..transform.inline import compile_flat
from .base import Backend, BackendError, RunResult, outcome_key
from .registry import register_backend


@register_backend
class CliffordBackend(Backend):
    """CHP tableau simulation for Clifford circuits (H, S, CNOT, ...)."""

    name = "clifford"
    capabilities = frozenset({"counts"})

    def run(
        self,
        bc: BCircuit,
        *,
        shots: int | None = None,
        in_values: dict[int, bool] | None = None,
        seed: int | None = None,
    ) -> RunResult:
        in_values = in_values or {}
        rng = np.random.default_rng(seed)
        # One inline per circuit: the compiled stream is memoized on the
        # BCircuit, so repeated runs and per-shot replays never re-walk
        # the box hierarchy.
        gates = compile_flat(bc).gates
        inputs = bc.circuit.inputs
        if shots is None:
            state = run_flat(inputs, gates, in_values, rng)
            return RunResult(
                backend=self.name,
                bits=dict(state.bits),
                metadata={"state": state},
            )
        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        outputs = bc.circuit.outputs
        counts: dict[str, int] = {}
        for _ in range(shots):
            state = run_flat(inputs, gates, in_values, rng)
            key = outcome_key([state.read(w, t) for w, t in outputs])
            counts[key] = counts.get(key, 0) + 1
        return RunResult(backend=self.name, shots=shots, counts=counts)


class CliffordFeed(StreamConsumer):
    """Run a gate stream on a :class:`~repro.sim.clifford.CliffordState`.

    The state's tableau gains a column the first time each wire appears,
    so the stream needs no pre-scan.  Boxed calls are expanded on the fly
    through the lazy inliner.
    """

    name = "clifford"

    def __init__(self, rng, in_values: dict[int, bool] | None = None):
        self.rng = rng
        self.in_values = in_values or {}

    def begin(self, inputs, namespace) -> None:
        from ..transform.inline import StreamExpander

        self._expander = StreamExpander(namespace)
        self.state = CliffordState(rng=self.rng)
        self.state.load_inputs(inputs, self.in_values)

    def gate(self, gate: Gate) -> None:
        if isinstance(gate, Comment):
            return
        for flat in self._expander.expand(gate):
            self.state.execute(flat)

    def finish(self, end) -> None:
        self.outputs = end.outputs

    def result(self) -> RunResult:
        """The single-run result: the final bits and state."""
        return RunResult(
            backend=self.name,
            bits=dict(self.state.bits),
            metadata={"state": self.state},
        )

    def outcome(self) -> str:
        """This run's outcome key over the outputs."""
        return outcome_key([self.state.read(w, t) for w, t in self.outputs])
