"""Resource-estimation backend: gate counts, depth, and width as a target.

"Quipper: Concrete Resource Estimation in Quantum Algorithms" frames
resource estimation as just another way to *execute* a circuit: instead of
amplitudes, the run produces costs.  This backend wraps the hierarchical
gate counter (Section 5.4 of the PLDI paper -- exact counts at
trillion-gate scale without inlining) and the critical-path depth
machinery behind the same :class:`~repro.backends.Backend` interface as
the simulators, so a CLI can flip between sampling and costing a circuit
by changing one string.
"""

from __future__ import annotations

from ..core.circuit import BCircuit, body_widths, track_gate
from ..core.stream import StreamConsumer, replay_bcircuit
from ..transform.count import StreamingCounter, total_gates, total_logical_gates
from ..transform.depth import StreamingDepth
from .base import Backend, RunResult
from .registry import register_backend


@register_backend
class ResourceBackend(Backend):
    """Static cost analysis; ``shots`` is accepted and ignored."""

    name = "resources"
    capabilities = frozenset({"resources", "deterministic"})

    def run(
        self,
        bc: BCircuit,
        *,
        shots: int | None = None,
        in_values: dict[int, bool] | None = None,
        seed: int | None = None,
    ) -> RunResult:
        bc.check()  # a caller's circuit is validated before it is costed
        resources = replay_bcircuit(bc, StreamingResources())
        return RunResult(backend=self.name, shots=shots, resources=resources)


class StreamingResources(StreamConsumer):
    """The ``resources`` backend's cost report, computed over a stream.

    Fans each streamed gate out to the streaming counter, both depth
    consumers, and the liveness rule
    (:func:`~repro.core.circuit.track_gate`), whose high-water mark is
    the width.  It is the one implementation of the
    :class:`ResourceBackend` report, which replays a stored circuit
    through it; over a generating stream no main circuit ever exists.
    Boxed subroutine calls are costed symbolically -- counts, depths and
    transient widths from per-body memos of this stream -- so
    repeated-subroutine streams of any logical size finish in
    O(subroutine size) memory.
    """

    def begin(self, inputs, namespace) -> None:
        self._counter = StreamingCounter()
        self._depth = StreamingDepth()
        self._t_depth = StreamingDepth(t_only=True)
        self._counter.begin(inputs, namespace)
        self._depth.begin(inputs, namespace)
        self._t_depth.begin(inputs, namespace)
        self._widths = body_widths(namespace)
        self._live: dict[int, str] = dict(inputs)
        self._peak = len(self._live)

    def gate(self, gate) -> None:
        self._counter.gate(gate)
        self._depth.gate(gate)
        self._t_depth.gate(gate)
        width = track_gate(self._live, gate, self._widths)
        if width > self._peak:
            self._peak = width

    def finish(self, end) -> dict:
        counts = self._counter.finish(end)
        return {
            "gate_counts": dict(counts),
            "total_gates": total_gates(counts),
            "logical_gates": total_logical_gates(counts),
            "depth": self._depth.finish(end),
            "t_depth": self._t_depth.finish(end),
            "width": self._peak,
            "inputs": len(end.inputs),
            "outputs": len(end.outputs),
            "subroutines": len(end.namespace),
        }


def format_resource_report(result: RunResult) -> str:
    """Render a ResourceBackend result in the paper's gatecount style,
    extended with the depth and T-depth lines."""
    from ..output.gatecount import _fmt_key

    res = result.resources or {}
    lines = ["Aggregated gate count:"]
    lines.extend(
        f"{count}: {_fmt_key(name, pos, neg)}"
        for (name, pos, neg), count in sorted(res["gate_counts"].items())
    )
    lines.append(f"Total gates: {res['total_gates']}")
    lines.append(f"Inputs: {res['inputs']}")
    lines.append(f"Outputs: {res['outputs']}")
    lines.append(f"Qubits in circuit: {res['width']}")
    lines.append(f"Depth: {res['depth']}")
    lines.append(f"T-depth: {res['t_depth']}")
    return "\n".join(lines)
