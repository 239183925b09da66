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

from ..core.circuit import BCircuit
from ..transform.count import total_gates, total_logical_gates
from ..transform.summary import Summary, summarize
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
        # The summaries validate the circuit before it is costed.
        resources = resource_report(
            summarize(bc), summarize(bc, t_only=True).depth,
            bc.circuit.inputs, bc.circuit.outputs, bc.namespace,
        )
        return RunResult(backend=self.name, shots=shots, resources=resources)


def resource_report(summary: Summary, t_depth: int, inputs, outputs,
                    namespace) -> dict:
    """The ``resources`` report of a circuit from its summary, T-depth,
    endpoints and namespace."""
    counts = summary.counts
    return {
        "gate_counts": dict(counts),
        "total_gates": total_gates(counts),
        "logical_gates": total_logical_gates(counts),
        "depth": summary.depth,
        "t_depth": t_depth,
        "width": summary.width,
        "inputs": len(inputs),
        "outputs": len(outputs),
        "subroutines": len(namespace),
    }


def format_resource_report(result: RunResult) -> str:
    """Render a ResourceBackend result in the paper's gatecount style,
    extended with the depth and T-depth lines."""
    from ..output.gatecount import format_totals

    res = result.resources or {}
    lines = format_totals(res["gate_counts"], res["inputs"], res["outputs"],
                          res["width"])
    lines += [f"Depth: {res['depth']}", f"T-depth: {res['t_depth']}"]
    return "\n".join(lines)
