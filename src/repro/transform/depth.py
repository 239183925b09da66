"""Circuit depth: critical-path resource estimation.

Gate counts (Section 5.4) measure total work; *depth* measures the
critical path -- the number of time steps when independent gates run in
parallel.  Like the gate counter, the depth computation works on the
hierarchical representation: a boxed subroutine's depth is computed once
and a call occupies all its bound wires for that many steps (repetitions
multiply, since iterations of an in-place subroutine are sequential).

A gate starts once the last of its wires is free and costs one step (for
T-depth: T/T* one, others none); comments cost nothing.  This is
conservative for box calls (a call synchronizes all its wires,
so parallelism *across* a subroutine boundary is not exploited), which is
the standard trade for hierarchy-preserving estimation.  A *controlled*
call is the exception: the body is costed at its own depth, as if the
control were fanned out, while inlining hands the control wire to every
body gate and so serializes them.

The frontier is advanced in the walk that counts and validates
(:mod:`repro.transform.summary`), whose summary these functions read.
"""

from __future__ import annotations

from ..core.circuit import BCircuit
from .summary import summarize


def circuit_depth(bc: BCircuit) -> int:
    """The critical-path depth of a hierarchical circuit (exact at any
    scale, and as cheap as its count)."""
    return summarize(bc).depth


def t_depth(bc: BCircuit) -> int:
    """Depth counting only T/T* gates (fault-tolerance cost model).

    Clifford gates are treated as free (depth 0); each T or T* costs one
    step.  Useful after a decomposition into a Clifford+T-ish base.
    """
    return summarize(bc, t_only=True).depth
