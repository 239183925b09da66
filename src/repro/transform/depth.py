"""Circuit depth: critical-path resource estimation.

Gate counts (Section 5.4) measure total work; *depth* measures the
critical path -- the number of time steps when independent gates run in
parallel.  Like the gate counter, the depth computation works on the
hierarchical representation: a boxed subroutine's depth is computed once
and a call occupies all its bound wires for that many steps (repetitions
multiply, since iterations of an in-place subroutine are sequential).

This is conservative for box calls (a call synchronizes all its wires,
so parallelism *across* a subroutine boundary is not exploited), which is
the standard trade for hierarchy-preserving estimation.  A *controlled*
call is the exception: the body is costed at its own depth, as if the
control were fanned out, while inlining hands the control wire to every
body gate and so serializes them.

:class:`StreamingDepth` is the one implementation; :func:`circuit_depth`
and :func:`t_depth` replay a stored hierarchy through it.
"""

from __future__ import annotations

from ..core.circuit import BCircuit, Subroutine, SubroutineMemo
from ..core.gates import BoxCall, Comment, Gate, NamedGate
from ..core.stream import StreamConsumer, replay_bcircuit


def circuit_depth(bc: BCircuit) -> int:
    """The critical-path depth of a hierarchical circuit.

    Comments cost nothing; every other gate costs one step on the wires
    it touches; a boxed call costs its body's depth (times repetitions)
    on its bound wires.  Exact big-integer arithmetic throughout, so the
    depth of trillion-gate circuits is as cheap to compute as their count.
    """
    return replay_bcircuit(bc, StreamingDepth())


def t_depth(bc: BCircuit) -> int:
    """Depth counting only T/T* gates (fault-tolerance cost model).

    Clifford gates are treated as free (depth 0); each T or T* costs one
    step.  Useful after a decomposition into a Clifford+T-ish base.
    """
    return replay_bcircuit(bc, StreamingDepth(t_only=True))


class StreamingDepth(StreamConsumer):
    """Critical-path depth consumer for a gate stream.

    Every gate occupies ``wires_in() | wires_out()`` and starts once the
    last of those wires is free.  A gate costs one step (with ``t_only``:
    one step for T/T*, none otherwise); a boxed call costs its body's
    depth times its repetitions, and at least one step for full depth.
    Bodies run through the same :meth:`gate`, once per name, so
    repeated-subroutine streams stay symbolic.

    Finish times are kept for every wire id seen, live or dead, because
    ids do come back: ``with_computed`` uncomputes by replaying its
    compute block, re-creating an ancilla under its old id, and a QASM
    import re-initializes a terminated column.  A re-used id starts
    after its previous life ends.  Memory is O(top-level wire ids).
    """

    def __init__(self, t_only: bool = False):
        self.t_only = t_only

    def begin(self, inputs, namespace) -> None:
        self._depths = SubroutineMemo(namespace, self._run_body)
        self.frontier: dict[int, int] = {w: 0 for w, _ in inputs}
        self.total = 0

    def gate(self, gate: Gate) -> None:
        if isinstance(gate, Comment):
            return
        if isinstance(gate, BoxCall):
            steps = self._depths[gate.name] * gate.repetitions
            if not self.t_only:
                steps = max(steps, 1)
        elif self.t_only:
            steps = int(isinstance(gate, NamedGate) and gate.name == "T")
        else:
            steps = 1
        frontier = self.frontier
        if gate.__class__ is NamedGate:  # in place: these are all its wires
            wires = [*gate.targets, *[c.wire for c in gate.controls]]
        else:
            wires = [w for w, _ in gate.wires_in() + gate.wires_out()]
        finish = max([frontier.get(w, 0) for w in wires], default=0) + steps
        for wire in wires:
            frontier[wire] = finish
        if finish > self.total:
            self.total = finish

    def _run_body(self, sub: Subroutine) -> int:
        """A subroutine body's depth, run through :meth:`gate` once.

        The memo fills callees first, so the body finds every callee's
        depth there and never recurses.
        """
        caller = self.frontier, self.total
        self.frontier = {w: 0 for w, _ in sub.circuit.inputs}
        self.total = 0
        for gate in sub.circuit.gates:
            self.gate(gate)
        depth = self.total
        self.frontier, self.total = caller
        return depth

    def finish(self, end) -> int:
        return self.total
