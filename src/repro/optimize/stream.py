"""StreamOptimizer: the peephole optimizer as a gate-stream stage.

The streaming counterpart of :func:`~repro.optimize.peephole.
optimize_bcircuit`: gates flow through a bounded sliding window
(:class:`~repro.optimize.peephole.PeepholeOptimizer`) on their way to
the downstream consumer, so optimization composes with the O(1)-memory
streaming surface -- ``prog.stream().optimize().count()`` never
materializes the main circuit.  Memory stays O(window), independent of
stream length, and the stage is safe under the builder's
``with_computed`` retention: retention buffering happens inside the
*producer* (:class:`~repro.core.stream.StreamingCirc`), strictly
upstream of this consumer, so replayed uncompute gates arrive as
ordinary stream elements.

Boxed subroutine bodies are optimized **once, on demand**, the first
time a ``BoxCall`` naming them arrives (their callees first) -- bodies
the passes leave untouched are reused, the same identity-reuse
discipline as :class:`~repro.transform.pipeline.StreamTransformer`.
"""

from __future__ import annotations

import dataclasses

from ..core.circuit import RewrittenBodies, Subroutine
from ..core.gates import BoxCall, Gate
from ..core.stream import StreamConsumer
from ..obs import core as _obs
from .passes import PeepholePass, body_safe_passes, resolve_passes
from .peephole import DEFAULT_WINDOW, PeepholeOptimizer, _optimized_body


def _counted_body(sub: Subroutine, passes: tuple[PeepholePass, ...],
                  window: int) -> Subroutine:
    """Optimize one body, counting it as reused or rewritten."""
    new = _optimized_body(sub, passes, window)
    if _obs.ENABLED:
        _obs.add("optimize.bodies.reused" if new is sub
                 else "optimize.bodies.rewritten")
    return new


class StreamOptimizer(StreamConsumer):
    """Push a gate stream through the peephole window, gate by gate.

    Wrap any downstream :class:`~repro.core.stream.StreamConsumer`::

        summary = StreamingSummary()
        replay_bcircuit(bc, StreamOptimizer((), summary))

    The main stream gets a single bounded-lookahead pass (O(window)
    memory); subroutine bodies, which are materialized by construction,
    are optimized to a fixpoint exactly like the materialized entry
    point, so streamed and materialized optimization agree on the
    namespace.
    """

    def __init__(self, passes: tuple[PeepholePass, ...] | None,
                 downstream: StreamConsumer, *,
                 window: int = DEFAULT_WINDOW):
        self.passes = resolve_passes(tuple(passes or ()))
        # Bodies may be invoked under controls: global-phase-only
        # elisions are disabled for them (same rule as the materialized
        # optimize_bcircuit).
        self.body_passes = body_safe_passes(self.passes)
        self.downstream = downstream
        self.window = window

    def begin(self, inputs, namespace) -> None:
        """Open the window; hand the downstream the live output namespace."""
        self.out_ns: dict[str, Subroutine] = {}
        # Not a bound method: the stage stays out of a reference cycle.
        passes, window = self.body_passes, self.window
        self._bodies = RewrittenBodies(
            namespace, lambda sub: _counted_body(sub, passes, window),
            self.out_ns,
        )
        self.downstream.begin(inputs, self.out_ns)
        self._optimizer = PeepholeOptimizer(
            self.passes, window=self.window, sink=self.downstream.gate
        )

    def gate(self, gate: Gate) -> None:
        """Feed one streamed gate through the window (bodies on demand)."""
        if isinstance(gate, BoxCall):
            self._bodies[gate.name]
        self._optimizer.feed(gate)

    def finish(self, end):
        """Flush the window and finish downstream with the new namespace."""
        self._optimizer.flush()
        # Every source body, called or not, in the source's order: what
        # optimize_bcircuit gives.
        self._bodies.fill()
        return self.downstream.finish(
            dataclasses.replace(end, namespace=self.out_ns)
        )


__all__ = ["StreamOptimizer"]
