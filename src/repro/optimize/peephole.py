"""The sliding-window peephole optimizer core.

The Quipper follow-up work on concrete resource estimation shows that
gate-set decomposition only pays off when paired with an *optimizer*
that shrinks the emitted gate stream.  This module is that optimizer: a
:class:`PeepholeOptimizer` holds a bounded window of recently seen
gates and, for each arriving gate, scans backwards for a rewrite
partner, looking *through* gates that provably commute out of the way
(disjoint wires, or diagonal on every shared wire -- see
:mod:`repro.optimize.passes`).  Matched groups are replaced and the
replacements re-enter matching, so chains collapse transitively:
``Rz(a); CZ; Rz(b); Rz(-a-b)`` disappears entirely.

Memory is O(window) however many gates flow through, which is what lets
the same core serve both the materialized entry points
(:func:`optimize_circuit`, :func:`optimize_bcircuit`, fixpoint-iterated)
and the streaming consumer stage
(:class:`~repro.optimize.stream.StreamOptimizer`, single pass).

Boxed subroutine bodies are optimized **once** and shared across call
sites: :func:`optimize_bcircuit` rewrites each namespace entry
independently (a ``BoxCall`` is an opaque barrier in the window), and a
body the passes leave untouched keeps its original
:class:`~repro.core.circuit.Subroutine` object, exactly like the fused
transformer pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from ..core.circuit import BCircuit, Circuit, Subroutine
from ..core.gates import Comment, Gate
from ..obs import core as _obs
from .passes import (
    PeepholePass,
    body_safe_passes,
    gate_footprint,
    resolve_passes,
)

#: Default sliding-window capacity (gates retained for matching).
DEFAULT_WINDOW = 64

#: Fixpoint-iteration cap for the materialized entry points.
MAX_ROUNDS = 16


class PeepholeOptimizer:
    """An incremental sliding-window optimizer over a gate stream.

    Feed gates in circuit order with :meth:`feed`; gates leave the
    window (oldest first, original relative order preserved up to
    licensed commutations) through *sink* once they can no longer
    participate in a rewrite, and :meth:`flush` drains the remainder.

    ::

        out: list[Gate] = []
        opt = PeepholeOptimizer(sink=out.append)
        for gate in gates:
            opt.feed(gate)
        opt.flush()            # `out` is now the optimized sequence
    """

    def __init__(self, passes: tuple[PeepholePass, ...] | None = None, *,
                 window: int = DEFAULT_WINDOW,
                 sink: Callable[[Gate], None] | None = None):
        self.passes = resolve_passes(tuple(passes or ()))
        self.window_size = max(2, int(window))
        self.sink = sink if sink is not None else (lambda gate: None)
        self._window: list[Gate] = []
        self._footprints: list[frozenset[int]] = []
        self._single = [p for p in self.passes if 1 in p.sizes]
        self._pairs = [p for p in self.passes if 2 in p.sizes]
        self._triples = [p for p in self.passes if 3 in p.sizes]
        self._commuters = [
            p for p in self.passes
            if type(p).commutes is not PeepholePass.commutes
        ]

    # -- feeding -------------------------------------------------------------

    def feed(self, gate: Gate) -> None:
        """Offer one gate, in circuit order, to the window."""
        self._process(gate, depth=0)
        overflow = len(self._window) - self.window_size
        if overflow > 0:
            for flushed in self._window[:overflow]:
                self.sink(flushed)
            del self._window[:overflow]
            del self._footprints[:overflow]

    def flush(self) -> None:
        """Drain every windowed gate to the sink (end of stream)."""
        for gate in self._window:
            self.sink(gate)
        self._window.clear()
        self._footprints.clear()

    # -- matching ------------------------------------------------------------

    def _append(self, gate: Gate, footprint: frozenset[int]) -> None:
        self._window.append(gate)
        self._footprints.append(footprint)

    def _commutes(self, earlier: Gate, later: Gate) -> bool:
        return any(p.commutes(earlier, later) for p in self._commuters)

    def _process(self, gate: Gate, depth: int) -> None:
        """Match *gate* against the window; append if nothing rewrites."""
        footprint = gate_footprint(gate)
        if depth > 64:  # safety valve against a non-reducing pass chain
            self._append(gate, footprint)
            return
        for single in self._single:
            replaced = single.rewrite((gate,))
            if replaced is not None:
                if _obs.ENABLED:
                    _obs.add(f"optimize.pass.{single.name}.rewrites")
                for emitted in replaced:
                    self._process(emitted, depth + 1)
                return
        if isinstance(gate, Comment) or not footprint:
            # Comments annotate, they do not act; footprint-free gates
            # have nothing to match against.
            self._append(gate, footprint)
            return
        window, footprints = self._window, self._footprints
        skipped_commuting = False
        index = len(window) - 1
        while index >= 0:
            shared = footprints[index] & footprint
            if not shared:
                index -= 1
                continue
            partner = window[index]
            replaced = self._try_group(
                index, (partner, gate), skipped_commuting
            )
            if replaced is None and self._triples:
                replaced = self._try_triple(
                    index, partner, gate, skipped_commuting
                )
            if replaced is not None:
                for emitted in replaced:
                    self._process(emitted, depth + 1)
                return
            if self._commutes(partner, gate):
                skipped_commuting = True
                index -= 1
                continue
            break  # blocker: nothing before it can be reached
        self._append(gate, footprint)

    def _try_group(self, index: int, group: tuple[Gate, ...],
                   skipped_commuting: bool) -> list[Gate] | None:
        """Offer a pair (window[index], incoming) to the pair passes."""
        for peephole in self._pairs:
            if peephole.strict and skipped_commuting:
                continue
            replaced = peephole.rewrite(group)
            if replaced is not None:
                if _obs.ENABLED:
                    _obs.add(f"optimize.pass.{peephole.name}.rewrites")
                del self._window[index]
                del self._footprints[index]
                return replaced
        return None

    def _try_triple(self, index: int, partner: Gate, gate: Gate,
                    skipped_commuting: bool) -> list[Gate] | None:
        """Offer (window[j], window[index], incoming) to triple passes.

        The third-back gate ``window[j]`` must reach ``window[index]``
        across fully disjoint gates only (no commute-skips): triple
        patterns are conjugations, whose outer gates are never diagonal.
        """
        if skipped_commuting:
            return None
        target = self._footprints[index]
        for j in range(index - 1, -1, -1):
            if not (self._footprints[j] & target):
                continue
            for peephole in self._triples:
                replaced = peephole.rewrite((self._window[j], partner, gate))
                if replaced is not None:
                    if _obs.ENABLED:
                        _obs.add(f"optimize.pass.{peephole.name}.rewrites")
                    del self._window[index]
                    del self._footprints[index]
                    del self._window[j]
                    del self._footprints[j]
                    return replaced
            return None
        return None


# ---------------------------------------------------------------------------
# Materialized entry points
# ---------------------------------------------------------------------------


def optimize_gates(gates: list[Gate],
                   passes: tuple[PeepholePass, ...] | None = None, *,
                   window: int = DEFAULT_WINDOW) -> list[Gate]:
    """One optimizer pass over a gate list; returns the rewritten list."""
    out: list[Gate] = []
    optimizer = PeepholeOptimizer(passes, window=window, sink=out.append)
    for gate in gates:
        optimizer.feed(gate)
    optimizer.flush()
    return out


def optimize_gates_fixpoint(gates: list[Gate],
                            passes: tuple[PeepholePass, ...] | None = None,
                            *, window: int = DEFAULT_WINDOW) -> list[Gate]:
    """Iterate :func:`optimize_gates` until the gate list stabilizes.

    The pass chain is reducing-or-stationary, so iteration converges;
    a safety cap (:data:`MAX_ROUNDS`) guards against a pathological
    user-supplied pass.  The fixpoint makes the materialized optimizer
    idempotent: ``optimize(optimize(c)) == optimize(c)``.
    """
    current = list(gates)
    for round_no in range(MAX_ROUNDS):
        rewritten = optimize_gates(current, passes, window=window)
        if rewritten == current:
            if _obs.ENABLED:
                _obs.add("optimize.rounds", round_no + 1)
                _obs.add("optimize.gates.removed",
                         len(gates) - len(rewritten))
            return rewritten
        current = rewritten
    if _obs.ENABLED:
        _obs.add("optimize.rounds", MAX_ROUNDS)
        _obs.add("optimize.gates.removed", len(gates) - len(current))
    return current


def optimize_circuit(circuit: Circuit,
                     passes: tuple[PeepholePass, ...] | None = None, *,
                     window: int = DEFAULT_WINDOW) -> Circuit:
    """Optimize one flat circuit body (interface wires unchanged)."""
    return Circuit(
        inputs=circuit.inputs,
        gates=optimize_gates_fixpoint(circuit.gates, passes, window=window),
        outputs=circuit.outputs,
    )


def _optimized_body(sub: Subroutine, passes: tuple[PeepholePass, ...],
                    window: int) -> Subroutine:
    """*sub* with its body optimized: itself if the passes change nothing."""
    circuit = optimize_circuit(sub.circuit, passes, window=window)
    if circuit.gates == sub.circuit.gates:
        return sub
    return dataclasses.replace(sub, circuit=circuit)


def optimize_bcircuit(bc: BCircuit,
                      passes: tuple[PeepholePass, ...] | None = None, *,
                      window: int = DEFAULT_WINDOW) -> BCircuit:
    """Peephole-optimize a whole hierarchy, body by body.

    Every subroutine body is optimized exactly once and shared across
    its call sites.  A body the passes leave untouched keeps its
    original :class:`~repro.core.circuit.Subroutine` object.

    Bodies are optimized with the *body-safe* form of the pass chain
    (:func:`~repro.optimize.passes.body_safe_passes`): a ``BoxCall`` may
    be invoked under controls, which turn a global phase into an
    observable relative phase, so global-phase-only elisions are
    disabled inside bodies.
    """
    passes = resolve_passes(tuple(passes or ()))
    body_passes = body_safe_passes(passes)
    namespace = {
        name: _optimized_body(sub, body_passes, window)
        for name, sub in bc.namespace.items()
    }
    return BCircuit(optimize_circuit(bc.circuit, passes, window=window),
                    namespace)


__all__ = [
    "DEFAULT_WINDOW",
    "MAX_ROUNDS",
    "PeepholeOptimizer",
    "optimize_bcircuit",
    "optimize_circuit",
    "optimize_gates",
    "optimize_gates_fixpoint",
]
