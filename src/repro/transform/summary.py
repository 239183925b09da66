"""One walk per body: the gate count, width and depth of a hierarchy.

The paper counts trillion-gate circuits by costing each boxed subcircuit
once (Section 5.4), and the concrete resource-estimation follow-up costs
huge circuits from one summary per box.  :class:`StreamingSummary` is that
summary: in one loop over a circuit it validates each gate by
:func:`~repro.core.circuit.track_gate` (whose high-water mark is the
width), adds the gate's count key (:func:`~repro.transform.count.classify`)
and advances the critical-path frontier (the model is documented in
:mod:`repro.transform.depth`).  Bodies are summarized callees first
through one :class:`~repro.core.circuit.SubroutineMemo`, so a call reads
its body's summary and never recurses.  T-depth is a walk of its own
(``t_only``): a second frontier in every walk would slow every count.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ..core.circuit import (BCircuit, Subroutine, SubroutineMemo,
                            _in_place, _track_wires, check_outputs,
                            live_inputs, track_gate)
from ..core.gates import BoxCall, Comment, Gate, Init, NamedGate, Term
from ..core.stream import StreamConsumer, replay_bcircuit
from .count import _UNCONTROLLED_PREFIXES, _invert_key, classify


class Summary(NamedTuple):
    """A circuit's fully-inlined gate count (keys in first-occurrence
    order), its width (a call's transient body wires included) and its
    depth (the T-depth, for a ``t_only`` walk)."""

    counts: Counter
    width: int
    depth: int


class StreamingSummary(StreamConsumer):
    """Count, width and depth of a gate stream, in one pass.

    ``finish`` returns the main circuit's :class:`Summary`, and ``bodies``
    holds every subroutine's; memory is O(top-level wire ids + bodies),
    however many logical gates the stream stands for.  Every body is
    summarized, called or not; those a replay's namespace holds at
    ``begin`` before the main circuit, so a bad body raises as
    :meth:`~repro.core.circuit.BCircuit.check` raises.
    """

    def __init__(self, t_only: bool = False):
        self.t_only = t_only

    def begin(self, inputs, namespace) -> None:
        self.bodies = SubroutineMemo(namespace, self._body)
        #: Each summarized body's width, as :func:`track_gate` reads it.
        self._widths: dict[str, int] = {}
        #: A named gate's shape -> its count key, for every body.
        self._keys: dict[tuple, tuple] = {}
        self._open(inputs)
        for name in namespace:
            self.bodies[name]

    def _open(self, inputs) -> None:
        self._live = live_inputs(inputs)
        self._peak = len(self._live)
        #: The step each wire id is free from.  Dead ids stay: an id can
        #: come back (``with_computed`` re-creates an ancilla under its
        #: old id), and its next life starts after the last one ends.
        self._frontier = dict.fromkeys(self._live, 0)
        self._depth = 0
        self._counts: Counter = Counter()

    def gate(self, gate: Gate) -> None:
        cls = gate.__class__
        if cls is NamedGate:
            # track_gate's named-gate branch, inlined.  Its outputs are
            # its inputs, so the width stays; its count key depends on
            # its name, its dagger and its controls' signs alone.
            live = self._live
            if not _in_place(live, gate):
                _track_wires(live, gate, self._widths)
            controls = gate.controls
            if not controls:
                shape = gate.name, gate.inverted
                wires = gate.targets
            elif len(controls) == 1:
                shape = gate.name, gate.inverted, controls[0][1]
                wires = (*gate.targets, controls[0][0])
            else:
                shape = (gate.name, gate.inverted, *[c[1] for c in controls])
                wires = (*gate.targets, *[c[0] for c in controls])
            key = self._keys.get(shape)
            if key is None:
                key = self._keys[shape] = classify(gate)
            self._counts[key] += 1
            steps = (gate.name == "T") if self.t_only else 1
        else:
            if cls is BoxCall:  # summarized first: track_gate reads its width
                body = self.bodies[gate.name]
            width = track_gate(self._live, gate, self._widths)
            if width > self._peak:
                self._peak = width
            if cls is Comment:
                return
            steps = 0 if self.t_only else 1
            if cls is BoxCall:
                self._add_call(gate, body.counts)
                # Its body's depth per repetition, and for full depth at
                # least one step.
                steps = body.depth * gate.repetitions or steps
            else:
                self._counts[classify(gate)] += 1
            if cls is Init or cls is Term:
                wires = (gate.wire,)
            else:
                wires = [w for w, _ in gate.wires_in() + gate.wires_out()]
        # The one- and two-wire gates, most of any lowered circuit,
        # advance the frontier without building a list.
        frontier = self._frontier
        if len(wires) == 1:
            wire = wires[0]
            finish = frontier[wire] = frontier.get(wire, 0) + steps
        elif len(wires) == 2:
            first, second = wires
            finish = frontier.get(first, 0)
            other = frontier.get(second, 0)
            if other > finish:
                finish = other
            finish = frontier[first] = frontier[second] = finish + steps
        else:
            finish = max([frontier.get(w, 0) for w in wires], default=0) + steps
            for wire in wires:
                frontier[wire] = finish
        if finish > self._depth:
            self._depth = finish

    def _add_call(self, gate: BoxCall, body: Counter) -> None:
        """Add a call's body count: inversion swaps keys, repetitions
        multiply, and the call's controls reach every key that inlining
        would control (named gates and classical NOTs)."""
        counts, reps = self._counts, gate.repetitions
        pos = sum(1 for c in gate.controls if c.positive)
        neg = len(gate.controls) - pos
        for key, value in body.items():
            if gate.inverted:
                key = _invert_key(key)
            if gate.controls and not key[0].startswith(_UNCONTROLLED_PREFIXES):
                key = (key[0], key[1] + pos, key[2] + neg)
            counts[key] += value * reps

    def _body(self, sub: Subroutine) -> Summary:
        """A body's summary: the memo fills callees first, so the body
        finds theirs there and the walk never recurses."""
        caller = self._live, self._peak, self._frontier, self._depth, self._counts
        self._open(sub.circuit.inputs)
        for gate in sub.circuit.gates:
            self.gate(gate)
        summary = self._close(sub.circuit.outputs)
        self._live, self._peak, self._frontier, self._depth, self._counts = caller
        self._widths[sub.name] = summary.width
        return summary

    def _close(self, outputs) -> Summary:
        check_outputs(outputs, self._live)
        return Summary(self._counts, self._peak, self._depth)

    def finish(self, end) -> Summary:
        self.end = end  # the stream's endpoints and namespace, for reports
        for name in end.namespace:
            self.bodies[name]
        # A plain dict: the memo's fact, a bound method, would keep the
        # walk and its wire maps alive in a reference cycle.
        self.bodies = dict(self.bodies)
        return self._close(end.outputs)


def summarize(bc: BCircuit, t_only: bool = False) -> Summary:
    """The :class:`Summary` of *bc*'s main circuit (T-depth with *t_only*).

    Kept in the hierarchy's :meth:`~repro.core.circuit.BCircuit.memo` until
    the hierarchy changes, so its count, width and depth queries walk each
    body and the main circuit once between them.  The counter is the
    memo's own: copy it before handing it out.
    """
    return _summaries(bc, t_only)[0]


def body_summaries(bc: BCircuit) -> dict[str, Summary]:
    """Every subroutine's :class:`Summary`, from the same memo."""
    return _summaries(bc, False)[1]


def _summaries(bc: BCircuit, t_only: bool) -> tuple:
    memo = bc.memo()
    held = memo.get(("summary", t_only))
    if held is None:
        walk = StreamingSummary(t_only)
        held = memo["summary", t_only] = (replay_bcircuit(bc, walk),
                                          walk.bodies)
    return held


__all__ = ["StreamingSummary", "Summary", "body_summaries", "summarize"]
