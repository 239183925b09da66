"""Circuits, boxed subroutines, and hierarchical circuit containers.

A :class:`Circuit` is a straight-line sequence of gates with typed input and
output wires.  A :class:`BCircuit` pairs a main circuit with a *namespace* of
named :class:`Subroutine` definitions -- the paper's hierarchical "boxed
subcircuits" (Section 4.4.4).  A subroutine is generated once and may be
invoked many times (possibly inverted, controlled, or repeated), which is
what lets the library represent and gate-count circuits with trillions of
gates without materializing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (BoxError, CloningError, DeadWireError, QuipperError,
                     WireTypeError)
from .gates import BoxCall, Gate, NamedGate
from .wires import CLASSICAL, QUANTUM


def track_gate(live: dict[int, str], gate: Gate,
               namespace: dict[str, "Subroutine"]) -> int:
    """Validate *gate* against the live-wire map *live* and apply it.

    The one liveness rule of :meth:`Circuit.check`, the builder and the
    pipeline stages.  Returns the width reached, a box call's transient
    width included.  A named gate whose wires are live, typed right and
    distinct changes nothing (its outputs are its inputs), so it is read
    in place; anything else, anomalies included, goes through its wire
    lists in :func:`_track_wires`, which raises the errors.
    """
    if gate.__class__ is NamedGate and _in_place(live, gate):
        return len(live)
    return _track_wires(live, gate, namespace)


def _track_wires(live: dict[int, str], gate: Gate,
                 namespace: dict[str, "Subroutine"]) -> int:
    """:func:`track_gate` for any gate, through its wire lists."""
    ins = gate.wires_in()
    seen: set[int] = set()
    for wire, wtype in ins:
        if wire in seen and wtype == QUANTUM:
            raise CloningError(f"wire {wire} used twice in {gate}")
        seen.add(wire)
        found = live.get(wire)
        if found is None:
            raise DeadWireError(f"gate {gate} uses dead wire {wire}")
        if found != wtype:
            raise WireTypeError(
                f"gate {gate} expects {wtype} on wire {wire}, found {found}"
            )
    outs = gate.wires_out()
    out_ids = [w for w, _ in outs]
    if len(set(out_ids)) != len(outs):
        for wire, wtype in outs:
            # A bit read n times comes out of an in-place gate n times.
            if out_ids.count(wire) > 1 and (
                wtype != CLASSICAL
                or ins.count((wire, CLASSICAL)) < out_ids.count(wire)
            ):
                raise CloningError(f"duplicate output wire {wire} in {gate}")
    width = 0
    if gate.__class__ is BoxCall:
        sub = namespace.get(gate.name)
        if sub is None:
            raise BoxError(f"undefined subroutine {gate.name!r}")
        width = len(live) - len(gate.in_wires) + sub.width(namespace)
    for wire in seen.difference(out_ids):
        del live[wire]
    for wire, wtype in outs:
        if wire not in seen and wire in live:
            raise CloningError(f"gate {gate} re-creates live wire {wire}")
        live[wire] = wtype
    return max(width, len(live))


def _in_place(live: dict[int, str], gate: NamedGate) -> bool:
    """Whether each wire of *gate* is live, typed right and read once."""
    targets = gate.targets
    for wire in targets:
        if live.get(wire) != QUANTUM or targets.count(wire) > 1:
            return False
    controls = gate.controls
    for index, (wire, _, wtype) in enumerate(controls):
        if live.get(wire) != wtype or wire in targets:
            return False
        for other in controls[:index]:
            if other.wire == wire:
                return False
    return True


def callees_first(circuit: "Circuit", namespace: dict[str, "Subroutine"],
                  known) -> list[str]:
    """The subroutines *circuit* reaches, each listed after its callees.

    Names for which ``known(name)`` holds are neither listed nor entered.
    The walk keeps its own stack, so a memo filled in this order never
    recurses, however deep the chain of boxes.  Raises
    :class:`~repro.core.errors.BoxError` on an undefined or recursive
    subroutine.
    """
    order: list[str] = []
    #: name -> False while its callees are pending, True once listed.
    state: dict[str, bool] = {}
    stack: list[tuple[str | None, list[str]]] = [
        (None, _callee_names(circuit))
    ]
    while stack:
        caller, pending = stack[-1]
        if not pending:
            stack.pop()
            if caller is not None:
                state[caller] = True
                order.append(caller)
            continue
        name = pending.pop()
        if state.get(name):
            continue
        if name in state:
            raise BoxError(f"recursive subroutine {name!r}")
        sub = namespace.get(name)
        if sub is None:
            raise BoxError(f"undefined subroutine {name!r}")
        if known(name):
            continue
        state[name] = False
        stack.append((name, _callee_names(sub.circuit)))
    return order


def _callee_names(circuit: "Circuit") -> list[str]:
    return [g.name for g in circuit.gates if g.__class__ is BoxCall]


@dataclass
class Circuit:
    """A gate sequence with typed endpoints.

    ``inputs`` and ``outputs`` are tuples of ``(wire_id, wire_type)`` pairs.
    The input wires are live before the first gate; the output wires are
    exactly the wires live after the last gate.
    """

    inputs: tuple[tuple[int, str], ...] = ()
    gates: list[Gate] = field(default_factory=list)
    outputs: tuple[tuple[int, str], ...] = ()

    def __len__(self) -> int:
        return len(self.gates)

    @property
    def in_arity(self) -> int:
        return len(self.inputs)

    @property
    def out_arity(self) -> int:
        return len(self.outputs)

    def check(self, namespace: dict[str, "Subroutine"] | None = None) -> int:
        """Validate wire discipline and return the circuit width.

        Checks each gate by :func:`track_gate` (every gate reads only live
        wires of the right type, no gate uses a qubit twice) and that the
        declared outputs match the wires that are live at the end.  The
        returned width is the high-water mark of simultaneously live
        wires, counting the transient internal wires of boxed subroutine
        calls.
        """
        namespace = namespace or {}
        live: dict[int, str] = dict(self.inputs)
        if len(live) != len(self.inputs):
            raise CloningError("duplicate wire in circuit inputs")
        peak = len(live)
        for gate in self.gates:
            width = track_gate(live, gate, namespace)
            if width > peak:
                peak = width
        if dict(self.outputs) != live or len(self.outputs) != len(live):
            raise QuipperError(
                f"circuit outputs {sorted(dict(self.outputs))} do not match "
                f"live wires {sorted(live)} at end of circuit"
            )
        return peak


@dataclass
class Subroutine:
    """A named boxed subcircuit together with its interface shapes.

    ``in_shape`` / ``out_shape`` are shape descriptors (see
    :mod:`repro.core.qdata`) recording how the flat wire lists map back to
    structured quantum data at call sites.
    """

    name: str
    circuit: Circuit
    in_shape: object = None
    out_shape: object = None
    #: Memoized body width.  Excluded from equality: two subroutines with
    #: the same circuit are the same subroutine whether or not one has had
    #: its width computed.  The cache is only trustworthy for a fixed
    #: namespace; :meth:`BCircuit.check` invalidates it before validating,
    #: so a stale width cannot survive a namespace mutation.
    _width: int | None = field(default=None, compare=False, repr=False)

    def width(self, namespace: dict[str, "Subroutine"]) -> int:
        """Width of the subroutine body (memoized; see :attr:`_width`).

        Callee widths are filled first, deepest first, so a long chain
        of boxes never recurses through :meth:`Circuit.check`.
        """
        if self._width is None:
            for name in callees_first(
                self.circuit, namespace,
                lambda name: namespace[name]._width is not None,
            ):
                callee = namespace[name]
                callee._width = callee.circuit.check(namespace)
            self._width = self.circuit.check(namespace)
        return self._width

    def invalidate_width(self) -> None:
        """Drop the memoized width (call after mutating the namespace)."""
        self._width = None


@dataclass
class BCircuit:
    """A main circuit plus the namespace of subroutines it may invoke."""

    circuit: Circuit
    namespace: dict[str, Subroutine] = field(default_factory=dict)

    def check(self) -> int:
        """Validate the whole hierarchy; return the main circuit's width.

        Memoized subroutine widths are invalidated first, so a width cached
        against an earlier version of the namespace can never leak into the
        result of a later check.
        """
        for sub in self.namespace.values():
            sub.invalidate_width()
        for sub in self.namespace.values():
            sub.width(self.namespace)
        return self.circuit.check(self.namespace)

    def subroutine_names(self) -> list[str]:
        return sorted(self.namespace)

    def __len__(self) -> int:
        """Number of gates stored (NOT the inlined gate count)."""
        return len(self.circuit.gates) + sum(
            len(s.circuit.gates) for s in self.namespace.values()
        )
