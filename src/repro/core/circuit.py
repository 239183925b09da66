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
from typing import Callable

from .errors import (BoxError, CloningError, DeadWireError, QuipperError,
                     WireTypeError)
from .gates import BoxCall, Gate, Init, NamedGate, Term
from .wires import CLASSICAL, QUANTUM


def track_gate(live: dict[int, str], gate: Gate,
               widths: dict[str, int]) -> int:
    """Validate *gate* against the live-wire map *live* and apply it.

    The one liveness rule of :meth:`Circuit.check`, the builder, the
    pipeline stages and the hierarchy summary.  Returns the width
    reached, a box call's transient width included: *widths* maps a
    subroutine name to its body width, usually the walk's
    :class:`BodyWidths` memo.  Three gates are read in place: a named
    gate whose wires are live, typed right and distinct changes nothing
    (its outputs are its inputs), an ``Init`` of a dead wire makes it a
    live qubit, and a ``Term`` of a live qubit kills it.  Anything else,
    anomalies included, goes through its wire lists in
    :func:`_track_wires`, which raises the errors.
    """
    cls = gate.__class__
    if cls is NamedGate:
        if _in_place(live, gate):
            return len(live)
    elif cls is Init:
        if gate.wire not in live:
            live[gate.wire] = QUANTUM
            return len(live)
    elif cls is Term:
        if live.get(gate.wire) == QUANTUM:
            del live[gate.wire]
            return len(live)
    return _track_wires(live, gate, widths)


def _track_wires(live: dict[int, str], gate: Gate,
                 widths: dict[str, int]) -> int:
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
        width = len(live) - len(gate.in_wires) + widths[gate.name]
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
        if live.get(wire) != QUANTUM:
            return False
    if len(targets) > 1 and len(set(targets)) < len(targets):
        return False
    controls = gate.controls
    for wire, _, wtype in controls:
        if live.get(wire) != wtype or wire in targets:
            return False
    if len(controls) > 1 and len({c[0] for c in controls}) < len(controls):
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


class SubroutineMemo(dict):
    """One fact per subroutine of *namespace*, computed on first lookup.

    ``memo[name]`` is ``fact(namespace[name])``.  A missing name has its
    callees filled first, in :func:`callees_first` order, so a fact that
    reads its callees' entries finds them all and never recurses, however
    deep the chain of boxes.  Raises :class:`~repro.core.errors.BoxError`
    on an undefined or recursive subroutine.  A fact that reads this memo
    is a method of a subclass, which is handed the memo as ``self``: a
    closure over the memo, or a bound method of it, stored as its fact
    would keep it in a reference cycle.

    A memo belongs to the one walk that asks -- a check, a build, a
    transform, a stream consumer -- and is dropped with it; nothing is
    cached on a :class:`Subroutine`, which hierarchies share with their
    transformed and optimized copies.
    """

    def __init__(self, namespace: dict[str, "Subroutine"],
                 fact: Callable[["Subroutine"], object] | None = None):
        super().__init__()
        self.namespace = namespace
        if fact is not None:
            self.fact = fact

    def __missing__(self, name: str):
        namespace = self.namespace
        sub = namespace.get(name)
        if sub is None:
            raise BoxError(f"undefined subroutine {name!r}")
        for callee in callees_first(sub.circuit, namespace, self.__contains__):
            self[callee] = self.fact(namespace[callee])
        value = self[name] = self.fact(sub)
        return value


class RewrittenBodies(SubroutineMemo):
    """Each subroutine of *namespace* rewritten into the namespace *into*.

    ``bodies[name]`` is ``rewrite(namespace[name])``, computed on first
    lookup with its callees first, and also stored in *into*, so a
    rule's builder writing into *into* finds there every callee of the
    body it rewrites.  :meth:`fill` rewrites every body no lookup has
    reached and leaves *into* in the source's order.
    """

    def __init__(self, namespace: dict[str, "Subroutine"],
                 rewrite: Callable[["Subroutine"], "Subroutine"],
                 into: dict[str, "Subroutine"]):
        super().__init__(namespace)
        self.rewrite = rewrite
        self.into = into

    def fact(self, sub: "Subroutine") -> "Subroutine":
        new = self.into[sub.name] = self.rewrite(sub)
        return new

    def fill(self) -> None:
        """Rewrite every body, called or not; order *into* as the source."""
        for name in self.namespace:
            self[name]
        for name in self.namespace:
            self.into[name] = self.into.pop(name)


def live_inputs(inputs: tuple[tuple[int, str], ...]) -> dict[int, str]:
    """The live-wire map at the start of a circuit with *inputs*."""
    live = dict(inputs)
    if len(live) != len(inputs):
        raise CloningError("duplicate wire in circuit inputs")
    return live


def check_outputs(outputs: tuple[tuple[int, str], ...],
                  live: dict[int, str]) -> None:
    """Raise unless *outputs* are exactly the wires *live* at the end."""
    if dict(outputs) != live or len(outputs) != len(live):
        raise QuipperError(
            f"circuit outputs {sorted(dict(outputs))} do not match "
            f"live wires {sorted(live)} at end of circuit"
        )


class BodyWidths(SubroutineMemo):
    """A width memo over *namespace* for :func:`track_gate`.

    ``widths[name]`` validates the body of subroutine *name* and gives
    its width, as :meth:`Circuit.check` would.
    """

    def fact(self, sub: "Subroutine") -> int:
        return sub.circuit._check(self)


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
        return self._check(BodyWidths(namespace or {}))

    def _check(self, widths: dict[str, int]) -> int:
        """:meth:`check`, reading box-call widths from *widths*."""
        live = live_inputs(self.inputs)
        peak = len(live)
        for gate in self.gates:
            width = track_gate(live, gate, widths)
            if width > peak:
                peak = width
        check_outputs(self.outputs, live)
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
    #: The builder's shape signature of the arguments the body was traced
    #: on, which tells a re-entered ``box`` name apart by shape.
    signature: str | None = field(default=None, compare=False, repr=False)

    def width(self, namespace: dict[str, "Subroutine"]) -> int:
        """Width of the subroutine body: its :meth:`Circuit.check`."""
        return self.circuit.check(namespace)


@dataclass
class BCircuit:
    """A main circuit plus the namespace of subroutines it may invoke."""

    circuit: Circuit
    namespace: dict[str, Subroutine] = field(default_factory=dict)

    def check(self) -> int:
        """Validate the whole hierarchy; return the main circuit's width.

        Every body is validated, called or not, each once.
        """
        widths = BodyWidths(self.namespace)
        for name in self.namespace:
            widths[name]
        return self.circuit._check(widths)

    def memo(self) -> dict:
        """Facts kept on this hierarchy while it is unchanged: the compiled
        stream of :func:`~repro.transform.inline.compile_flat` and the
        summaries of :func:`~repro.transform.summary.summarize`.  Each
        call compares :func:`_bc_signature` with the facts' and drops them
        all on any difference; equal hierarchies keep distinct memos."""
        signature = _bc_signature(self)
        held = self.__dict__.get("_memo")
        if held is None or held[0] != signature:
            held = self._memo = (signature, {})
        return held[1]

    def subroutine_names(self) -> list[str]:
        return sorted(self.namespace)

    def __len__(self) -> int:
        """Number of gates stored (NOT the inlined gate count)."""
        return len(self.circuit.gates) + sum(
            len(s.circuit.gates) for s in self.namespace.values()
        )


def _bc_signature(bc: BCircuit) -> tuple:
    """Every circuit's endpoints and gates, held by reference.

    Gates are frozen and endpoints are tuples, so any edit -- a gate
    replaced, added or removed, outputs reassigned, a body swapped, even
    count-preservingly -- fails ``==``, while an unedited hierarchy
    compares by identity, a pointer sweep.
    """
    circuits = [(None, bc.circuit)]
    circuits += [(name, sub.circuit) for name, sub in bc.namespace.items()]
    return tuple((name, tuple(c.inputs), tuple(c.gates), tuple(c.outputs))
                 for name, c in circuits)
