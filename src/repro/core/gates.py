"""Gate-level intermediate representation of Quipper's extended circuit model.

The paper's circuit model (Section 4.2) goes beyond unitary circuits: it has
explicit qubit initialization and *assertive termination*, measurements,
classical wires and gates, and classically-controlled quantum gates.  It is
also hierarchical (Section 4.4.4): a circuit may invoke named boxed
subcircuits, which is what lets Quipper represent circuits of trillions of
gates.

Every gate stores raw integer wire ids (see :mod:`repro.core.wires`); the
mapping from ids to live wires is maintained by the builder and checked by
:func:`repro.core.circuit.Circuit.check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .errors import IrreversibleError
from .wires import CLASSICAL, QUANTUM


class Control(NamedTuple):
    """A control on a gate.

    ``positive`` selects between a filled dot (control on |1>) and an empty
    dot (control on |0>).  ``wire_type`` is :data:`~repro.core.wires.QUANTUM`
    or :data:`~repro.core.wires.CLASSICAL`; the latter gives the paper's
    classically-controlled quantum gates.
    """

    wire: int
    positive: bool = True
    wire_type: str = QUANTUM


@dataclass(frozen=True, slots=True)
class Gate:
    """Abstract base class for gates; use the concrete subclasses."""

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        """Wires (id, type) that must be live before this gate."""
        raise NotImplementedError

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        """Wires (id, type) that are live after this gate."""
        raise NotImplementedError

    def inverse(self) -> "Gate":
        """The inverse gate; raises IrreversibleError if not reversible."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Named unitary gates
# ---------------------------------------------------------------------------

#: Metadata for the built-in gate vocabulary: name -> (arity, self_inverse).
#: Parametrised gates (``rot`` True) invert by negating their parameter.
#: ``diagonal`` marks gates whose matrix is diagonal in the computational
#: basis (they commute with each other and with any control on the same
#: wire -- the commutation facts the peephole optimizer relies on).
#: ``period`` / ``phase_period`` give, for additive rotation gates, the
#: exact parameter period of the matrix and the (smaller) period up to
#: global phase; e.g. ``Rz(t + 2pi) = -Rz(t)`` so Rz has period 4pi and
#: phase period 2pi.  Unknown names are allowed (user-defined named
#: gates, treated as opaque).
GATE_INFO: dict[str, dict] = {
    "X": {"arity": 1, "self_inverse": True},
    "not": {"arity": 1, "self_inverse": True},
    "Y": {"arity": 1, "self_inverse": True},
    "Z": {"arity": 1, "self_inverse": True, "diagonal": True},
    "H": {"arity": 1, "self_inverse": True},
    "S": {"arity": 1, "self_inverse": False, "diagonal": True},
    "T": {"arity": 1, "self_inverse": False, "diagonal": True},
    "V": {"arity": 1, "self_inverse": False},  # sqrt of X
    "E": {"arity": 1, "self_inverse": False},
    "omega": {"arity": 1, "self_inverse": False, "diagonal": True},
    "swap": {"arity": 2, "self_inverse": True},
    "W": {"arity": 2, "self_inverse": True},  # BWT basis-change gate
    "iX": {"arity": 1, "self_inverse": False},
    # Parametrised gates: parameter is an angle/time; inverse negates it.
    "exp(-i%Z)": {"arity": 1, "self_inverse": False, "rot": True,
                  "diagonal": True,
                  "period": 2 * math.pi, "phase_period": math.pi},
    "exp(-i%ZZ)": {"arity": 2, "self_inverse": False, "rot": True,
                   "diagonal": True,
                   "period": 2 * math.pi, "phase_period": math.pi},
    "R(2pi/%)": {"arity": 1, "self_inverse": False, "rot": False,
                 "diagonal": True},
    "rGate": {"arity": 1, "self_inverse": False, "rot": False,
              "diagonal": True},
    "Rx": {"arity": 1, "self_inverse": False, "rot": True,
           "period": 4 * math.pi, "phase_period": 2 * math.pi},
    "Ry": {"arity": 1, "self_inverse": False, "rot": True,
           "period": 4 * math.pi, "phase_period": 2 * math.pi},
    "Rz": {"arity": 1, "self_inverse": False, "rot": True,
           "diagonal": True,
           "period": 4 * math.pi, "phase_period": 2 * math.pi},
    "phase": {"arity": 0, "self_inverse": False, "rot": True,
              "diagonal": True,
              "period": 2 * math.pi, "phase_period": 2 * math.pi},
}


def gate_arity(name: str) -> int | None:
    """Arity of a built-in gate name, or None if unknown/user-defined."""
    info = GATE_INFO.get(name)
    return None if info is None else info["arity"]


def is_diagonal_name(name: str) -> bool:
    """Whether the named gate's matrix is diagonal (conservative: False
    for unknown/user-defined names)."""
    info = GATE_INFO.get(name)
    return bool(info and info.get("diagonal"))


def rotation_periods(name: str) -> tuple[float, float] | None:
    """``(period, phase_period)`` of an additive rotation gate, or None.

    ``period`` is the exact matrix period of the parameter;
    ``phase_period`` the period up to an unobservable global phase (only
    usable for *uncontrolled* gates, where global phase cannot become
    relative).
    """
    info = GATE_INFO.get(name)
    if not info or not info.get("rot") or "period" not in info:
        return None
    return (info["period"], info["phase_period"])


def acts_diagonally_on(gate: Gate, wire: int) -> bool:
    """Whether *gate* acts diagonally (in the computational basis) on *wire*.

    A control is always diagonal on its wire (it is a basis projector);
    a target wire is diagonal exactly when the gate's matrix is.  Two
    gates that are each diagonal on every wire they share commute -- the
    fact the peephole optimizer's commutation scan is built on.  The
    answer is conservative: ``False`` whenever diagonality is unknown.
    """
    for ctl in control_wires(gate):
        if ctl.wire == wire:
            return True
    if isinstance(gate, NamedGate):
        return wire in gate.targets and is_diagonal_name(gate.name)
    if isinstance(gate, CGate):
        # A classical gate reads its inputs (diagonal) but creates or
        # consumes its target wire.
        return wire in gate.inputs and wire != gate.target
    return False


@dataclass(frozen=True, slots=True)
class NamedGate(Gate):
    """A named (pseudo-)unitary gate applied to quantum target wires.

    ``inverted`` marks the adjoint of a non-self-inverse gate (printed with
    a ``*`` suffix, as in the paper's figures).  ``param`` carries the
    rotation angle / time step for parametrised gates such as ``exp(-i%Z)``.
    """

    name: str
    targets: tuple[int, ...]
    controls: tuple[Control, ...] = ()
    inverted: bool = False
    param: float | None = None

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return tuple((t, QUANTUM) for t in self.targets) + tuple(
            (c.wire, c.wire_type) for c in self.controls
        )

    wires_out = wires_in

    def inverse(self) -> "NamedGate":
        info = GATE_INFO.get(self.name)
        if info is not None and info["self_inverse"]:
            return self
        if info is not None and info.get("rot") and self.param is not None:
            return replace(self, param=-self.param)
        return replace(self, inverted=not self.inverted)

    def display_name(self) -> str:
        """Name annotated with parameter and dagger, for printing/counting."""
        name = self.name
        if self.param is not None and "%" in name:
            name = name.replace("%", _fmt_param(self.param))
        elif self.param is not None:
            name = f"{name}({_fmt_param(self.param)})"
        if self.inverted:
            name += "*"
        return name

    def __repr__(self) -> str:
        parts = [f"targets={self.targets!r}"]
        if self.controls:
            parts.append(f"controls={self.controls!r}")
        return f"NamedGate[{self.display_name()!r}]({', '.join(parts)})"


def format_pi_multiple(value: float) -> str | None:
    """*value* as an exact small rational multiple of pi, or None.

    Returns strings like ``"pi"``, ``"-pi/2"``, ``"3pi/4"``, ``"2pi"``.
    Exactness is bit-exact: the string is only produced when evaluating
    ``num * math.pi / den`` (the arithmetic the Quipper-ASCII parser
    performs) reproduces *value*, so rotation parameters round-trip
    through :mod:`repro.io.ascii_parser` without drift.
    """
    if value == 0 or not math.isfinite(value):
        return None
    for den in (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64):
        num = round(value * den / math.pi)
        if num == 0 or abs(num) > 1024:
            continue
        if num * math.pi / den == value:
            # Reduce the fraction only when the reduced form evaluates
            # to the same float: 15*pi/12 differs from 5*pi/4 by one
            # ulp, and the parser must reproduce *value* bit-exactly.
            shrink = math.gcd(abs(num), den)
            if (num // shrink) * math.pi / (den // shrink) == value:
                num //= shrink
                den //= shrink
            head = {1: "pi", -1: "-pi"}.get(num, f"{num}pi")
            return head if den == 1 else f"{head}/{den}"
    return None


def _fmt_param(value: float) -> str:
    if value == int(value):
        return str(int(value))
    as_pi = format_pi_multiple(value)
    if as_pi is not None:
        # Exact multiples of pi print in units of pi: Rz(pi/2), not
        # Rz(1.5707963267948966).  The ASCII parser evaluates the same
        # expression, so the float round-trips bit-exactly.
        return as_pi
    # repr() is the shortest string that round-trips the float exactly,
    # which the Quipper-ASCII parser (repro.io) relies on.
    return repr(value)


# ---------------------------------------------------------------------------
# Initialization, termination, measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Init(Gate):
    """Allocate a fresh qubit in state |value> (the paper's ``0 |-``)."""

    wire: int
    value: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ()

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, QUANTUM),)

    def inverse(self) -> "Term":
        return Term(self.wire, self.value)


@dataclass(frozen=True, slots=True)
class Term(Gate):
    """Assertively terminate a qubit, asserting it is in state |value>.

    This is the paper's ``-| 0`` gate (Section 4.2.2).  The assertion is the
    programmer's responsibility; simulators check it and raise
    :class:`~repro.core.errors.AssertionFailedError` when violated.
    """

    wire: int
    value: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, QUANTUM),)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ()

    def inverse(self) -> "Init":
        return Init(self.wire, self.value)


@dataclass(frozen=True, slots=True)
class Discard(Gate):
    """Drop a qubit without asserting its state (yields a mixed state)."""

    wire: int

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, QUANTUM),)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ()

    def inverse(self) -> Gate:
        raise IrreversibleError("cannot reverse a Discard gate")


@dataclass(frozen=True, slots=True)
class CInit(Gate):
    """Allocate a fresh classical wire holding *value*."""

    wire: int
    value: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ()

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, CLASSICAL),)

    def inverse(self) -> "CTerm":
        return CTerm(self.wire, self.value)


@dataclass(frozen=True, slots=True)
class CTerm(Gate):
    """Assertively terminate a classical wire asserted to equal *value*."""

    wire: int
    value: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, CLASSICAL),)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ()

    def inverse(self) -> "CInit":
        return CInit(self.wire, self.value)


@dataclass(frozen=True, slots=True)
class CDiscard(Gate):
    """Drop a classical wire."""

    wire: int

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, CLASSICAL),)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ()

    def inverse(self) -> Gate:
        raise IrreversibleError("cannot reverse a CDiscard gate")


@dataclass(frozen=True, slots=True)
class Measure(Gate):
    """Measure a qubit in the computational basis, turning it into a Bit.

    The wire id is preserved; only its type changes from quantum to
    classical (this mirrors Quipper, where ``measure`` consumes a Qubit and
    produces a Bit occupying the same circuit wire).
    """

    wire: int

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, QUANTUM),)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, CLASSICAL),)

    def inverse(self) -> Gate:
        raise IrreversibleError("cannot reverse a Measure gate")


# ---------------------------------------------------------------------------
# Classical logic gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CGate(Gate):
    """A classical logic gate writing f(inputs) into a fresh classical wire.

    When ``uncompute`` is True the gate instead *consumes* the target wire,
    asserting it equals f(inputs) -- this makes CGates reversible, which is
    what allows Quipper to reverse circuits containing classical logic.
    Supported names: ``"and"``, ``"or"``, ``"xor"``, ``"not"``, ``"eq"``.
    """

    name: str
    target: int
    inputs: tuple[int, ...]
    uncompute: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        wires = tuple((w, CLASSICAL) for w in self.inputs)
        if self.uncompute:
            wires = ((self.target, CLASSICAL),) + wires
        return wires

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        wires = tuple((w, CLASSICAL) for w in self.inputs)
        if not self.uncompute:
            wires = ((self.target, CLASSICAL),) + wires
        return wires

    def inverse(self) -> "CGate":
        return replace(self, uncompute=not self.uncompute)


@dataclass(frozen=True, slots=True)
class CNot(Gate):
    """In-place classical NOT of a classical wire, possibly controlled."""

    wire: int
    controls: tuple[Control, ...] = ()

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return ((self.wire, CLASSICAL),) + tuple(
            (c.wire, c.wire_type) for c in self.controls
        )

    wires_out = wires_in

    def inverse(self) -> "CNot":
        return self


# ---------------------------------------------------------------------------
# Comments and subroutine calls
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Comment(Gate):
    """A no-op annotation, optionally labelling wires (Section 5.3.1)."""

    text: str
    labels: tuple[tuple[int, str, str], ...] = ()  # (wire, wire_type, label)
    inverted: bool = False

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return tuple((w, t) for (w, t, _) in self.labels)

    wires_out = wires_in

    def inverse(self) -> "Comment":
        return replace(self, inverted=not self.inverted)


@dataclass(frozen=True, slots=True)
class BoxCall(Gate):
    """Invocation of a boxed subcircuit (Section 4.4.4).

    ``in_wires`` bind the subroutine's typed inputs; ``out_wires`` receive
    its typed outputs.  ``repetitions`` iterates the subroutine in place
    (requires input and output shapes to agree); hierarchical gate counting
    multiplies through it, which is what makes counting circuits of
    trillions of gates tractable (Section 5.4).
    """

    name: str
    in_wires: tuple[tuple[int, str], ...]
    out_wires: tuple[tuple[int, str], ...]
    controls: tuple[Control, ...] = ()
    inverted: bool = False
    repetitions: int = 1

    def wires_in(self) -> tuple[tuple[int, str], ...]:
        return self.in_wires + tuple((c.wire, c.wire_type) for c in self.controls)

    def wires_out(self) -> tuple[tuple[int, str], ...]:
        return self.out_wires + tuple((c.wire, c.wire_type) for c in self.controls)

    def inverse(self) -> "BoxCall":
        return replace(
            self,
            in_wires=self.out_wires,
            out_wires=self.in_wires,
            inverted=not self.inverted,
        )


def control_wires(gate: Gate) -> tuple[Control, ...]:
    """The controls of a gate, or () for uncontrollable gate kinds."""
    return getattr(gate, "controls", ())


def map_gate_wires(gate: Gate, fn) -> Gate:
    """Return a copy of *gate* with every wire id replaced by ``fn(id)``.

    Used when instantiating a stored circuit into a new context (subroutine
    inlining, reversal of traced functions, transformers).
    """
    if isinstance(gate, NamedGate):
        return replace(
            gate,
            targets=tuple(fn(w) for w in gate.targets),
            controls=tuple(c._replace(wire=fn(c.wire)) for c in gate.controls),
        )
    if isinstance(gate, (Init, Term, Discard, CInit, CTerm, CDiscard, Measure)):
        return replace(gate, wire=fn(gate.wire))
    if isinstance(gate, CGate):
        return replace(
            gate, target=fn(gate.target), inputs=tuple(fn(w) for w in gate.inputs)
        )
    if isinstance(gate, CNot):
        return replace(
            gate,
            wire=fn(gate.wire),
            controls=tuple(c._replace(wire=fn(c.wire)) for c in gate.controls),
        )
    if isinstance(gate, Comment):
        return replace(
            gate, labels=tuple((fn(w), t, s) for (w, t, s) in gate.labels)
        )
    if isinstance(gate, BoxCall):
        return replace(
            gate,
            in_wires=tuple((fn(w), t) for (w, t) in gate.in_wires),
            out_wires=tuple((fn(w), t) for (w, t) in gate.out_wires),
            controls=tuple(c._replace(wire=fn(c.wire)) for c in gate.controls),
        )
    raise TypeError(f"unknown gate kind: {gate!r}")


def with_extra_controls(gate: Gate, extra: tuple[Control, ...]) -> Gate:
    """Attach additional controls to a gate, where meaningful.

    Init/Term/Comment gates are "nocontrol" in Quipper's terminology: an
    ancilla starts in |0> regardless of any enclosing control context, so
    block controls pass over them unchanged.
    """
    if not extra:
        return gate
    if isinstance(gate, (NamedGate, CNot, BoxCall)):
        existing = {c.wire for c in gate.controls}
        new = tuple(c for c in extra if c.wire not in existing)
        return replace(gate, controls=gate.controls + new)
    return gate
