"""Wires: the run-time identities of qubits and classical bits.

The paper distinguishes three basic types (Section 4.3.2):

* ``Bool``  -- a parameter, known at circuit *generation* time.  In this
  reproduction a ``Bool`` is just a Python ``bool``.
* ``Bit``   -- a classical wire in a circuit, known at *execution* time.
* ``Qubit`` -- a quantum wire in a circuit.

``Qubit`` and ``Bit`` objects are handles onto integer wire ids allocated
by a :class:`~repro.core.builder.Circ` builder.  They are hashable and
compare by identity of the underlying wire id, so they can be stored in
sets and dicts (Quipper similarly treats wires as abstract identifiers).
"""

from __future__ import annotations

QUANTUM = "Q"
CLASSICAL = "C"


class Wire:
    """Base class for circuit wires.  Not instantiated directly."""

    __slots__ = ("wire_id",)

    #: Either :data:`QUANTUM` or :data:`CLASSICAL`; set by subclasses.
    wire_type = ""

    def __init__(self, wire_id: int):
        self.wire_id = wire_id

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.wire_id})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Wire)
            and self.wire_type == other.wire_type
            and self.wire_id == other.wire_id
        )

    def __hash__(self) -> int:
        return hash((self.wire_type, self.wire_id))


class Qubit(Wire):
    """A quantum wire in a circuit (an *input* in the paper's terminology)."""

    __slots__ = ()
    wire_type = QUANTUM


class Bit(Wire):
    """A classical wire in a circuit (e.g. a measurement result)."""

    __slots__ = ()
    wire_type = CLASSICAL
