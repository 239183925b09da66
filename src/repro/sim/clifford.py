"""Stabilizer (Clifford) simulation -- the paper's ``run_clifford_generic``.

Implements the Aaronson-Gottesman CHP tableau algorithm (Phys. Rev. A 70,
052328).  Circuits built from H, S, CNOT, X, Y, Z, CZ, swap, init/term and
measurement are simulated in polynomial time, which is "especially useful
in testing oracles" (Section 4.4.5) and for checking the statevector
simulator against an independent implementation.

One state, :class:`CliffordState`, serves the backend (stored and
streamed), ``run_clifford_generic`` and the equivalence checker.  It
starts with no wires and gives a wire the next tableau column when a
qubit input is loaded or the wire is first initialized, so columns are
numbered inputs first, then by first Init, and a stream of unknown
width needs no pre-scan; the tableau keeps spare |0> columns and
doubles when full, and a spare column never takes part in another
column's measurement.  Term checks the programmer's assertion without
drawing: a qubit with a random outcome fails it, as a superposition
fails it on the statevector, so a deterministic prefix draws nothing.
Ids do come back (``with_computed`` re-creates an ancilla under its old
id, a QASM import re-initializes a terminated column), so an Init on a
column that a Term, Discard or Measure released measures it and flips
it into the requested state.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import BCircuit
from ..core.errors import AssertionFailedError, SimulationError
from ..core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    CNot,
    Comment,
    CTerm,
    Discard,
    Gate,
    Init,
    Measure,
    NamedGate,
    Term,
)
from ..core.wires import QUANTUM
from .matrices import clifford_classification
from .state import _refuse_qubit_control


class Tableau:
    """A CHP stabilizer tableau over *n* qubits."""

    def __init__(self, n: int, rng: np.random.Generator | None = None):
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=bool)
        self.x[np.arange(n), np.arange(n)] = True  # destabilizers X_i
        self.z[np.arange(n, 2 * n), np.arange(n)] = True  # stabilizers Z_i
        self.rng = rng if rng is not None else np.random.default_rng()

    def copy(self) -> "Tableau":
        """An independent copy that shares the random generator."""
        clone = Tableau.__new__(Tableau)
        clone.n, clone.rng = self.n, self.rng
        clone.x, clone.z, clone.r = self.x.copy(), self.z.copy(), self.r.copy()
        return clone

    # -- Clifford gates ----------------------------------------------------

    def hadamard(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.x[:, a], self.z[:, a] = (
            self.z[:, a].copy(),
            self.x[:, a].copy(),
        )

    def s_gate(self, a: int) -> None:
        self.r ^= self.x[:, a] & self.z[:, a]
        self.z[:, a] ^= self.x[:, a]

    def s_dagger(self, a: int) -> None:
        self.s_gate(a)
        self.z_gate(a)

    def cnot(self, a: int, b: int) -> None:
        """CNOT with control a, target b."""
        self.r ^= (
            self.x[:, a] & self.z[:, b] & (self.x[:, b] ^ self.z[:, a] ^ True)
        )
        self.x[:, b] ^= self.x[:, a]
        self.z[:, a] ^= self.z[:, b]

    def x_gate(self, a: int) -> None:
        self.r ^= self.z[:, a]

    def z_gate(self, a: int) -> None:
        self.r ^= self.x[:, a]

    def y_gate(self, a: int) -> None:
        self.r ^= self.x[:, a] ^ self.z[:, a]

    def cz(self, a: int, b: int) -> None:
        self.hadamard(b)
        self.cnot(a, b)
        self.hadamard(b)

    def swap(self, a: int, b: int) -> None:
        self.cnot(a, b)
        self.cnot(b, a)
        self.cnot(a, b)

    # -- growth ------------------------------------------------------------

    def extend(self, k: int) -> None:
        """Append *k* fresh qubits in |0>, preserving the current state.

        The existing destabilizer/stabilizer rows keep their Pauli
        letters on the old columns; each new qubit contributes the
        standard |0> pair (destabilizer ``X_i``, stabilizer ``Z_i``).
        This is what lets :class:`CliffordState` simulate a circuit
        whose total wire count is unknown until it ends.
        """
        n, m = self.n, self.n + k
        x = np.zeros((2 * m, m), dtype=bool)
        z = np.zeros((2 * m, m), dtype=bool)
        r = np.zeros(2 * m, dtype=bool)
        x[:n, :n] = self.x[:n]
        z[:n, :n] = self.z[:n]
        r[:n] = self.r[:n]
        x[m:m + n, :n] = self.x[n:]
        z[m:m + n, :n] = self.z[n:]
        r[m:m + n] = self.r[n:]
        x[np.arange(n, m), np.arange(n, m)] = True  # destabilizers X_i
        z[np.arange(m + n, 2 * m), np.arange(n, m)] = True  # stabilizers Z_i
        self.x, self.z, self.r, self.n = x, z, r, m

    # -- measurement -------------------------------------------------------

    @staticmethod
    def _g(x1, z1, x2, z2):
        """The phase exponent of multiplying Pauli rows ``(x1, z1)`` into
        ``(x2, z2)``, summed over the last axis.

        Each column gives +1 or -1 when both letters are distinct
        non-identities (+1 when the pair is cyclic: ``XY``, ``YZ``,
        ``ZX``), else 0, so the sum is a count of boolean columns; rows
        broadcast, so one call sums many rows against one.
        """
        x_only, z_only, y = x1 & ~z1, z1 & ~x1, x1 & z1
        x2_only, z2_only, y2 = x2 & ~z2, z2 & ~x2, x2 & z2
        plus = (x_only & y2) | (y & z2_only) | (z_only & x2_only)
        minus = (x_only & z2_only) | (y & x2_only) | (z_only & y2)
        return (np.count_nonzero(plus, axis=-1)
                - np.count_nonzero(minus, axis=-1))

    def measure(self, a: int) -> bool:
        n = self.n
        stab_rows = self.x[n:, a].nonzero()[0]
        if stab_rows.size:  # random outcome
            p = int(stab_rows[0]) + n
            # Every other row with an X on column a becomes its product
            # with row p.  Each product reads its own row and row p
            # alone, so they are all taken at once; a spare column's
            # rows never have an X there.
            rows = self.x[:, a].nonzero()[0]
            rows = rows[rows != p]
            total = (2 * self.r[rows].astype(np.int64) + 2 * int(self.r[p])
                     + self._g(self.x[p], self.z[p],
                               self.x[rows], self.z[rows]))
            self.r[rows] = (total % 4) // 2
            self.x[rows] ^= self.x[p]
            self.z[rows] ^= self.z[p]
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            outcome = bool(self.rng.integers(2))
            self.z[p, a] = True
            self.r[p] = outcome
            return outcome
        # Deterministic outcome: accumulate into a scratch row.
        sx = np.zeros(n, dtype=bool)
        sz = np.zeros(n, dtype=bool)
        sr = 0
        for i in self.x[:n, a].nonzero()[0].tolist():
            total = (
                2 * sr
                + 2 * int(self.r[i + n])
                + int(self._g(self.x[i + n], self.z[i + n], sx, sz))
            )
            sr = (total % 4) // 2
            sx ^= self.x[i + n]
            sz ^= self.z[i + n]
        return bool(sr)


class CliffordState:
    """Extended-model circuits on a :class:`Tableau` that grows.

    A wire gets a column when it is loaded as a qubit input or first
    initialized; the tableau starts with 8 spare columns and doubles
    when full.
    """

    def __init__(self, *, rng=None):
        self.index: dict[int, int] = {}
        self.tableau = Tableau(8, rng=rng)
        self.bits: dict[int, bool] = {}
        #: Columns measured out by Term, Discard or Measure: each holds
        #: a basis state that a later Init must overwrite.
        self.released: set[int] = set()

    def copy(self) -> "CliffordState":
        """An independent fork of this state that shares its random
        generator, as :meth:`repro.sim.state.StateVector.copy` does."""
        clone = CliffordState.__new__(CliffordState)
        clone.index, clone.bits = dict(self.index), dict(self.bits)
        clone.released, clone.tableau = set(self.released), self.tableau.copy()
        return clone

    def _column(self, wire: int) -> int:
        """*wire*'s column, appended in |0> on first use."""
        column = self.index.get(wire)
        if column is None:
            if len(self.index) == self.tableau.n:
                self.tableau.extend(self.tableau.n)
            column = self.index[wire] = len(self.index)
        return column

    def load_inputs(self, inputs, in_values: dict[int, bool]) -> None:
        """Set each ``(wire, type)`` of *inputs* to its basis value from
        *in_values* (default False): a tableau column or a bit."""
        for wire, wtype in inputs:
            if wtype == QUANTUM:
                column = self._column(wire)
                if in_values.get(wire, False):
                    self.tableau.x_gate(column)
            else:
                self.bits[wire] = in_values.get(wire, False)

    def measure_qubit(self, wire: int) -> bool:
        """Measure qubit *wire* in the computational basis."""
        return self.tableau.measure(self.index[wire])

    def read(self, wire: int, wtype: str) -> bool:
        """The value of output ``(wire, wtype)``: a qubit is measured."""
        if wtype == QUANTUM:
            return self.measure_qubit(wire)
        return self.bits[wire]

    def run(self, gates) -> None:
        """Execute *gates* in order."""
        for gate in gates:
            self.execute(gate)

    def execute(self, gate: Gate) -> None:
        tab = self.tableau
        if isinstance(gate, Comment):
            return
        if isinstance(gate, NamedGate):
            self._named(gate)
            return
        if isinstance(gate, Init):
            column = self._column(gate.wire)
            held = False
            if column in self.released:
                self.released.discard(column)
                held = tab.measure(column)  # deterministic: measured out
            if held != gate.value:
                tab.x_gate(column)
            return
        if isinstance(gate, (Term, Discard, Measure)):
            column = self.index[gate.wire]
            # A Term draws nothing: a qubit with a random outcome (a
            # stabilizer row with an X on its column) fails it.
            if isinstance(gate, Term) and tab.x[tab.n:, column].any():
                raise AssertionFailedError(
                    f"qubit {gate.wire} terminated with assertion "
                    f"|{int(gate.value)}> but has nonzero amplitude in the "
                    "other basis state"
                )
            outcome = tab.measure(column)
            self.released.add(column)
            if isinstance(gate, Measure):
                self.bits[gate.wire] = outcome
            elif isinstance(gate, Term) and outcome != gate.value:
                raise AssertionFailedError(
                    f"qubit {gate.wire} terminated asserting "
                    f"|{int(gate.value)}> but measured {int(outcome)}"
                )
            return
        if isinstance(gate, CInit):
            self.bits[gate.wire] = gate.value
            return
        if isinstance(gate, CTerm):
            if self.bits.pop(gate.wire) != gate.value:
                raise AssertionFailedError("classical assertion failed")
            return
        if isinstance(gate, CDiscard):
            self.bits.pop(gate.wire)
            return
        if isinstance(gate, CNot) and any(
            c.wire_type == QUANTUM for c in gate.controls
        ):
            _refuse_qubit_control()
        if isinstance(gate, (CGate, CNot)):
            from .classical import ClassicalState

            proxy = ClassicalState()
            proxy.values = self.bits
            proxy.execute(gate)
            return
        if isinstance(gate, BoxCall):
            raise SimulationError("BoxCall reached simulator; inline first")
        raise SimulationError(f"cannot Clifford-simulate {gate!r}")

    def _named(self, gate: NamedGate) -> None:
        tab = self.tableau
        quantum_controls = [
            c for c in gate.controls if c.wire_type == QUANTUM
        ]
        classical_controls = [
            c for c in gate.controls if c.wire_type != QUANTUM
        ]
        if any(self.bits[c.wire] != c.positive for c in classical_controls):
            return
        # Classification goes through the cached gate-matrix lookup
        # (matching up to global phase), so e.g. Rz(pi/2) runs as S and
        # R(2pi/2) as Z; each (name, param, inverted) key classifies once.
        classified = clifford_classification(
            gate.name, gate.param, gate.inverted
        )
        tag, phase = classified if classified else (None, 0j)
        targets = [self.index[t] for t in gate.targets]
        if quantum_controls:
            ctl = quantum_controls[0]
            if len(quantum_controls) > 1:
                raise SimulationError(
                    "multiply-controlled gates are not Clifford; decompose "
                    "to the Toffoli base will not help -- this simulator "
                    "handles only Clifford circuits"
                )
            # A global phase on the base gate becomes a *relative* phase
            # under a control (C-iX != CNOT), so only exact matches may
            # dispatch here.
            exact = abs(phase - 1.0) < 1e-9
            a = self.index[ctl.wire]
            if not ctl.positive:
                tab.x_gate(a)
            if tag == "X" and exact:
                tab.cnot(a, targets[0])
            elif tag == "Z" and exact:
                tab.cz(a, targets[0])
            else:
                raise SimulationError(
                    f"controlled {gate.name!r} is not a Clifford gate"
                )
            if not ctl.positive:
                tab.x_gate(a)
            return
        if tag == "X":
            tab.x_gate(targets[0])
        elif tag == "Y":
            tab.y_gate(targets[0])
        elif tag == "Z":
            tab.z_gate(targets[0])
        elif tag == "H":
            tab.hadamard(targets[0])
        elif tag == "S":
            tab.s_gate(targets[0])
        elif tag == "S*":
            tab.s_dagger(targets[0])
        elif tag == "swap":
            tab.swap(targets[0], targets[1])
        elif tag in ("phase", "I"):
            return
        else:
            raise SimulationError(f"{gate.name!r} is not a Clifford gate")


def run_clifford(bc: BCircuit, in_values: dict[int, bool] | None = None,
                 rng=None) -> CliffordState:
    """Run a Clifford circuit once, returning the final CliffordState.

    Input wires are initialized to basis states from ``in_values``.
    """
    from ..transform.inline import compile_flat

    state = CliffordState(rng=rng)
    state.load_inputs(bc.circuit.inputs, in_values or {})
    state.run(compile_flat(bc).gates)
    return state
