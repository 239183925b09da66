"""Unitary matrices for the built-in gate vocabulary.

Conventions: single-qubit matrices act on basis (|0>, |1>); two-qubit
matrices on (|00>, |01>, |10>, |11>) with the *first* target as the more
significant bit.  Parametrised gates receive their parameter (an angle,
time, or QFT level) from the gate record.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from ..core.errors import SimulationError
from ..core.gates import NamedGate
from ..obs import core as _obs

_SQRT2 = math.sqrt(2.0)

_H = np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_T = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)
_V = 0.5 * np.array(
    [[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex
)  # sqrt(X)
_E = np.array(  # Quipper's E = H S^3 omega^3, a Clifford gate
    [[-1 + 1j, 1 + 1j], [-1 + 1j, -1 - 1j]], dtype=complex
) / 2
_IX = 1j * _X
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# The BWT W gate: fixes |00> and |11>, Hadamard on span{|01>, |10>}.
_W = np.array(
    [
        [1, 0, 0, 0],
        [0, 1 / _SQRT2, 1 / _SQRT2, 0],
        [0, 1 / _SQRT2, -1 / _SQRT2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_FIXED: dict[str, np.ndarray] = {
    "H": _H,
    "X": _X,
    "not": _X,
    "Y": _Y,
    "Z": _Z,
    "S": _S,
    "T": _T,
    "V": _V,
    "E": _E,
    "iX": _IX,
    "swap": _SWAP,
    "W": _W,
}


def gate_matrix(gate: NamedGate) -> np.ndarray:
    """The unitary matrix of a named gate (controls excluded).

    Raises :class:`~repro.core.errors.SimulationError` for unknown names;
    user-defined named gates have no intrinsic semantics and must be
    transformed away before simulation.  The returned array is a shared,
    read-only cache entry -- copy before mutating.
    """
    return gate_matrix_cached(gate.name, gate.param, gate.inverted)


@lru_cache(maxsize=4096)
def gate_matrix_cached(
    name: str, param: float | None, inverted: bool
) -> np.ndarray:
    """LRU-cached :func:`gate_matrix`, keyed on ``(name, param, inverted)``.

    Parametrised and inverted matrices are built once per distinct key; the
    returned array is marked read-only so cache entries cannot be corrupted
    by in-place arithmetic in a simulator kernel.
    """
    matrix = _named_matrix(name, param)
    if inverted:
        matrix = matrix.conj().T
    matrix = np.ascontiguousarray(matrix)
    matrix.setflags(write=False)
    return matrix


_obs.register_cache("sim.gate_matrix", gate_matrix_cached)


def _named_matrix(name: str, param: float | None) -> np.ndarray:
    fixed = _FIXED.get(name)
    if fixed is not None:
        return fixed
    if name == "exp(-i%Z)":
        t = float(param)
        return np.diag(
            [cmath.exp(-1j * t), cmath.exp(1j * t)]
        )
    if name == "exp(-i%ZZ)":
        t = float(param)
        lo, hi = cmath.exp(-1j * t), cmath.exp(1j * t)
        return np.diag([lo, hi, hi, lo])
    if name in ("R(2pi/%)", "rGate"):
        # diag(1, exp(2 pi i / 2^n)): the QFT phase-shift ladder gate.
        n = float(param)
        return np.diag([1.0, cmath.exp(2j * math.pi / (2.0 ** n))])
    if name == "Rz":
        t = float(param)
        return np.diag([cmath.exp(-1j * t / 2), cmath.exp(1j * t / 2)])
    if name == "Rx":
        t = float(param)
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "Ry":
        t = float(param)
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "phase":
        return np.array([[cmath.exp(1j * float(param))]], dtype=complex)
    raise SimulationError(f"no matrix known for gate {name!r}")


# ---------------------------------------------------------------------------
# Clifford classification (shared with the stabilizer simulator)
# ---------------------------------------------------------------------------

#: Canonical tableau operations and their matrices.  A gate whose cached
#: matrix equals one of these up to global phase is simulated on the CHP
#: tableau under that tag (e.g. ``Rz(pi/2)`` classifies as ``"S"``).
_CLIFFORD_CANON: tuple[tuple[str, np.ndarray], ...] = (
    ("I", np.eye(2, dtype=complex)),
    ("X", _X),
    ("Y", _Y),
    ("Z", _Z),
    ("H", _H),
    ("S", _S),
    ("S*", _S.conj().T),
    ("swap", _SWAP),
)


@lru_cache(maxsize=4096)
def clifford_classification(
    name: str, param: float | None, inverted: bool
) -> tuple[str, complex] | None:
    """Classify a named gate as a canonical tableau operation, or None.

    Goes through :func:`gate_matrix_cached`, so each ``(name, param,
    inverted)`` key is matrix-built and classified exactly once.  Returns
    ``(tag, phase)`` where *tag* is one of ``"I"``, ``"X"``, ``"Y"``,
    ``"Z"``, ``"H"``, ``"S"``, ``"S*"``, ``"swap"``, or ``"phase"`` for
    arity-0 scalar gates, and *phase* is the global-phase ratio between
    the gate's matrix and the canonical one.  The phase is unobservable
    for an *uncontrolled* gate, but becomes a relative phase under a
    quantum control -- controlled dispatch must demand ``phase == 1``.
    Returns None for gates with no single-tableau-op equivalent.
    """
    try:
        matrix = gate_matrix_cached(name, param, inverted)
    except SimulationError:
        return None
    if matrix.shape == (1, 1):
        return ("phase", complex(matrix[0, 0]))
    for tag, canonical in _CLIFFORD_CANON:
        if canonical.shape != matrix.shape:
            continue
        anchor = np.argmax(np.abs(canonical))
        ratio = complex(matrix.flat[anchor] / canonical.flat[anchor])
        if abs(abs(ratio) - 1.0) < 1e-9 and np.allclose(
            matrix, ratio * canonical, atol=1e-9
        ):
            return (tag, ratio)
    return None


_obs.register_cache("sim.clifford_classification", clifford_classification)
