"""Simulators: the "circuit execution time" of the two run-times.

* :func:`run_generic` -- dense statevector simulation (any circuit).
* :func:`run_classical_generic` -- efficient boolean evaluation of
  classical/reversible circuits (oracle testing).
* :func:`run_clifford_generic` -- efficient stabilizer simulation of
  Clifford circuits.
* :func:`run_with_lifting` -- the QRAM model with dynamic lifting.
"""

from __future__ import annotations

import numpy as np

from .classical import evaluate, run_classical_generic
from .clifford import CliffordState, Tableau, run_clifford
from .qram_model import QRAMExecutor, run_with_lifting
from .state import StateVector, simulate


def run_generic(fn, *inputs, seed=None):
    """Simulate a circuit-producing function on basis-state inputs.

    Returns fn's output structure with every wire read out: Bits give their
    classical value, remaining Qubits are measured in the computational
    basis.  Measurement outcomes are sampled with *seed*.  This is the
    paper's ``run_generic`` ("necessarily inefficient on a classical
    computer" -- it is exponential in the number of qubits).
    """
    return run_with_lifting(fn, *inputs, rng=np.random.default_rng(seed))


def run_clifford_generic(fn, *inputs, seed=None):
    """Simulate a Clifford circuit-producing function efficiently."""
    from ..core.builder import build
    from .classical import _param_bools, _shape_from_params
    from .qram_model import _readout_struct

    shapes = [_shape_from_params(v) for v in inputs]
    bc, out_struct = build(fn, *shapes)
    in_leaf_values = [b for v in inputs for b in _param_bools(v)]
    in_values = {
        wire: value
        for (wire, _), value in zip(bc.circuit.inputs, in_leaf_values)
    }
    state = run_clifford(bc, in_values, rng=np.random.default_rng(seed))
    return _readout_struct(out_struct, state)


__all__ = [
    "run_generic",
    "run_classical_generic",
    "run_clifford_generic",
    "run_with_lifting",
    "simulate",
    "evaluate",
    "run_clifford",
    "StateVector",
    "CliffordState",
    "Tableau",
    "QRAMExecutor",
]
