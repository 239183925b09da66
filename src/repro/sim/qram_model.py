"""The QRAM execution model: interleaved generation and execution.

Section 4.3.1 of the paper: "the classical controller generates a circuit,
sends it to the physical device for execution, awaits measurement results,
then generates another circuit, and so on ... this allows circuit outputs
(for example, the results of measurements) to be re-used as circuit
parameters (to control the generation of the next part of the circuit)" --
*dynamic lifting*.

:func:`run_with_lifting` plays the role of Knill's QRAM device, with the
statevector simulator standing in for the physical quantum computer (a
documented substitution; the paper itself never runs on hardware).  The
builder's ``dynamic_lift`` flushes all gates generated so far to the
simulator and reads the measured bit back as a generation-time ``Bool``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.builder import Circ
from ..core.qdata import qdata_leaves
from ..core.wires import Bit, Qubit
from ..transform.inline import _SharedWires, _expand
from .state import StateVector

#: Inlined-subroutine scratch wires are allocated in a range disjoint from
#: anything the builder will ever hand out.
_INLINE_WIRE_BASE = 10 ** 12


class QRAMExecutor:
    """Incrementally executes a builder's gate stream on a simulator."""

    def __init__(self, qc: Circ, rng: np.random.Generator | None = None):
        self.qc = qc
        self.sim = StateVector(rng=rng)
        self.position = 0
        self.source = _SharedWires(_INLINE_WIRE_BASE)
        qc.lifting_handler = self._lift

    def flush(self) -> None:
        """Execute all gates generated since the last flush."""
        pending = self.qc.gates[self.position:]
        self.position = len(self.qc.gates)
        self.sim.run(
            flat for gate in pending
            for flat in _expand(gate, (), self.qc.namespace, self.source)
        )

    def _lift(self, qc: Circ, bitwire: Bit) -> bool:
        self.flush()
        return bool(self.sim.bits[bitwire.wire_id])

    def readout(self, data):
        """Flush, then read the final values of output wires.

        Remaining qubits are measured; bits are read; parameters pass
        through.  Returns a bool structure shaped like *data*.
        """
        self.flush()
        return _readout_struct(data, self.sim)


def _readout_struct(data, sim: StateVector):
    if isinstance(data, Qubit):
        return bool(sim.measure_qubit(data.wire_id))
    if isinstance(data, Bit):
        return bool(sim.bits[data.wire_id])
    if isinstance(data, tuple):
        return tuple(_readout_struct(d, sim) for d in data)
    if isinstance(data, list):
        return [_readout_struct(d, sim) for d in data]
    if isinstance(data, dict):
        return {k: _readout_struct(v, sim) for k, v in data.items()}
    if hasattr(data, "from_bools"):
        bools = [_readout_struct(leaf, sim) for leaf in qdata_leaves(data)]
        return data.from_bools(bools)
    if hasattr(data, "qdata_leaves"):
        return [_readout_struct(leaf, sim) for leaf in data.qdata_leaves()]
    return data


def run_with_lifting(
    fn: Callable, *inputs, rng: np.random.Generator | None = None, seed=None
):
    """Run a circuit-producing function under the QRAM model.

    *inputs* are bool structures (or parameter objects with a
    ``qshape_specimen`` hook) for fn's quantum arguments; they are loaded
    into the simulated device as basis states.  Inside *fn*,
    ``qc.dynamic_lift(bit)`` is available and triggers circuit execution up
    to that point.  Returns fn's result with all wires read out as bools.
    """
    from .classical import _param_bools, _shape_from_params

    if rng is None:
        rng = np.random.default_rng(seed)
    qc = Circ()
    executor = QRAMExecutor(qc, rng=rng)
    args = []
    for value in inputs:
        data = qc.fresh_like(_shape_from_params(value))
        loaded = list(zip(qdata_leaves(data), _param_bools(value)))
        executor.sim.load_inputs(
            [(leaf.wire_id, leaf.wire_type) for leaf, _ in loaded],
            {leaf.wire_id: bit_value for leaf, bit_value in loaded},
        )
        args.append(data)
    qc.snapshot_inputs()
    result = fn(qc, *args)
    return executor.readout(result)
