"""Dense statevector simulation of the extended circuit model.

This is the paper's ``run_generic``: "Quipper also provides a function
run_generic to simulate a circuit (this is necessarily inefficient on a
classical computer)" (Section 4.4.5).  The simulator supports the whole
extended circuit model: dynamic qubit allocation (Init grows the state,
Term shrinks it *and checks the programmer's assertion*), measurement,
classical wires, and classically-controlled gates.

The state is ONE flat contiguous complex buffer of shape ``(B, 2**n)``:
``B`` rows advancing in lockstep, with ``reshape((B,) + (2,) * n)`` a
free view carrying one axis per live qubit after the row axis.  A row is
one simulation (a shot, or a parameter binding); the shot sampler's
forks also let one row stand for every shot that drew the same
measurement outcomes so far (see :meth:`StateVector.broadcast`).  Gates
mutate strided sub-views of the buffer in place through the specialized
kernels of :mod:`repro.sim.kernels` -- diagonal gates touch half of every
row with a single elementwise multiply, bit flips are slice exchanges,
and only the residual dense cases combine slices per a matrix.
:meth:`StateVector.run` executes a gate sequence.  It allocates each run
of ``Init`` gates with one buffer (:meth:`StateVector.add_qubits`) and
terminates each run of ``Term`` gates with one reduction and one gather
(:meth:`StateVector.remove_qubits_asserted`): ``with_computed`` blocks
allocate and uncompute their ancillas in such runs.  Past one block of
amplitudes it applies each run of basis permutations (the X, CNOT and
Toffoli runs of reversible arithmetic) as one gather per block, with the
bytes the gates one by one give.  A ``with_computed`` block that would
grow the state to one block while few of its columns hold amplitude
runs on those columns alone (:meth:`StateVector._run_on_support`): its
ancillas, permutations and assertions move one integer code per column,
and one scatter writes the final buffer, as ``run_classical_generic``
evaluates oracles on basis states.  A sampled run's deterministic prefix
may also hold :class:`~repro.sim.kernels.Product` items
(:func:`form_products`): each long run of gates on at most three wires
below one block, applied as one matrix.  Kernels never index the row axis, so
ONE dispatch advances all ``B`` rows: the per-gate Python/numpy
dispatch overhead that dominates at moderate qubit counts is paid once
per batch instead of once per shot.  ``batch=1`` (the
default) is no special case: it is the same code over a one-row buffer,
and it keeps the amplitudes, bits and seeded draws of the scalar engine
this replaced byte for byte, since a ``(1, N)`` row reduces in the flat
array's order and ``rng.random(1)`` draws what ``rng.random()`` draws.
Across batch sizes, and whether or not shots share rows, measurement
randomness, outcomes, and seeded counts are bit-identical (see
:meth:`StateVector.preload_randoms`) and amplitudes agree to machine
rounding -- numpy's SIMD loops may round a strided batch column one ULP
differently than a lone element.

Buffers are numpy arrays.  Classical wires live in a plain dict of
numpy bool arrays of shape ``(B,)``, one value per row, at every batch
size.

:class:`LegacyStateVector` preserves the original moveaxis + reshape +
matmul engine verbatim as the reference implementation: the randomized
equivalence suites pin every kernel -- scalar and batched -- against it,
and the throughput benchmarks measure the flat engine's speedup over it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from itertools import groupby
from typing import NoReturn

import numpy as np

from ..core.circuit import BCircuit
from ..core.errors import (
    AssertionFailedError,
    SimulationError,
)
from ..core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    CNot,
    Comment,
    Control,
    CTerm,
    Discard,
    Gate,
    Init,
    Measure,
    NamedGate,
    Term,
)
from ..core.wires import QUANTUM
from ..obs import core as _obs
from .kernels import (
    BLOCK_AMPLITUDES,
    PERMUTE,
    PRODUCT_MIN_GATES,
    PRODUCT_WIRES,
    Product,
    _apply_dense,
    _slots,
    _subindex,
    apply_kernel,
    apply_product,
    gate_kernel,
    gather_permutations,
    named_kernel,
    pattern_weights,
)
from .classical import _CLASSICAL_FUNCTIONS
from .matrices import gate_matrix

_TOLERANCE = 1e-9

#: Vectorized forms of :mod:`repro.sim.classical`'s functions, applied
#: over a stacked ``(k, B)`` bool array.
_CLASSICAL_VECTOR_FUNCTIONS = {
    "and": lambda values: np.logical_and.reduce(values, axis=0),
    "or": lambda values: np.logical_or.reduce(values, axis=0),
    "xor": lambda values: values.sum(axis=0) % 2 == 1,
    "not": lambda values: ~values[0],
    "eq": lambda values: values[0] == values[1],
}


def _refuse_qubit_control() -> NoReturn:
    """Every simulator's refusal of a classical NOT with a qubit control."""
    raise SimulationError(
        "a classical NOT cannot be controlled by a qubit (measurement "
        "would be required); restructure the circuit"
    )


class StateVector:
    """A resizable flat statevector with named qubit axes, a classical
    store, and a leading row axis.

    ``data`` has shape ``(batch, 2**n)`` and every classical bit is a
    ``(batch,)`` bool array, one value per row, at every batch size.
    Every row advances through the same gate sequence in one kernel
    dispatch.  The state stands for ``shots`` shots: row i is shot i
    (``shot_rows`` is None) unless the state was :meth:`broadcast`, in
    which case ``shot_rows`` maps each shot to its row, and measurement
    splits a row only into the outcomes its shots drew
    (:meth:`measure_qubit`).  Only the read-only ``state`` view drops
    the row axis at ``batch=1``.  ``axes`` maps wire ids to *qubit* axis
    indices (row axis excluded); kernels see those indices shifted by
    one.
    """

    __slots__ = ("data", "axes", "bits", "rng", "batch", "shots",
                 "shot_rows", "_presampled")

    def __init__(
        self, rng: np.random.Generator | None = None, batch: int = 1
    ):
        if batch < 1:
            raise SimulationError("batch size must be >= 1")
        self.batch = self.shots = int(batch)
        self.shot_rows: np.ndarray | None = None
        # zero qubits: every row is the scalar amplitude 1
        self.data = np.ones((self.batch, 1), dtype=complex)
        self.axes: dict[int, int] = {}  # wire id -> qubit axis index
        self.bits: dict[int, np.ndarray] = {}
        self.rng = rng if rng is not None else np.random.default_rng()
        self._presampled = None

    # -- qubit bookkeeping ---------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.axes)

    @property
    def state(self) -> np.ndarray:
        """The ``(2,) * n`` tensor layout (a free view of ``data``),
        with a leading row axis when ``batch > 1``."""
        shape = (2,) * self.num_qubits
        if self.batch == 1:
            return self.data.reshape(shape)
        return self.data.reshape((self.batch,) + shape)

    def _view(self) -> np.ndarray:
        return self.data.reshape((self.batch,) + (2,) * len(self.axes))

    def copy(self) -> "StateVector":
        """An independent fork of the simulated state.

        Amplitudes, classical bits and the shot map are copied; the
        random generator is *shared*, so a sequence of forks consumes one
        random stream exactly as repeated fresh simulations would (shot
        sampling relies on this).
        """
        clone = StateVector.__new__(StateVector)
        clone.batch = self.batch
        clone.shots = self.shots
        clone.shot_rows = (None if self.shot_rows is None
                           else self.shot_rows.copy())
        clone.data = self.data.copy()
        clone.axes = dict(self.axes)
        clone.bits = {w: v.copy() for w, v in self.bits.items()}
        clone.rng = self.rng
        clone._presampled = self._presampled
        return clone

    def broadcast(self, shots: int) -> "StateVector":
        """Fork this batch-1 state into one row that stands for *shots*
        shots.

        The row is a copy of this state, and every shot maps to it; the
        random generator is shared, as in :meth:`copy`.  This is how the
        shot sampler turns one simulated deterministic prefix into a whole
        batch of stochastic suffix replays: each measurement then splits
        a row only into the outcomes its shots drew, so the fork holds one
        row per distinct measurement history, never more rows than shots.
        """
        if self.batch != 1:
            raise SimulationError("only a batch-1 state can broadcast")
        if shots < 1:
            raise SimulationError("batch size must be >= 1")
        clone = self.copy()
        clone.shots = int(shots)
        clone.shot_rows = None if shots == 1 else np.zeros(shots, np.intp)
        clone._presampled = None
        return clone

    def per_shot(self, values: np.ndarray) -> np.ndarray:
        """Per-row *values* (a ``(batch, ...)`` array) read per shot."""
        return values if self.shot_rows is None else values[self.shot_rows]

    def set_bit(self, wire: int, value: bool) -> None:
        """Set classical wire *wire* to *value* on every row."""
        self.bits[wire] = np.full(self.batch, bool(value))

    def load_inputs(self, inputs, in_values: dict[int, bool]) -> None:
        """Allocate each ``(wire, type)`` of *inputs* in its basis value
        from *in_values* (default False): the qubits as one
        :meth:`add_qubits` run, in input order, and the bits."""
        self.add_qubits([
            (wire, in_values.get(wire, False))
            for wire, wtype in inputs if wtype == QUANTUM
        ])
        for wire, wtype in inputs:
            if wtype != QUANTUM:
                self.set_bit(wire, in_values.get(wire, False))

    def add_qubit(self, wire: int, value: bool) -> None:
        self.add_qubits(((wire, value),))

    def add_qubits(self, pairs) -> None:
        """Allocate each ``(wire, value)`` of *pairs*, in order, as a new
        innermost axis in its basis state: what as many ``Init`` gates
        give, byte for byte, from one allocation.

        Appending k axes in C order spreads the state out: ``new[2**k * i
        + slot] = old[i]`` row by row, where the k values, first
        most significant, spell ``slot``, and every other amplitude is
        zero.  A wire already live, or twice in *pairs*, raises after the
        wires before it are allocated, as the gates one by one would.
        """
        slot = 0
        for j, (wire, value) in enumerate(pairs):
            if wire in self.axes:
                # Allocate the wires before it, then refuse, as one by one.
                for earlier, _ in pairs[:j]:
                    del self.axes[earlier]
                self.add_qubits(pairs[:j])
                raise SimulationError(f"qubit {wire} already allocated")
            self.axes[wire] = len(self.axes)
            slot = slot << 1 | bool(value)
        if not pairs:
            return
        spread = 1 << len(pairs)
        grown = np.zeros((self.batch, self.data.shape[1] * spread),
                         dtype=complex)
        grown[:, slot::spread] = self.data
        self.data = grown

    def _split(self, wire: int, drawn: np.ndarray) -> np.ndarray:
        """Remove *wire*'s axis, each shot keeping the value it *drew*.

        ``drawn`` holds one bool per shot.  When row i is shot i, row i
        keeps its slice where the wire reads ``drawn[i]``.  Otherwise each
        row keeps one slice per value its shots drew: the kept ``(row,
        value)`` pairs, in row order and zero first, become the new rows,
        carrying their source rows' bits, and the shot map is re-pointed
        at them (a row whose shots all drew one value keeps its place).
        Either way one advanced-index read gathers the slices into a fresh
        C-contiguous array.  Returns each new row's value.
        """
        rows = self.shot_rows
        source = None  # the source row of each new row, when rows split
        if rows is None:
            values = drawn
        else:
            codes = 2 * rows + drawn
            kept = np.zeros(2 * self.batch, dtype=bool)
            kept[codes] = True
            pairs = np.flatnonzero(kept)
            values = (pairs & 1).astype(bool)
            if len(pairs) > self.batch:
                source = pairs >> 1
                self.shot_rows = (np.cumsum(kept) - 1)[codes]
        axis = self.axes.pop(wire)
        n = len(self.axes) + 1
        view = self.data.reshape(
            self.batch, 1 << axis, 2, 1 << (n - 1 - axis)
        )
        taken = np.arange(self.batch) if source is None else source
        self.data = view[taken, :, values.astype(np.intp), :].reshape(
            len(taken), -1
        )
        if source is not None:
            self.batch = len(source)
            self.bits = {w: v[source] for w, v in self.bits.items()}
        for other, other_axis in self.axes.items():
            if other_axis > axis:
                self.axes[other] = other_axis - 1
        return values

    def _axis_weights(self, wire: int, value: int) -> np.ndarray:
        """Per-row squared amplitude mass where *wire* is *value*."""
        half = self._view()[
            _subindex(len(self.axes) + 1, ((self.axes[wire] + 1, value),))
        ]
        return (abs(half) ** 2).reshape(self.batch, -1).sum(axis=1)

    def remove_qubits_asserted(self, pairs) -> None:
        """Project onto each ``(wire, value)`` of *pairs* in turn, each
        assertion checked for every row: what as many ``Term`` gates
        give, to rounding, from one reduction and one gather.

        :func:`~repro.sim.kernels.pattern_weights` gives each row's
        weight on every pattern of the wires' bits.  From those, Term j
        fails when the weight of its wrong value given the earlier wires
        kept (relative to the weight they kept, as the state the earlier
        Terms leave is normalized) exceeds amplitude 1e-6, naming its
        wire, and a row whose kept share falls under the norm
        tolerance is a collapse, both checked in the Terms' order and
        before the state changes.  The kept block is then gathered once
        and scaled by one over the square root of its weight, unless that
        weight is exactly 1.  A wire not live, or twice in *pairs*,
        raises once the wires before it are terminated, so an earlier
        Term's failure is raised first.
        """
        axes = []
        for j, (wire, _) in enumerate(pairs):
            axis = self.axes.get(wire)
            if axis is None or axis in axes:
                self.remove_qubits_asserted(pairs[:j])
                raise SimulationError(f"qubit {wire} is not allocated")
            axes.append(axis)
        if not pairs:
            return
        n = len(self.axes)
        weights = pattern_weights(self.data, axes)
        held = None  # each row's weight the earlier Terms kept
        for wire, value in pairs:
            bit = int(value)
            both = weights  # this wire's two values, the earlier kept
            if both.ndim > 2:
                both = both.reshape(self.batch, 2, -1).sum(axis=2)
            wrong, kept = both[:, 1 - bit], both[:, bit]
            if held is None:
                _check_term(wire, bit, wrong, kept)
            else:
                _check_term(wire, bit, wrong / held, kept / held)
            held = kept
            weights = weights[:, bit]
        view = self.data.reshape((self.batch,) + (2,) * n)
        kept_block = view[_subindex(n + 1, tuple(
            (axis + 1, int(value)) for axis, (_, value) in zip(axes, pairs)
        ))]
        self.data = np.ascontiguousarray(kept_block).reshape(self.batch, -1)
        _rescale(self.data, held)
        gone = sorted(axes)
        for wire, _ in pairs:
            del self.axes[wire]
        for other, axis in self.axes.items():
            self.axes[other] = axis - bisect_left(gone, axis)

    def measure_qubit(self, wire: int):
        """Measure *wire*, collapsing each shot to its own outcome.

        Each row's probability of a one is computed once, and each shot
        compares its own value of measurement randomness with its row's
        (one value per shot: from the preloaded matrix when
        :meth:`preload_randoms` armed one, else from ``rng``).  A row
        splits only into the outcomes its shots drew (:meth:`_split`).
        Returns the outcomes per row, a ``(batch,)`` bool array: per shot
        when row i is shot i, else read per shot with :meth:`per_shot`.
        """
        p_one = self._axis_weights(wire, 1)
        total = (abs(self.data) ** 2).sum(axis=1)
        probs = p_one / total
        drawn = self._draw_shots() < self.per_shot(probs)
        outcomes = self._split(wire, drawn)
        self._renormalize()
        return outcomes

    def preload_randoms(self, draws: np.ndarray) -> None:
        """Serve measurement randomness from a pre-drawn matrix.

        ``draws`` has shape ``(shots, events)``, drawn *shot-major* (one
        row per shot) in a single ``rng.random((shots, events))`` call --
        which consumes the underlying bit stream exactly as ``shots``
        sequential scalar simulations would, so batched sampling stays
        bit-identical to the per-shot fork loop it replaced, however the
        shots share rows.  Stochastic event j then consumes column j
        across all shots.
        """
        columns = np.asarray(draws, dtype=float).T
        self._presampled = iter(columns)

    def _draw_shots(self) -> np.ndarray:
        if self._presampled is not None:
            return self._next_column()
        return self.rng.random(self.shots)

    def _next_column(self) -> np.ndarray:
        column = next(self._presampled, None)
        if column is None:
            raise SimulationError(
                "preloaded measurement randomness exhausted; the sampler "
                "under-counted the circuit's stochastic events"
            )
        return column

    def _renormalize(self) -> None:
        norms = np.sqrt((abs(self.data) ** 2).sum(axis=1))
        if float(norms.min()) < _TOLERANCE:
            raise SimulationError(
                "a batch member collapsed to zero norm"
            )
        self.data /= norms[:, None]

    # -- gate application ------------------------------------------------

    def _split_controls(
        self, controls: tuple[Control, ...]
    ) -> tuple[tuple[tuple[int, int], ...], np.ndarray | None] | None:
        """Quantum controls as (view axis, required bit) masks, plus the
        classical-control row mask.

        Returns None when no row satisfies the classical controls (the
        gate is skipped entirely); otherwise ``(quantum, mask)`` where
        ``mask`` is None when every row satisfies them, or a bool array
        selecting the rows that do.  Quantum-control axes are
        already shifted past the batch axis, ready for the kernel layer.
        """
        quantum = []
        mask = None
        for ctl in controls:
            if ctl.wire_type == QUANTUM:
                quantum.append(
                    (self.axes[ctl.wire] + 1, 1 if ctl.positive else 0)
                )
                continue
            satisfied = self.bits[ctl.wire] == ctl.positive
            mask = satisfied if mask is None else (mask & satisfied)
        if mask is not None:
            satisfying = np.count_nonzero(mask)
            if not satisfying:
                return None
            if satisfying == self.batch:
                mask = None
        return tuple(quantum), mask

    def apply_unitary(
        self,
        matrix: np.ndarray,
        targets: tuple[int, ...],
        controls: tuple[Control, ...] = (),
    ) -> None:
        """Apply an explicit matrix (the uncached general entry point)."""
        resolved = self._split_controls(controls)
        if resolved is None:
            return
        ctrl, mask = resolved
        view = self._view()
        if mask is None:
            self._apply_matrix(view, matrix, targets, ctrl)
            return
        sub = view[mask]
        self._apply_matrix(sub, matrix, targets, ctrl)
        view[mask] = sub

    def _apply_matrix(self, view, matrix, targets, ctrl) -> None:
        if not targets:  # global phase on the control subspace
            view[_slots(view.ndim, (), ctrl)[0]] *= matrix[0, 0]
            return
        target_axes = tuple(self.axes[t] + 1 for t in targets)
        _apply_dense(view, _slots(view.ndim, target_axes, ctrl), matrix)

    # -- gate dispatch -----------------------------------------------------

    def execute(self, gate: Gate) -> None:
        """Execute one (box-free) gate via the type-dispatch table."""
        handler = _DISPATCH.get(type(gate))
        if handler is None:
            raise SimulationError(f"cannot simulate gate {gate!r}")
        if _obs.ENABLED and self.batch > 1:
            _obs.add("sim.batch.gates")
        handler(self, gate)

    def run(self, gates) -> None:
        """Execute *gates* in order, with the results of :meth:`execute`.

        Each maximal run of consecutive ``Init`` gates is one
        :meth:`add_qubits` call (the bytes the gates one by one give), and
        each maximal run of consecutive ``Term`` gates one
        :meth:`remove_qubits_asserted` call (the same checks and errors,
        amplitudes to rounding).  Once the state holds more than
        :data:`~repro.sim.kernels.BLOCK_AMPLITUDES` amplitudes, each
        maximal run of two or more basis permutations (X, CNOT, Toffoli,
        swap, Fredkin: see :func:`_moves_only`) goes to
        :func:`~repro.sim.kernels.gather_permutations` as one gather per
        block, and gate by gate when that declines; amplitudes only move.

        An ``Init`` run that would grow the state to one block or more
        opens a *window*: it and every ``Init``, ``Term``, ``Comment`` and
        basis permutation after it, up to the next other gate, run
        together (:meth:`_run_window`), on the state's support when
        little of the state holds amplitude.  Below one block no gate is
        classified that the loop did not classify before.  A
        :class:`~repro.sim.kernels.Product` (:func:`form_products`) runs
        as one dispatch, after the pending run before it, as any other
        gate does.
        """
        execute = self.execute
        pending: list[Gate] = []  # a run of gates of one type, or a window
        window = False  # whether pending is an open window
        for gate in gates:
            kind = type(gate)
            if window:
                if kind is Init or kind is Term or kind is Comment or (
                    kind is NamedGate and _moves_only(gate)
                ):
                    pending.append(gate)
                    continue
                self._run_window(pending)
                pending, window = [], False
            elif pending and kind is not type(pending[0]):
                self._run_pending(pending)
                pending = []
            if kind is NamedGate:
                if self.data.size > BLOCK_AMPLITUDES and _moves_only(gate):
                    pending.append(gate)
                    continue
                if pending:
                    self._run_pending(pending)
                    pending = []
            elif kind is Init or kind is Term:
                pending.append(gate)
                window = kind is Init and (
                    self.batch << (len(self.axes) + len(pending))
                ) >= BLOCK_AMPLITUDES
                continue
            execute(gate)
        if pending:
            (self._run_window if window else self._run_pending)(pending)

    def _run_window(self, gates: list[Gate]) -> None:
        """One window of :meth:`run`: on the state's support when
        :meth:`_run_on_support` takes it, else as :meth:`run` runs gates
        outside a window (each run of one type at once, permutations
        gathered only past one block)."""
        if self._run_on_support(gates):
            return
        for kind, run in groupby(gates, type):
            run = list(run)
            if kind is Comment or (
                kind is NamedGate and self.data.size <= BLOCK_AMPLITUDES
            ):
                for gate in run:
                    self.execute(gate)
            else:
                self._run_pending(run)

    def _run_on_support(self, gates: list[Gate]) -> bool:
        """Run a window of ``Init``, ``Term``, ``Comment`` and
        :func:`_moves_only` gates on the columns that hold amplitude, or
        return False, having changed nothing.

        The window runs here when it has two or more gates, its live-qubit
        peak exceeds the qubits it starts with, the grown state ``B <<
        peak`` would reach :data:`~repro.sim.kernels.BLOCK_AMPLITUDES`, and
        its support (the columns where some row holds a nonzero byte, so
        ``-0.0`` moves byte for byte) times its gates is at most ``B <<
        peak``.  Each support column keeps one ``int64`` code: the wire at
        axis ``a`` of the ``n``-qubit state is bit ``n - 1 - a``, so a
        code starts as its column; an ``Init`` takes a free bit, set for
        ``|1>``; a permutation flips its target bits on the codes whose
        control bits match; a ``Term`` checks its assertion from the
        carried weights, relative to the weight the Terms before it kept
        (:meth:`remove_qubits_asserted`'s threshold, message and collapse
        check), drops the other codes and clears its bit before freeing
        it.  An ``Init`` of a live wire, a ``Term`` of a dead one, a gate
        on a dead wire or on one wire twice returns False, so the window
        raises (or runs) as gate by gate.  If a Term ran, the kept columns
        are scaled once by ``1/sqrt`` of the weight they keep, unless it
        is exactly 1; then they are scattered into one fresh buffer whose
        axes are the dense path's: the surviving wires in axis order, then
        the surviving ``Init`` wires in order.  Without a ``Term`` these
        are the bytes of the gates one by one.
        """
        n = len(self.axes)
        live = peak = n
        for gate in gates:
            if type(gate) is Init:
                live += 1
                peak = max(peak, live)
            elif type(gate) is Term:
                live -= 1
        size = self.batch << peak
        if (len(gates) < 2 or not n < peak <= _CODE_BITS
                or size < BLOCK_AMPLITUDES):
            return False
        words = self.data.view(np.uint64)
        columns = np.flatnonzero(np.bitwise_or.reduce(
            words[:, 0::2] | words[:, 1::2], axis=0
        ))
        if len(columns) * len(gates) > size:
            return False
        codes = columns.astype(np.int64)
        amps = self.data[:, columns]
        weights = held = None  # each code's weight; the weight kept
        bits = {wire: n - 1 - axis for wire, axis in self.axes.items()}
        order = dict(self.axes)  # each live wire's rank among the outputs
        free: list[int] = []
        rank = n
        for gate in gates:
            kind = type(gate)
            if kind is NamedGate:
                if not _permute_codes(codes, gate, bits):
                    return False
            elif kind is Init:
                if gate.wire in bits:
                    return False
                # Every bit under len(bits) is a live wire's or free.
                bit = free.pop() if free else len(bits)
                bits[gate.wire] = bit
                order[gate.wire] = rank
                rank += 1
                if gate.value:
                    codes |= 1 << bit
            elif kind is Term:
                bit = bits.pop(gate.wire, None)
                if bit is None:
                    return False
                if weights is None:
                    weights = np.square(amps.real) + np.square(amps.imag)
                    total = weights.sum(axis=1)
                    nothing = np.zeros(self.batch)
                good = codes & 1 << bit != 0
                if not gate.value:
                    good = ~good
                if good.all():
                    kept, wrong = total, nothing
                else:
                    kept = weights[:, good].sum(axis=1)
                    wrong = weights[:, ~good].sum(axis=1)
                if held is None:
                    _check_term(gate.wire, gate.value, wrong, kept)
                else:
                    _check_term(gate.wire, gate.value, wrong / held,
                                kept / held)
                held = kept
                if kept is not total:
                    codes, amps = codes[good], amps[:, good]
                    weights, total = weights[:, good], kept
                if gate.value:
                    codes ^= 1 << bit
                free.append(bit)
        survivors = sorted(bits, key=order.__getitem__)
        m = len(survivors)
        index = codes & sum(1 << bits[w] for j, w in enumerate(survivors)
                            if bits[w] == m - 1 - j)  # bits already in place
        for j, wire in enumerate(survivors):
            if bits[wire] != m - 1 - j:
                index |= (codes >> bits[wire] & 1) << (m - 1 - j)
        if held is not None:
            amps = np.ascontiguousarray(amps)
            _rescale(amps, held)
        data = np.zeros((self.batch, 1 << m), dtype=complex)
        data[:, index] = amps
        self.data = data
        self.axes = {wire: j for j, wire in enumerate(survivors)}
        if _obs.ENABLED:
            _obs.add("sim.kernel.support")
            _obs.add("sim.support.gates", len(gates))
            if self.batch > 1:
                _obs.add("sim.batch.gates", len(gates))
        return True

    def _run_pending(self, gates: list[Gate]) -> None:
        """One run of gates of one type, as :meth:`run` groups them."""
        kind = type(gates[0])
        if kind is NamedGate:
            self._run_permutations(gates)
            return
        if len(gates) == 1:
            self.execute(gates[0])
            return
        pairs = [(gate.wire, gate.value) for gate in gates]
        if kind is Init:
            self.add_qubits(pairs)
        else:
            self.remove_qubits_asserted(pairs)
        if _obs.ENABLED:
            _obs.add("sim.init.runs" if kind is Init else "sim.term.runs")
            if self.batch > 1:
                _obs.add("sim.batch.gates", len(gates))

    def _run_permutations(self, gates: list[NamedGate]) -> None:
        """One run of :func:`_moves_only` gates: gathered, or one by one."""
        if len(gates) > 1:
            steps = [
                (
                    gate_kernel(g.name, g.param, g.inverted).data[0],
                    tuple(self.axes[t] for t in g.targets),
                    tuple(
                        (self.axes[c.wire], 1 if c.positive else 0)
                        for c in g.controls
                    ),
                )
                for g in gates
            ]
            if gather_permutations(self.data, steps):
                if _obs.ENABLED:
                    _obs.add("sim.kernel.fused")
                    _obs.add("sim.fused.gates", len(gates))
                    if self.batch > 1:
                        _obs.add("sim.batch.gates", len(gates))
                return
        for gate in gates:
            self.execute(gate)

    def _exec_named(self, gate: NamedGate) -> None:
        resolved = self._split_controls(gate.controls)
        if resolved is None:
            return
        ctrl, mask = resolved
        kernel = named_kernel(gate.name, gate.param, gate.inverted,
                              len(gate.targets))
        target_axes = tuple(self.axes[t] + 1 for t in gate.targets)
        if mask is None:
            apply_kernel(self._view(), kernel, target_axes, ctrl)
            return
        # Mixed classical controls: copy out the satisfying rows, run
        # the kernel on them, scatter the result back.
        view = self._view()
        sub = view[mask]
        apply_kernel(sub, kernel, target_axes, ctrl)
        view[mask] = sub

    def _exec_product(self, product: Product) -> None:
        """A run of small gates as one matrix (:func:`~repro.sim.kernels.
        apply_product`); one by one, to raise as they raise, when one of
        its wires is not live."""
        axes = self.axes
        if not all(wire in axes for wire in product.wires):
            for gate in product.gates:
                self.execute(gate)
            return
        apply_product(self.data, product.matrix(),
                      [axes[wire] for wire in product.wires])
        if _obs.ENABLED:
            _obs.add("sim.kernel.product")
            _obs.add("sim.product.gates", len(product.gates))
            if self.batch > 1:  # execute counted the product once
                _obs.add("sim.batch.gates", len(product.gates) - 1)

    def _exec_comment(self, gate: Comment) -> None:
        return

    def _exec_init(self, gate: Init) -> None:
        self.add_qubits(((gate.wire, gate.value),))

    def _exec_term(self, gate: Term) -> None:
        self.remove_qubits_asserted(((gate.wire, gate.value),))

    def _exec_discard(self, gate: Discard) -> None:
        self.measure_qubit(gate.wire)  # trace out by sampling

    def _exec_measure(self, gate: Measure) -> None:
        self.bits[gate.wire] = self.measure_qubit(gate.wire)

    def _exec_cinit(self, gate: CInit) -> None:
        self.set_bit(gate.wire, gate.value)

    def _exec_cterm(self, gate: CTerm) -> None:
        if (self.bits.pop(gate.wire) != gate.value).any():
            raise AssertionFailedError(
                f"classical wire {gate.wire} terminated with wrong value"
            )

    def _exec_cdiscard(self, gate: CDiscard) -> None:
        self.bits.pop(gate.wire)

    def _exec_cgate(self, gate: CGate) -> None:
        # (k, batch) even for k == 0, where the reductions give their
        # identities, as all(), any() and sum() do over no inputs.
        inputs = np.array(
            [self.bits[w] for w in gate.inputs], dtype=bool
        ).reshape(-1, self.batch)
        value = _CLASSICAL_VECTOR_FUNCTIONS[gate.name](inputs)
        if gate.uncompute:
            if (self.bits.pop(gate.target) != value).any():
                raise AssertionFailedError(
                    f"CGate* uncompute mismatch on wire {gate.target}"
                )
        else:
            self.bits[gate.target] = value

    def _exec_cnot(self, gate: CNot) -> None:
        satisfied = np.ones(self.batch, dtype=bool)
        for c in gate.controls:
            if c.wire_type == QUANTUM:
                _refuse_qubit_control()
            else:
                satisfied &= self.bits[c.wire] == c.positive
        current = self.bits[gate.wire]
        self.bits[gate.wire] = np.where(satisfied, ~current, current)

    def _exec_boxcall(self, gate: BoxCall) -> None:
        raise SimulationError(
            "BoxCall reached the simulator; inline the circuit first"
        )

    def basis_probabilities(self, wires: list[int]) -> dict[tuple[int, ...], float]:
        """Probability of each computational-basis outcome on *wires*."""
        if self.batch > 1:
            raise SimulationError(
                "basis_probabilities is defined on a single state; "
                "run with batch=1 to inspect amplitudes"
            )
        state = self.state
        order = [self.axes[w] for w in wires]
        probs = np.abs(state) ** 2
        other = [a for a in range(state.ndim) if a not in order]
        marginal = probs.sum(axis=tuple(other)) if other else probs
        marginal = np.moveaxis(
            marginal, [sorted(order).index(a) for a in order], range(len(order))
        )
        result: dict[tuple[int, ...], float] = {}
        for idx in np.ndindex(*([2] * len(wires))):
            p = float(marginal[idx])
            if p > 1e-12:
                result[idx] = p
        return result


def _check_term(wire: int, value, wrong: np.ndarray,
                share: np.ndarray) -> None:
    """A ``Term``'s checks, given each row's weight on the wire's wrong
    value and the share it keeps, both relative to the weight the Terms
    before it in the same pass kept: the assertion (amplitude 1e-6),
    then the collapse."""
    if math.sqrt(float(wrong.max())) > 1e-6:
        raise AssertionFailedError(
            f"qubit {wire} terminated with assertion |{int(value)}> "
            "but has nonzero amplitude in the other basis state"
        )
    if math.sqrt(float(share.min())) < _TOLERANCE:
        raise SimulationError("a batch member collapsed to zero norm")


def _rescale(data: np.ndarray, held: np.ndarray) -> None:
    """Scale each row of *data* in place by one over the square root of
    its kept weight in *held*, unless every weight is exactly 1."""
    if (held != 1.0).any():
        floats = data.view(np.float64)
        floats *= (1.0 / np.sqrt(held))[:, None]


#: Bits in a support code: one per live wire of a window, which keeps
#: an ``int64`` code non-negative.
_CODE_BITS = 63


@lru_cache(maxsize=4096)
def _unit_moves(name: str, param: float | None,
                inverted: bool) -> tuple[int, ...] | None:
    """For a named gate whose kernel is a permutation with unit phases,
    the xor that takes each target pattern to its new pattern (amplitudes
    move as ``new[j] = old[perm[j]]``), else None.

    Cached per ``(name, param, inverted)``, as :func:`~repro.sim.kernels.
    gate_kernel` is, so classifying a gate costs one lookup.
    """
    kernel = gate_kernel(name, param, inverted)
    if kernel.kind != PERMUTE or any(p != 1 for p in kernel.data[1]):
        return None
    moves = [0] * len(kernel.data[0])
    for new, old in enumerate(kernel.data[0]):
        moves[old] = old ^ new
    return tuple(moves)


_obs.register_cache("sim.unit_moves", _unit_moves)


def _spread(pattern: int, places: list[int]) -> int:
    """The code bits a target pattern selects: its most significant bit
    is the first target's."""
    return sum(place for i, place in enumerate(reversed(places))
               if pattern >> i & 1)


def _permute_codes(codes: np.ndarray, gate: NamedGate,
                   bits: dict[int, int]) -> bool:
    """Apply a :func:`_moves_only` *gate* to support codes in place.

    *bits* maps each live wire to its code bit.  The gate flips its
    target bits on the codes whose control bits match: one masked xor
    when every target pattern moves by the same xor (an X on each
    flipped target), else each code's pattern is read and moved through
    the kernel's inverse table.  Returns False, having changed nothing,
    when a wire of the gate is not live or appears twice.
    """
    try:
        places = [1 << bits[t] for t in gate.targets]  # first target first
        controls = [1 << bits[c.wire] for c in gate.controls]
    except KeyError:
        return False
    if len({*places, *controls}) < len(places) + len(controls):
        return False
    mask = sum(controls)
    want = sum(bit for bit, c in zip(controls, gate.controls) if c.positive)
    moves = _unit_moves(gate.name, gate.param, gate.inverted)
    if moves.count(moves[0]) == len(moves):
        flip = _spread(moves[0], places)
        if mask:
            np.bitwise_xor(codes, flip, out=codes, where=codes & mask == want)
        else:
            codes ^= flip
        return True
    pattern = np.zeros_like(codes)
    for bit in places:
        pattern <<= 1
        pattern |= codes & bit != 0
    flip = np.array([_spread(d, places) for d in moves])[pattern]
    if mask:
        flip[codes & mask != want] = 0
    codes ^= flip
    return True


def _moves_only(gate: NamedGate) -> bool:
    """Whether *gate* only moves amplitudes: a ``PERMUTE`` kernel of
    matching arity with unit phases, under quantum controls alone."""
    for control in gate.controls:
        if control.wire_type != QUANTUM:
            return False
    moves = _unit_moves(gate.name, gate.param, gate.inverted)
    return moves is not None and len(moves) == 1 << len(gate.targets)


def form_products(gates: list[Gate], live: int) -> list:
    """*gates* with each long run of small gates below one block as one
    :class:`~repro.sim.kernels.Product`.

    *gates* is a deterministic prefix (no ``Measure`` or ``Discard``)
    that starts on *live* qubits; each ``Init`` adds one and each
    ``Term`` removes one.  A run is a greedy maximal sequence of
    consecutive ``NamedGate``\\ s under quantum controls alone whose wires,
    targets and controls together, number at most
    :data:`~repro.sim.kernels.PRODUCT_WIRES`: a gate that would add one
    more closes the run and starts the next.  Any other gate closes it.
    Runs form only while a one-row state is below one block (``1 <<
    live < BLOCK_AMPLITUDES``), and a run of fewer than
    :data:`~repro.sim.kernels.PRODUCT_MIN_GATES` gates stays gates.
    Returns *gates* itself when no product forms.

    The scan reads only each gate's class, except in stretches of
    enough consecutive named gates below one block (:func:`_runs`).
    """
    runs = []  # (first, end, wires) of each run that becomes a product
    first = 0  # the first gate of the current stretch of named gates
    small = 1 << live < BLOCK_AMPLITUDES
    for i, gate in enumerate(gates):
        kind = gate.__class__
        if kind is NamedGate and small:
            continue
        if i - first >= PRODUCT_MIN_GATES:
            runs += _runs(gates, first, i)
        first = i + 1
        if kind is Init or kind is Term:
            live += 1 if kind is Init else -1
            small = 1 << live < BLOCK_AMPLITUDES
    if len(gates) - first >= PRODUCT_MIN_GATES:
        runs += _runs(gates, first, len(gates))
    if not runs:
        return gates
    formed, done = [], 0
    for first, end, wires in runs:
        formed += gates[done:first]
        formed.append(Product(gates[first:end], wires))
        done = end
    formed += gates[done:]
    return formed


def _runs(gates: list[Gate], first: int, end: int) -> list:
    """The runs of :func:`form_products` in ``gates[first:end]``, named
    gates all, that hold enough gates, as ``(first, end, wires)``."""
    found = []
    wires = ()
    for i in range(first, end):
        gate = gates[i]
        own = ()  # the gate's wires, controls first; None if it closes
        for control in gate.controls:
            if control.wire_type != QUANTUM:
                own = None
                break
            if control.wire not in own:
                own += (control.wire,)
        if own is not None:
            for target in gate.targets:
                if target not in own:
                    own += (target,)
            joined = wires
            for wire in own:
                if wire not in joined:
                    joined += (wire,)
            if len(joined) <= PRODUCT_WIRES:
                wires = joined
                continue
            if len(own) > PRODUCT_WIRES:
                own = None
        if i - first >= PRODUCT_MIN_GATES:
            found.append((first, i, wires))
        first, wires = (i + 1, ()) if own is None else (i, own)
        if end - first < PRODUCT_MIN_GATES:
            return found
    if end - first >= PRODUCT_MIN_GATES:
        found.append((first, end, wires))
    return found


#: Precomputed type-dispatch table replacing the per-gate isinstance chain.
_DISPATCH: dict[type, object] = {
    NamedGate: StateVector._exec_named,
    Product: StateVector._exec_product,
    Comment: StateVector._exec_comment,
    Init: StateVector._exec_init,
    Term: StateVector._exec_term,
    Discard: StateVector._exec_discard,
    Measure: StateVector._exec_measure,
    CInit: StateVector._exec_cinit,
    CTerm: StateVector._exec_cterm,
    CDiscard: StateVector._exec_cdiscard,
    CGate: StateVector._exec_cgate,
    CNot: StateVector._exec_cnot,
    BoxCall: StateVector._exec_boxcall,
}


class LegacyStateVector:
    """The original ``(2,)*n`` moveaxis + matmul engine, kept verbatim.

    This is the reference implementation the flat kernel engine is pinned
    against (tests/test_kernels.py, tests/test_batched.py) and benchmarked
    over (benchmarks/test_kernel_throughput.py).  Do not optimize it.
    """

    #: Legacy states are never batched (basis_probabilities is shared).
    batch = 1

    def __init__(self, rng: np.random.Generator | None = None):
        self.state = np.ones((), dtype=complex)  # zero qubits: amplitude 1
        self.axes: dict[int, int] = {}  # wire id -> axis index
        self.bits: dict[int, bool] = {}
        self.rng = rng if rng is not None else np.random.default_rng()

    @property
    def num_qubits(self) -> int:
        return len(self.axes)

    def add_qubit(self, wire: int, value: bool) -> None:
        if wire in self.axes:
            raise SimulationError(f"qubit {wire} already allocated")
        basis = np.zeros(2, dtype=complex)
        basis[int(value)] = 1.0
        self.state = np.tensordot(self.state, basis, axes=0)
        self.axes[wire] = self.state.ndim - 1

    def _remove_axis(self, wire: int, keep_index: int) -> None:
        axis = self.axes.pop(wire)
        self.state = np.take(self.state, keep_index, axis=axis)
        for other, other_axis in self.axes.items():
            if other_axis > axis:
                self.axes[other] = other_axis - 1

    def remove_qubit_asserted(self, wire: int, value: bool) -> None:
        axis = self.axes[wire]
        wrong = np.take(self.state, 1 - int(value), axis=axis)
        if math.sqrt(float(np.sum(np.abs(wrong) ** 2))) > 1e-6:
            raise AssertionFailedError(
                f"qubit {wire} terminated with assertion |{int(value)}> "
                "but has nonzero amplitude in the other basis state"
            )
        self._remove_axis(wire, int(value))
        self._renormalize()

    def measure_qubit(self, wire: int) -> bool:
        axis = self.axes[wire]
        ones = np.take(self.state, 1, axis=axis)
        p_one = float(np.sum(np.abs(ones) ** 2))
        total = float(np.sum(np.abs(self.state) ** 2))
        outcome = bool(self.rng.random() < p_one / total)
        self._remove_axis(wire, int(outcome))
        self._renormalize()
        return outcome

    def _renormalize(self) -> None:
        norm = math.sqrt(float(np.sum(np.abs(self.state) ** 2)))
        if norm < _TOLERANCE:
            raise SimulationError("state collapsed to zero norm")
        self.state = self.state / norm

    def _control_slice(
        self, controls: tuple[Control, ...]
    ) -> tuple | None:
        index: list = [slice(None)] * self.state.ndim
        for ctl in controls:
            if ctl.wire_type == QUANTUM:
                index[self.axes[ctl.wire]] = 1 if ctl.positive else 0
            else:
                if self.bits[ctl.wire] != ctl.positive:
                    return None
        return tuple(index)

    def apply_unitary(
        self,
        matrix: np.ndarray,
        targets: tuple[int, ...],
        controls: tuple[Control, ...] = (),
    ) -> None:
        index = self._control_slice(controls)
        if index is None:
            return
        if not targets:  # global phase
            self.state[index] = self.state[index] * matrix[0, 0]
            return
        view = self.state[index]
        # Axis positions of the targets inside the sliced view: each integer-
        # indexed (control) axis before a target shifts it left by one.
        control_axes = sorted(
            self.axes[c.wire] for c in controls if c.wire_type == QUANTUM
        )
        view_axes = []
        for target in targets:
            axis = self.axes[target]
            shift = sum(1 for c in control_axes if c < axis)
            view_axes.append(axis - shift)
        k = len(targets)
        moved = np.moveaxis(view, view_axes, range(k))
        tail = moved.shape[k:]
        flat = moved.reshape(2 ** k, -1)
        result = (matrix @ flat).reshape((2,) * k + tail)
        self.state[index] = np.moveaxis(result, range(k), view_axes)

    def execute(self, gate: Gate) -> None:
        """Execute one (box-free) gate (the original isinstance chain)."""
        if isinstance(gate, Comment):
            return
        if isinstance(gate, NamedGate):
            self.apply_unitary(gate_matrix(gate), gate.targets, gate.controls)
            return
        if isinstance(gate, Init):
            self.add_qubit(gate.wire, gate.value)
            return
        if isinstance(gate, Term):
            self.remove_qubit_asserted(gate.wire, gate.value)
            return
        if isinstance(gate, Discard):
            self.measure_qubit(gate.wire)  # trace out by sampling
            return
        if isinstance(gate, Measure):
            self.bits[gate.wire] = self.measure_qubit(gate.wire)
            return
        if isinstance(gate, CInit):
            self.bits[gate.wire] = gate.value
            return
        if isinstance(gate, CTerm):
            if self.bits.pop(gate.wire) != gate.value:
                raise AssertionFailedError(
                    f"classical wire {gate.wire} terminated with wrong value"
                )
            return
        if isinstance(gate, CDiscard):
            self.bits.pop(gate.wire)
            return
        if isinstance(gate, CGate):
            inputs = [self.bits[w] for w in gate.inputs]
            value = _CLASSICAL_FUNCTIONS[gate.name](inputs)
            if gate.uncompute:
                if self.bits.pop(gate.target) != value:
                    raise AssertionFailedError(
                        f"CGate* uncompute mismatch on wire {gate.target}"
                    )
            else:
                self.bits[gate.target] = value
            return
        if isinstance(gate, CNot):
            # A qubit control is refused whatever the bits read.
            if any(c.wire_type == QUANTUM for c in gate.controls):
                _refuse_qubit_control()
            if all(self.bits[c.wire] == c.positive for c in gate.controls):
                self.bits[gate.wire] = not self.bits[gate.wire]
            return
        if isinstance(gate, BoxCall):
            raise SimulationError(
                "BoxCall reached the simulator; inline the circuit first"
            )
        raise SimulationError(f"cannot simulate gate {gate!r}")

    basis_probabilities = StateVector.basis_probabilities


def simulate(bc: BCircuit, in_values: dict[int, bool] | None = None,
             rng: np.random.Generator | None = None,
             batch: int = 1) -> StateVector:
    """Simulate a circuit hierarchy from computational-basis inputs.

    ``in_values`` maps input wire ids to initial basis values (default all
    False).  Returns the final :class:`StateVector` (outputs unmeasured).
    ``batch`` runs that many lockstep copies of the circuit in one pass --
    identical until measurement, then collapsing member by member.

    This is a single pass, so the hierarchy is *streamed* lazily -- a
    circuit whose inlined gate list would not fit in memory still
    simulates (the backends' shot samplers, which replay gates, go
    through the materialized :func:`~repro.transform.inline.compile_flat`
    stream instead).  Only a window that grows the state to one block
    (:meth:`StateVector.run`) is held until it closes, so that it can
    run on the state's support.
    """
    from ..transform.inline import iter_flat_gates

    sim = StateVector(rng=rng, batch=batch)
    sim.load_inputs(bc.circuit.inputs, in_values or {})
    sim.run(iter_flat_gates(bc))
    return sim
