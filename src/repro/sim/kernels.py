"""Bit-indexed statevector kernels over a flat, batched amplitude array.

The legacy dense engine paid moveaxis + reshape + matmul round trips that
copied the whole ``(2,)*n`` state several times per gate.  This module is
the replacement hot path: the state lives in ONE contiguous
``(B, 2**n)`` complex buffer (``B`` simulated states advancing in
lockstep -- shots, or parameter bindings), ``reshape((B,) + (2,) * n)``
of which is a free view, and every gate mutates strided sub-views of
that buffer in place.  Kernels never index the batch axis: every slot
they build leaves axis 0 as a full slice, so ONE dispatch advances all
``B`` members -- the manyQ idiom that turns per-shot Python/numpy
dispatch overhead into a single vectorized operation.

Kernels use only strided views, elementwise arithmetic and slice
assignment on the buffer they are handed; numpy itself appears below
only to classify gate matrices, and to multiply the small matrices of
products.

Gates are classified once per ``(name, param, inverted)`` key (LRU) by the
*structure* of their cached matrix:

* **diagonal** (Z, S, T, Rz, ``R(2pi/%)``, ``exp(-i%Z)``, ``exp(-i%ZZ)``,
  and their inverses) -- an in-place elementwise multiply on the index mask
  of each target-bit pattern, skipping unit entries.  A T gate touches only
  the half of the state where its target bit is 1: zero matmuls, zero
  copies.
* **permutation-with-phases** (X/not, iX, Y, swap, CNOT/Toffoli via
  controls) -- slice exchanges along the permutation's cycles, one
  sub-block temporary, zero matmuls.
* **dense** (H, V, E, W, Rx, Ry, ...) -- the residual general case: the
  ``2**k`` target slices are linearly combined per the matrix rows and
  written back, skipping zero entries.  Still no moveaxis and no
  full-state copy; a one-target gate is combined in place, with at most
  two half-state temporaries.

Quantum controls are handled by kernel-level index masking: control axes
are pinned to their required bit value in the index tuple, so every kernel
runs on the control-satisfied subspace view directly instead of copying it
out and back via fancy-index slice assignment.

A gate is thus classified once per ``(name, param, inverted)`` and gets
its slots once per ``(ndim, targets, controls)``: :func:`_slots` keeps
the index tuples of each gate shape (LRU), since a circuit meets few
shapes many times.

A run of basis permutations -- permutation kernels with unit phases under
quantum controls: X, CNOT, Toffoli, swap, Fredkin -- can instead move
every amplitude once: :func:`gather_permutations` composes the run on a
small table of offsets, by applying the permutation kernel to the table,
and gathers the state block by block through it.  Reversible arithmetic
(the paper's lifted classical oracles) is mostly such runs.

A run of ``Term`` gates (the uncomputed ancillas of ``with_computed``)
checks every assertion from one reduction: :func:`pattern_weights` gives
each member's weight on every pattern of the terminated wires' bits.

A long run of named gates on at most :data:`PRODUCT_WIRES` wires can
instead be one :class:`Product`: its ``2**k`` matrix, composed once from
each gate's kernel applied to an identity (:func:`_embedding`), is
applied by one matmul over the state (:func:`apply_product`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from ..core.errors import SimulationError
from ..obs import core as _obs
from .matrices import gate_matrix_cached

#: Kernel kinds (see module docstring).
DIAGONAL = "diagonal"
PERMUTE = "permute"
DENSE = "dense"
PHASE = "phase"

_ATOL = 1e-12

#: Amplitudes, across the batch, in one block.  A state this small runs
#: gate by gate, and a fused permutation run gathers at most this many
#: amplitudes at a time (:func:`gather_permutations`); the backend also
#: sizes auto fork batches to it.
BLOCK_AMPLITUDES = 1 << 16

#: The gather's preferred block: index, block and temporary together
#: stay inside a 2 MiB L2 cache (see ``docs/performance.md``).
GATHER_AMPLITUDES = 1 << 14

#: A run is gathered only when its gates, one by one, would move at least
#: this many states' worth of amplitudes, as many as the gather moves
#: (each gate moves the share of its control subspace that its
#: permutation does not fix: 1/4 of the state for a Toffoli).
GATHER_MIN_MOVED = 1.0

#: The most innermost qubit axes :func:`pattern_weights` keeps whole as
#: one output dimension: 2**13 floats with the real/imaginary pair, past
#: which the block costs more than summing the axes it would hold
#: (``docs/performance.md``).
WEIGHT_BLOCK_AXES = 12

#: The most wires (targets and quantum controls) a :class:`Product`
#: spans, and the fewest gates it holds ("Small-gate products" in
#: ``docs/performance.md``): a run of 16 about breaks even with its
#: gates one by one, and four wires ran ``gse`` slower than three.
PRODUCT_WIRES = 3
PRODUCT_MIN_GATES = 16

#: Embeddings a product multiplies per stacked step (64 KiB at three
#: wires), which bounds its temporaries however long the run.
PRODUCT_CHUNK = 64

#: Complex multiply-adds per matrix in one matmul call of
#: :func:`apply_product`: the state's rows go in stacks of this many
#: over ``4**k``, as one call over every row ran up to 100x slower in
#: the BLAS library's threaded path (``docs/performance.md``).
PRODUCT_MATMUL_MACS = 1 << 15


class Kernel(NamedTuple):
    """A compiled gate kernel: dispatch kind, target arity, and payload.

    ``data`` is kind-specific: the diagonal entries for ``DIAGONAL``, a
    ``(permutation, phases)`` pair for ``PERMUTE``, the (read-only) matrix
    for ``DENSE``, and the scalar for ``PHASE``.
    """

    kind: str
    arity: int
    data: tuple


@lru_cache(maxsize=4096)
def gate_kernel(name: str, param: float | None, inverted: bool) -> Kernel:
    """Classify a named gate into its specialized kernel (cached).

    Classification inspects the matrix structure rather than the gate name,
    so parametrised and inverted forms are routed correctly for free: an
    ``Rz`` is diagonal at any angle, ``Y`` and ``iX*`` are phase-carrying
    bit flips, and anything without special structure falls through to the
    dense kernel.
    """
    matrix = gate_matrix_cached(name, param, inverted)
    dim = matrix.shape[0]
    if dim == 1:
        return Kernel(PHASE, 0, (complex(matrix[0, 0]),))
    arity = dim.bit_length() - 1
    if np.all(np.abs(matrix - np.diag(np.diag(matrix))) <= _ATOL):
        return Kernel(
            DIAGONAL, arity, tuple(complex(x) for x in np.diag(matrix))
        )
    nonzero = np.abs(matrix) > _ATOL
    if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
        # new[j] = phases[j] * old[perm[j]] over target-bit patterns j.
        perm = tuple(int(np.nonzero(row)[0][0]) for row in nonzero)
        phases = tuple(complex(matrix[j, perm[j]]) for j in range(dim))
        return Kernel(PERMUTE, arity, (perm, phases))
    return Kernel(DENSE, arity, (matrix,))


_obs.register_cache("sim.gate_kernel", gate_kernel)


def named_kernel(name: str, param: float | None, inverted: bool,
                 targets: int) -> Kernel:
    """:func:`gate_kernel` of a gate on *targets* targets, refused when
    its matrix acts on another number of them."""
    kernel = gate_kernel(name, param, inverted)
    if kernel.arity != targets:
        raise SimulationError(
            f"gate {name!r} expects {kernel.arity} target(s), got {targets}"
        )
    return kernel


def _subindex(
    ndim: int, fixed: tuple[tuple[int, int], ...]
) -> tuple:
    """An n-dim index pinning each (axis, bit) in *fixed*, slicing the rest.

    Basic indexing with this tuple yields a strided *view* -- the core trick
    of the flat engine: kernels mutate these views in place.
    """
    index: list = [slice(None)] * ndim
    for axis, value in fixed:
        index[axis] = value
    return tuple(index)


def _pattern_bits(pattern: int, arity: int) -> tuple[int, ...]:
    """Bits of a target pattern, first target most significant (the
    matrix convention of :mod:`repro.sim.matrices`)."""
    return tuple((pattern >> (arity - 1 - i)) & 1 for i in range(arity))


@lru_cache(maxsize=4096)
def _slots(
    ndim: int,
    target_axes: tuple[int, ...],
    ctrl: tuple[tuple[int, int], ...],
) -> tuple[tuple, ...]:
    """The :func:`_subindex` of every target-bit pattern, in pattern
    order, with the control axes pinned (cached per shape).

    A circuit applies few distinct ``(ndim, target_axes, ctrl)`` shapes
    many times each, so every kernel, the offset tables of
    :func:`gather_permutations` and ``StateVector``'s explicit matrices
    read their index tuples from this one memo.  The table is a tuple of
    tuples, so no caller can change what another reads.  With no
    targets it is one slot, the control subspace.
    """
    arity = len(target_axes)
    return tuple(
        _subindex(ndim, ctrl + tuple(zip(target_axes, _pattern_bits(j, arity))))
        for j in range(1 << arity)
    )


_obs.register_cache("sim.slots", _slots)


def apply_kernel(
    view: np.ndarray,
    kernel: Kernel,
    target_axes: tuple[int, ...],
    ctrl: tuple[tuple[int, int], ...] = (),
) -> None:
    """Apply a compiled kernel in place on the ``(2,)*n`` state view.

    ``ctrl`` pins quantum-control axes to their required bit values (1 for
    a positive control, 0 for a negative one); classical controls must be
    resolved by the caller before reaching the kernel layer.
    """
    if _obs.ENABLED:
        _obs.add("sim.kernel." + kernel.kind)
        if ctrl:
            _obs.add("sim.kernel.controlled")
    _apply(view, kernel, target_axes, ctrl)


def _apply(view, kernel, target_axes, ctrl) -> None:
    """:func:`apply_kernel` without its telemetry."""
    if kernel.kind == PHASE:
        view[_slots(view.ndim, (), ctrl)[0]] *= kernel.data[0]
        return
    slots = _slots(view.ndim, target_axes, ctrl)
    if kernel.kind == DIAGONAL:
        for slot, entry in zip(slots, kernel.data):
            if entry != 1.0:
                view[slot] *= entry
        return
    if kernel.kind == PERMUTE:
        _apply_permutation(view, slots, *kernel.data)
        return
    _apply_dense(view, slots, kernel.data[0])


def _apply_permutation(view, slots, perm, phases) -> None:
    """Exchange target slices along the permutation's cycles.

    Each cycle is walked with a single sub-block temporary; fixed points
    reduce to phase multiplies (or nothing).
    """
    done = [False] * len(perm)
    for start in range(len(perm)):
        if done[start]:
            continue
        cycle = [start]
        done[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            done[nxt] = True
            nxt = perm[nxt]
        if len(cycle) == 1:
            if phases[start] != 1.0:
                view[slots[start]] *= phases[start]
            continue
        saved = view[slots[cycle[0]]].copy()
        for pattern in cycle:
            source_pattern = perm[pattern]
            source = (
                saved if source_pattern == cycle[0]
                else view[slots[source_pattern]]
            )
            phase = phases[pattern]
            view[slots[pattern]] = source if phase == 1.0 else source * phase


def _offsets(strides) -> np.ndarray:
    """The flat offset of every bit pattern over axes of these strides,
    the first axis most significant (C order)."""
    table = np.zeros(1, dtype=np.intp)
    for stride in strides:
        table = np.add.outer(table, (0, stride)).ravel()
    return table


def gather_permutations(data: np.ndarray, steps) -> bool:
    """Apply a run of basis permutations to ``data`` as one gather per block.

    ``data`` is the ``(B, 2**n)`` buffer.  Each step is ``(perm, targets,
    ctrl)``: the permutation of a ``PERMUTE`` kernel whose phases are all
    one, its target axes and its quantum controls as ``(axis, bit)``
    pairs, axes counted from the outermost qubit (no batch axis).

    Blocks span the innermost axes, at least every axis a step flips, so
    the outer axes pick a block and no amplitude leaves its block.  The
    run's permutation is composed by :func:`_apply_permutation` itself on
    a small table of offsets over the block axes the run touches (a
    composed gather of gathers is the gather of the run); a control on an
    outer axis selects which steps enter the table of the blocks it
    picks.  Each block with a non-identity table is then gathered
    through one reusable block-sized temporary and written back.

    Returns False, having changed nothing, when the run should go gate
    by gate: a flipped axis lies outside a block of
    :data:`BLOCK_AMPLITUDES`, or the run moves less than
    :data:`GATHER_MIN_MOVED` states' worth of amplitudes.
    """
    batch, size = data.shape
    n = size.bit_length() - 1
    first = min(axis for _, targets, _ in steps for axis in targets)
    if batch << (n - first) > BLOCK_AMPLITUDES:
        return False
    moved = sum(
        sum(j != p for j, p in enumerate(perm)) / len(perm) / (1 << len(ctrl))
        for perm, _, ctrl in steps
    )
    if moved < GATHER_MIN_MOVED:
        return False
    inner = max(n - first, (GATHER_AMPLITUDES // batch).bit_length() - 1)
    outer = n - inner
    touched = sorted(
        {axis for _, targets, _ in steps for axis in targets}
        | {axis for _, _, ctrl in steps for axis, _ in ctrl if axis >= outer}
    )
    selectors = sorted(
        {axis for _, _, ctrl in steps for axis, _ in ctrl if axis < outer}
    )
    position = {axis: i for i, axis in enumerate(touched)}
    stride = [1 << (n - 1 - axis) for axis in range(n)]
    identity = _offsets([stride[a] for a in touched])
    untouched = [a for a in range(outer, n) if a not in position]
    rest = _offsets([stride[a] for a in untouched]).reshape(
        [1 if a in position else 2 for a in range(outer, n)]
    )
    table_shape = [2 if a in position else 1 for a in range(outer, n)]
    starts = _offsets([stride[a] for a in range(outer) if a not in selectors])
    length = 1 << inner
    temporary = np.empty((batch, length), dtype=data.dtype)
    for bits in product((0, 1), repeat=len(selectors)):
        chosen = dict(zip(selectors, bits))
        table = identity.reshape((2,) * len(touched)).copy()
        for perm, targets, ctrl in steps:
            if any(chosen.get(axis, bit) != bit for axis, bit in ctrl):
                continue
            slots = _slots(
                table.ndim,
                tuple(position[t] for t in targets),
                tuple((position[a], bit) for a, bit in ctrl if a >= outer),
            )
            _apply_permutation(table, slots, perm, (1,) * len(perm))
        if np.array_equal(table.ravel(), identity):
            continue
        index = (table.reshape(table_shape) + rest).ravel()
        base = sum(stride[axis] for axis, bit in chosen.items() if bit)
        for start in (base + starts).tolist():
            block = data[:, start:start + length]
            np.take(block, index, axis=1, out=temporary)
            block[...] = temporary
    return True


def pattern_weights(data: np.ndarray, axes) -> np.ndarray:
    """Each member's squared amplitude mass on every pattern of the bits
    on *axes*, in one reduction over ``data``.

    ``data`` is the ``(B, 2**n)`` buffer and *axes* are distinct qubit
    axes counted from the outermost (no batch axis).  Returns a ``(B,) +
    (2,) * k`` array whose axis ``j + 1`` is the bit of ``axes[j]``.

    One ``einsum`` reads the buffer as floats, real and imaginary parts
    side by side, and sums their squares with no temporary
    (:func:`_weights_plan` lays it out).
    """
    batch, size = data.shape
    shape, operand, output, block, summed, transpose = _weights_plan(
        batch, size.bit_length() - 1, tuple(axes)
    )
    floats = data.view(np.float64).reshape(shape)
    weights = np.einsum(floats, operand, floats, operand, output)
    if summed:
        weights = weights.reshape(block).sum(axis=summed)
    return weights.transpose(transpose) if transpose else weights


@lru_cache(maxsize=1024)
def _weights_plan(batch: int, n: int, axes: tuple[int, ...]):
    """How :func:`pattern_weights` reduces *axes* of a ``(batch, 2**n)``
    buffer: the float view's shape, the ``einsum`` operand and output
    subscripts, the block's split shape and summed axes, and the
    transpose into the order of *axes* (empty when already in order).

    The innermost axes, down to the outermost of *axes* that lies within
    :data:`WEIGHT_BLOCK_AXES` of the end and at least three, stay whole
    with the real/imaginary pair as one output dimension, summed after;
    each axis outside that block is an output dimension of its own.  So
    the innermost loop runs over at least 16 floats, whichever the axes.
    """
    order = sorted(axes)
    spans = [n - a for a in order if n - a <= WEIGHT_BLOCK_AXES]
    inner = min(n, max(spans + [3])) if spans else 0  # the block's axes
    # (B, A0, 2, A1, 2, ..., rest): one 2 per axis outside the block.
    shape, operand, output = [batch], [0], [0]
    start = 0
    for axis in order:
        if axis >= n - inner:
            break
        shape += [1 << (axis - start), 2]
        operand += [len(shape) - 2, len(shape) - 1]
        output.append(len(shape) - 1)
        start = axis + 1
    block, summed = (), ()
    if inner:
        shape += [1 << (n - inner - start), 2 << inner]
        operand += [len(shape) - 2, len(shape) - 1]
        output.append(len(shape) - 1)
        block = (batch,) + (2,) * (len(output) - 2 + inner + 1)
        summed = tuple(
            len(output) - 1 + i
            for i, axis in enumerate(range(n - inner, n + 1))
            if axis not in axes
        )
    else:
        shape.append(2 << (n - start))
        operand.append(len(shape) - 1)
    transpose = ()
    if order != list(axes):
        transpose = (0,) + tuple(1 + order.index(a) for a in axes)
    return (tuple(shape), tuple(operand), tuple(output), block, summed,
            transpose)


def _apply_dense(view, slots, matrix) -> None:
    """General k-qubit unitary: linearly combine the target slices.

    Reads every (control-masked) slice, forms each output row as a fresh
    sub-block, then writes all rows back -- correct even though rows share
    sources, because nothing is overwritten until every row is computed.
    One target takes the in-place path of :func:`_apply_dense_1q`.
    """
    dim = len(slots)
    if dim == 2:
        _apply_dense_1q(view[slots[0]], view[slots[1]], matrix)
        return
    olds = [view[slot] for slot in slots]
    news = []
    for row in range(dim):
        acc = None
        for col in range(dim):
            coeff = matrix[row, col]
            if abs(coeff) <= _ATOL:
                continue
            if acc is None:
                acc = olds[col] * coeff
            else:
                acc += olds[col] * coeff
        news.append(acc)
    for slot, new in zip(slots, news):
        view[slot] = new if new is not None else 0.0


def _apply_dense_1q(s0, s1, matrix) -> None:
    """One-target dense unitary, updated in place on its two slices.

    ``s0``/``s1`` are the slices where the target bit is 0/1.  Rows are
    updated in place where the matrix allows, with at most two sub-block
    temporaries, where the general path makes one per matrix entry and
    copies every row back.  A butterfly matrix ``[[a, a], [c, -c]]``
    (Hadamard) combines sum and difference, with one temporary.
    Entries within ``_ATOL`` of zero are skipped, as in the general path.
    """
    a, b, c, d = (
        0 if abs(x) <= _ATOL else x
        for x in (matrix[0, 0], matrix[0, 1], matrix[1, 0], matrix[1, 1])
    )
    if a and c and b == a and d == -c:
        t = s0 - s1
        s0 += s1
        s0 *= a
        t *= c
        s1[...] = t
        return
    t = s0 * c if c else None  # the old s0's share of the new s1
    if a:
        s0 *= a
        if b:
            s0 += s1 * b
    else:
        s0[...] = s1 * b if b else 0.0
    if d:
        s1 *= d
        if t is not None:
            s1 += t
    else:
        s1[...] = t if t is not None else 0.0


class Product:
    """A run of named gates on at most :data:`PRODUCT_WIRES` wires, run
    as one ``2**k`` matrix on them.

    ``gates`` are the run's gates in order and ``wires`` its wires in
    slot order, slot 0 the most significant bit of a matrix index (as
    the first target is in :mod:`repro.sim.matrices`).  The matrix is
    composed on first use (:meth:`matrix`) and kept, so a product formed
    once per compiled circuit composes once.
    """

    __slots__ = ("gates", "wires", "_matrix")

    def __init__(self, gates, wires):
        self.gates = tuple(gates)
        self.wires = tuple(wires)
        self._matrix = None

    def matrix(self) -> np.ndarray:
        """The product's matrix (composed on the first call)."""
        if self._matrix is None:
            self._matrix = compose_product(self.gates, self.wires)
        return self._matrix


@lru_cache(maxsize=1024)
def _embedding(name: str, param: float | None, inverted: bool,
               targets: tuple[int, ...], controls: tuple[tuple[int, int], ...],
               k: int) -> np.ndarray:
    """One gate's ``2**k`` matrix on a product's slots (cached, read-only).

    *targets* are slots and *controls* ``(slot, bit)`` pairs.  The
    gate's kernel is applied to the rows of an identity, so row ``j``
    becomes what the gate makes of basis state ``j``, the matrix's
    column ``j``: entries, control masks and skipped near-zero entries
    are those of the kernel gate by gate.  A gate with no matrix, or on
    the wrong number of targets, raises what it raises gate by gate.
    """
    kernel = named_kernel(name, param, inverted, len(targets))
    rows = np.eye(1 << k, dtype=complex)
    _apply(rows.reshape((1 << k,) + (2,) * k), kernel,
           tuple(t + 1 for t in targets),
           tuple((c + 1, bit) for c, bit in controls))
    matrix = np.ascontiguousarray(rows.T)
    matrix.setflags(write=False)
    return matrix


_obs.register_cache("sim.product.embeddings", _embedding)


def compose_product(gates, wires) -> np.ndarray:
    """The matrix of *gates*, in order, on *wires* (slot order).

    Each distinct gate's :func:`_embedding` is looked up once.  The
    embeddings are stacked :data:`PRODUCT_CHUNK` at a time in gate
    order, each stack is reduced by pairwise products (the later gate on
    the left), and the stacks' products are multiplied in order.
    """
    k = len(wires)
    slot = {wire: i for i, wire in enumerate(wires)}
    index: dict = {}
    table = []
    order = []
    for gate in gates:
        key = (gate.name, gate.param, gate.inverted, gate.targets,
               gate.controls)
        i = index.get(key)
        if i is None:
            i = index[key] = len(table)
            table.append(_embedding(
                gate.name, gate.param, gate.inverted,
                tuple(slot[t] for t in gate.targets),
                tuple((slot[c.wire], int(c.positive)) for c in gate.controls),
                k,
            ))
        order.append(i)
    table = np.stack(table)
    order = np.array(order, dtype=np.intp)
    product = None
    for start in range(0, len(order), PRODUCT_CHUNK):
        stack = table[order[start:start + PRODUCT_CHUNK]]
        while len(stack) > 1:
            odd = len(stack) & 1
            pairs = stack[1::2] @ stack[:len(stack) - odd:2]
            stack = np.concatenate((pairs, stack[-1:])) if odd else pairs
        product = stack[0] if product is None else stack[0] @ product
    return product


def apply_product(data: np.ndarray, matrix: np.ndarray, axes) -> None:
    """Apply a product's *matrix* in place on the ``(B, 2**n)`` buffer.

    *axes* are the qubit axes of the product's slots, in slot order,
    counted from the outermost qubit (no row axis).  They are made the
    innermost axes of a view, one ``(rest, 2**k) @ matrix.T`` computes
    every new amplitude, and the result is written back through the
    view into ``data`` itself.  The rows are multiplied in stacks of at
    most :data:`PRODUCT_MATMUL_MACS` over ``4**k``.
    """
    batch, size = data.shape
    n = size.bit_length() - 1
    k = len(axes)
    view = np.moveaxis(data.reshape((batch,) + (2,) * n),
                       [axis + 1 for axis in axes], range(n + 1 - k, n + 1))
    rows = min(size, PRODUCT_MATMUL_MACS >> k) >> k
    view[...] = (view.reshape(-1, rows, 1 << k) @ matrix.T).reshape(view.shape)
