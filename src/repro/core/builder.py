"""The circuit builder: Python's stand-in for Quipper's ``Circ`` monad.

Quipper code lives in a monad ``Circ`` that threads a circuit-under-
construction through the program (Section 4.4.1).  In this reproduction the
same role is played by an explicit :class:`Circ` builder object, passed as
the first argument of circuit-producing functions by convention::

    def mycirc(qc, a, b):
        qc.hadamard(a)
        qc.hadamard(b)
        qc.controlled_not(a, b)
        return a, b

Block structure (Section 4.4.2) is expressed with context managers::

    with qc.controls(c):
        mycirc(qc, a, b)

    with qc.ancilla() as x:
        qc.qnot(x, controls=(a, b))

and the higher-order operators ``with_computed``, ``box``, ``reverse_endo``
etc. are builder methods.

The builder performs the run-time checks that Quipper defers to run time in
the absence of linear types (Section 4.1): using a dead wire, duplicating a
wire within one gate, or type-mismatched wires all raise immediately.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from typing import Callable, Iterable

from .circuit import BCircuit, BodyWidths, Circuit, Subroutine, track_gate
from .errors import (
    BoxError,
    DanglingWiresError,
    DanglingWiresWarning,
    DynamicLiftingError,
    QuipperError,
    ScopeError,
    ShapeMismatchError,
    WireTypeError,
)
from .gates import (
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
    map_gate_wires,
    with_extra_controls,
)
from .qdata import (
    qdata_leaves,
    qdata_rebuild,
    shape_signature,
)
from .wires import CLASSICAL, QUANTUM, Bit, Qubit, Wire


class Signed:
    """A wire with a sign, for use as a negative or positive control."""

    __slots__ = ("wire", "positive")

    def __init__(self, wire: Wire, positive: bool = True):
        self.wire = wire
        self.positive = positive


def neg(wire: Wire) -> Signed:
    """Mark a wire as a *negative* control (the paper's empty dots)."""
    return Signed(wire, positive=False)


def _normalize_controls(controls) -> tuple[Control, ...]:
    """Accept a wire, a Signed wire, or an iterable of either."""
    if controls is None:
        return ()
    if isinstance(controls, (Wire, Signed)):
        controls = [controls]
    result = []
    for ctl in controls:
        if isinstance(ctl, Signed):
            wire, positive = ctl.wire, ctl.positive
        elif isinstance(ctl, Wire):
            wire, positive = ctl, True
        else:
            raise WireTypeError(f"not a valid control: {ctl!r}")
        result.append(Control(wire.wire_id, positive, wire.wire_type))
    return tuple(result)


class Circ:
    """A circuit under construction.

    Not usually instantiated directly: use :func:`build` (or the run
    functions in :mod:`repro.sim` and :mod:`repro.output`) to drive a
    circuit-producing function.
    """

    def __init__(self, namespace: dict[str, Subroutine] | None = None):
        self._next_wire = 0
        self._live: dict[int, str] = {}
        self.gates: list[Gate] = []
        self.namespace: dict[str, Subroutine] = (
            namespace if namespace is not None else {}
        )
        self._control_stack: list[tuple[Control, ...]] = []
        self._inputs: tuple[tuple[int, str], ...] = ()
        self._max_live = 0
        #: Body widths for box calls, shared with scratch sub-builders:
        #: a build only ever adds names, so its memo cannot go stale.
        self._widths = BodyWidths(self.namespace)
        #: Optional hook enabling dynamic lifting (set by the QRAM executor).
        self.lifting_handler: Callable[["Circ", Bit], bool] | None = None

    # -- wire management ----------------------------------------------------

    def _fresh_id(self) -> int:
        wid = self._next_wire
        self._next_wire += 1
        return wid

    def _birth(self, wtype: str) -> int:
        wid = self._fresh_id()
        self._live[wid] = wtype
        self._max_live = max(self._max_live, len(self._live))
        return wid

    def fresh_like(self, shape):
        """Allocate input wires matching a shape specimen (no Init gates).

        Used for the free inputs of a circuit; the allocated wires are
        recorded as circuit inputs by :func:`build`.
        """
        leaves = qdata_leaves(shape)
        fresh: list[Wire] = []
        for leaf in leaves:
            wid = self._birth(leaf.wire_type)
            fresh.append(Qubit(wid) if leaf.wire_type == QUANTUM else Bit(wid))
        return qdata_rebuild(shape, fresh)

    def snapshot_inputs(self) -> None:
        """Declare all currently-live wires as the circuit's inputs."""
        self._inputs = tuple(sorted(self._live.items()))

    def live_wires(self) -> tuple[tuple[int, str], ...]:
        return tuple(sorted(self._live.items()))

    # -- gate emission ------------------------------------------------------

    def _emit_raw(self, gate: Gate) -> None:
        """Emit a gate verbatim (no block controls added), validated and
        applied to the live wires by :func:`~repro.core.circuit.track_gate`."""
        width = track_gate(self._live, gate, self._widths)
        if width > self._max_live:
            self._max_live = width
        self.gates.append(gate)

    def _emit(self, gate: Gate) -> None:
        """Emit a gate, attaching the controls of enclosing blocks."""
        extra = tuple(c for ctls in self._control_stack for c in ctls)
        if extra:
            if isinstance(gate, (Measure, Discard, CDiscard)):
                raise ScopeError(
                    f"{type(gate).__name__} is not controllable and cannot "
                    "appear inside a with_controls block"
                )
            gate = with_extra_controls(gate, extra)
        self._emit_raw(gate)

    # -- initialization / termination / measurement -------------------------

    def qinit_qubit(self, value: bool = False) -> Qubit:
        """Allocate one fresh qubit initialized to |value> (``0 |-``)."""
        wid = self._birth(QUANTUM)
        self.gates.append(Init(wid, bool(value)))
        return Qubit(wid)

    def qinit(self, value):
        """Shape-generic initialization: Bool-structure -> Qubit-structure.

        Mirrors the paper's ``qinit :: QShape b q c => b -> Circ q``.
        Accepts a bool, nested tuples/lists/dicts of bools, or any object
        with a ``qinit_shape(qc)`` method (e.g. ``IntM`` parameter values).
        """
        if isinstance(value, bool):
            return self.qinit_qubit(value)
        if isinstance(value, tuple):
            return tuple(self.qinit(v) for v in value)
        if isinstance(value, list):
            return [self.qinit(v) for v in value]
        if isinstance(value, dict):
            return {k: self.qinit(value[k]) for k in sorted(value)}
        if hasattr(value, "qinit_shape"):
            return value.qinit_shape(self)
        raise ShapeMismatchError(f"cannot qinit from {value!r}")

    def qterm(self, data, assertion=False) -> None:
        """Assertively terminate quantum data (``-| 0``).

        *assertion* is a bool or a bool-structure matching *data*; each
        qubit is asserted to be in the corresponding basis state.
        """
        leaves = qdata_leaves(data)
        values = self._assertion_values(assertion, len(leaves))
        for leaf, value in zip(leaves, values):
            if not isinstance(leaf, Qubit):
                raise WireTypeError("qterm applied to a classical wire")
            self._emit_raw(Term(leaf.wire_id, value))

    @staticmethod
    def _assertion_values(assertion, count: int) -> list[bool]:
        if isinstance(assertion, bool):
            return [assertion] * count
        values = [bool(v) for v in _iter_bools(assertion)]
        if len(values) != count:
            raise ShapeMismatchError(
                f"assertion shape has {len(values)} leaves, data has {count}"
            )
        return values

    def qdiscard(self, data) -> None:
        """Discard quantum data without asserting its state."""
        for leaf in qdata_leaves(data):
            self._emit_raw(Discard(leaf.wire_id))

    def cinit_bit(self, value: bool = False) -> Bit:
        wid = self._birth(CLASSICAL)
        self.gates.append(CInit(wid, bool(value)))
        return Bit(wid)

    def cinit(self, value):
        """Shape-generic classical initialization (Bool -> Bit)."""
        if isinstance(value, bool):
            return self.cinit_bit(value)
        if isinstance(value, tuple):
            return tuple(self.cinit(v) for v in value)
        if isinstance(value, list):
            return [self.cinit(v) for v in value]
        if isinstance(value, dict):
            return {k: self.cinit(value[k]) for k in sorted(value)}
        raise ShapeMismatchError(f"cannot cinit from {value!r}")

    def cterm(self, data, assertion=False) -> None:
        leaves = qdata_leaves(data)
        values = self._assertion_values(assertion, len(leaves))
        for leaf, value in zip(leaves, values):
            self._emit_raw(CTerm(leaf.wire_id, value))

    def cdiscard(self, data) -> None:
        for leaf in qdata_leaves(data):
            self._emit_raw(CDiscard(leaf.wire_id))

    def measure(self, data):
        """Measure quantum data, producing an identically-shaped Bit structure.

        Mirrors ``measure :: QShape b q c => q -> Circ c``.
        """
        leaves = qdata_leaves(data)
        bits: list[Bit] = []
        for leaf in leaves:
            if not isinstance(leaf, Qubit):
                raise WireTypeError("measure applied to a classical wire")
            self._emit(Measure(leaf.wire_id))
            bits.append(Bit(leaf.wire_id))
        return qdata_rebuild(data, bits)

    def dynamic_lift(self, data):
        """Convert Bit(s) back into Bool(s) -- the paper's dynamic lifting.

        Requires an execution context (see
        :mod:`repro.sim.qram_model`); in a pure generation context this
        raises :class:`~repro.core.errors.DynamicLiftingError`, because the
        value of a circuit-execution-time wire is simply not available.
        """
        if self.lifting_handler is None:
            raise DynamicLiftingError(
                "dynamic_lift requires a QRAM execution context "
                "(see repro.sim.qram_model.run_with_lifting)"
            )
        leaves = qdata_leaves(data)
        values: list[bool] = []
        for leaf in leaves:
            if not isinstance(leaf, Bit):
                raise WireTypeError("dynamic_lift applies to classical wires")
            values.append(bool(self.lifting_handler(self, leaf)))
        return qdata_rebuild(data, values)

    # -- named gates ---------------------------------------------------------

    def named_gate(self, name, *targets, controls=None, param=None,
                   inverted=False):
        """Apply a named unitary gate to one or more qubits."""
        for target in targets:
            if not isinstance(target, Qubit):
                raise WireTypeError(f"{name} gate target must be a Qubit")
        self._emit(
            NamedGate(
                name,
                tuple(t.wire_id for t in targets),
                _normalize_controls(controls),
                inverted=inverted,
                param=param,
            )
        )
        return targets[0] if len(targets) == 1 else targets

    def hadamard(self, q: Qubit, controls=None) -> Qubit:
        """Apply a Hadamard gate."""
        return self.named_gate("H", q, controls=controls)

    def map_hadamard(self, data):
        """Apply Hadamard to every qubit in a structure (``mapUnary``)."""
        for leaf in qdata_leaves(data):
            self.hadamard(leaf)
        return data

    def qnot(self, q: Qubit, controls=None) -> Qubit:
        """Apply a NOT (Pauli X), optionally controlled."""
        return self.named_gate("not", q, controls=controls)

    def cnot_bit(self, b: Bit, controls=None) -> Bit:
        """In-place classical NOT on a Bit, optionally controlled."""
        self._emit(CNot(b.wire_id, _normalize_controls(controls)))
        return b

    def controlled_not(self, target, control):
        """CNOT each corresponding pair of qubits in two structures.

        Mirrors ``controlled_not :: QCData q => q -> q -> Circ (q, q)``:
        the first structure is the target, the second the control.
        """
        t_leaves = qdata_leaves(target)
        c_leaves = qdata_leaves(control)
        if len(t_leaves) != len(c_leaves):
            raise ShapeMismatchError(
                "controlled_not applied to differently-shaped data: "
                f"{len(t_leaves)} vs {len(c_leaves)} leaves"
            )
        for t, c in zip(t_leaves, c_leaves):
            self.qnot(t, controls=c)
        return target, control

    def gate_X(self, q, controls=None):
        return self.named_gate("X", q, controls=controls)

    def gate_Y(self, q, controls=None):
        return self.named_gate("Y", q, controls=controls)

    def gate_Z(self, q, controls=None):
        return self.named_gate("Z", q, controls=controls)

    def gate_S(self, q, controls=None, inverted=False):
        return self.named_gate("S", q, controls=controls, inverted=inverted)

    def gate_T(self, q, controls=None, inverted=False):
        return self.named_gate("T", q, controls=controls, inverted=inverted)

    def gate_V(self, q, controls=None, inverted=False):
        """The square root of NOT (appears in binary decompositions)."""
        return self.named_gate("V", q, controls=controls, inverted=inverted)

    def gate_W(self, a, b, controls=None):
        """The two-qubit W gate of the BWT algorithm (Figure 1).

        W is the self-inverse basis change that maps |01> and |10> to their
        symmetric/antisymmetric combinations, fixing |00> and |11>.
        """
        return self.named_gate("W", a, b, controls=controls)

    def expZt(self, t: float, q, controls=None):
        """The gate exp(-iZt) (Figure 1's ``e^{-iZt}``)."""
        return self.named_gate("exp(-i%Z)", q, controls=controls, param=t)

    def rGate(self, n: int, q, controls=None, inverted=False):
        """The phase-shift gate R_n = diag(1, exp(2 pi i / 2^n)) (QFT)."""
        return self.named_gate(
            "R(2pi/%)", q, controls=controls, param=float(n), inverted=inverted
        )

    def phase(self, angle: float):
        """A global phase e^{i*angle} (relevant only under controls)."""
        self._emit(NamedGate("phase", (), (), param=angle))

    def rotZ(self, theta: float, q, controls=None):
        """Rotation exp(-i theta Z / 2)."""
        return self.named_gate("Rz", q, controls=controls, param=theta)

    def rotX(self, theta: float, q, controls=None):
        return self.named_gate("Rx", q, controls=controls, param=theta)

    def rotY(self, theta: float, q, controls=None):
        return self.named_gate("Ry", q, controls=controls, param=theta)

    def swap(self, a, b):
        """Swap corresponding qubits of two equal-shaped structures."""
        a_leaves = qdata_leaves(a)
        b_leaves = qdata_leaves(b)
        if len(a_leaves) != len(b_leaves):
            raise ShapeMismatchError("swap applied to differently-shaped data")
        for x, y in zip(a_leaves, b_leaves):
            self.named_gate("swap", x, y)
        return a, b

    # -- classical logic gates ------------------------------------------------

    def cgate(self, name: str, inputs: Iterable[Bit]) -> Bit:
        """Compute a named boolean function of Bits into a fresh Bit."""
        input_ids = tuple(b.wire_id for b in inputs)
        wid = self._fresh_id()
        self._emit_raw(CGate(name, wid, input_ids))
        return Bit(wid)

    def cgate_xor(self, *inputs: Bit) -> Bit:
        return self.cgate("xor", inputs)

    def cgate_and(self, *inputs: Bit) -> Bit:
        return self.cgate("and", inputs)

    def cgate_or(self, *inputs: Bit) -> Bit:
        return self.cgate("or", inputs)

    def cgate_not(self, b: Bit) -> Bit:
        return self.cgate("not", (b,))

    # -- comments -------------------------------------------------------------

    def comment(self, text: str) -> None:
        """Insert a comment into the circuit."""
        self._emit_raw(Comment(text))

    def comment_with_label(self, text: str, data, labels) -> None:
        """Insert a comment labelling the wires of *data* (Section 5.3.1).

        *labels* is a string (applied to the whole structure, with indices
        appended for multi-wire data) or a tuple of strings labelling the
        components of a tuple *data* component-wise.
        """
        entries: list[tuple[int, str, str]] = []
        if isinstance(labels, str):
            _label_leaves(data, labels, entries)
        else:
            if not isinstance(data, tuple) or len(data) != len(labels):
                raise ShapeMismatchError(
                    "labels tuple must match a data tuple of equal length"
                )
            for part, label in zip(data, labels):
                _label_leaves(part, label, entries)
        self._emit_raw(Comment(text, tuple(entries)))

    # -- block structure --------------------------------------------------

    @contextmanager
    def controls(self, controls):
        """Control every gate in the block (``with_controls``)."""
        self._control_stack.append(_normalize_controls(controls))
        try:
            yield
        finally:
            self._control_stack.pop()

    @contextmanager
    def ancilla(self):
        """Provide an ancilla qubit, |0> at entry, asserted |0> at exit."""
        q = self.qinit_qubit(False)
        try:
            yield q
        finally:
            self._emit_raw(Term(q.wire_id, False))

    @contextmanager
    def ancilla_init(self, value):
        """Provide shaped ancillas initialized from a bool structure.

        The block must return them to their initial state; termination
        asserts the initial values (``with_ancilla_init``).
        """
        data = self.qinit(value)
        try:
            yield data
        finally:
            leaves = qdata_leaves(data)
            values = list(_iter_bools(value))
            for leaf, val in zip(leaves, values):
                self._emit_raw(Term(leaf.wire_id, val))

    @contextmanager
    def ancilla_list(self, n: int):
        """Provide a list of *n* ancilla qubits, all scoped to the block."""
        qs = [self.qinit_qubit(False) for _ in range(n)]
        try:
            yield qs
        finally:
            for q in reversed(qs):
                self._emit_raw(Term(q.wire_id, False))

    def with_computed(self, compute: Callable[[], object],
                      action: Callable[[object], object]):
        """Compute, act, uncompute (the paper's ``with_computed_fun``).

        Runs *compute* (recording its gates), passes its result to *action*,
        then emits the inverse of the recorded gates, automatically
        uncomputing all intermediate results (Section 5.3.1).  The wires
        produced by *compute* must not be altered by *action*.
        """
        start = len(self.gates)
        mid = compute()
        end = len(self.gates)
        result = action(mid)
        for gate in reversed(self.gates[start:end]):
            self._emit_raw(gate.inverse())
        return result

    def with_basis_change(self, change: Callable[[], None],
                          action: Callable[[], object]):
        """Perform *action* conjugated by the basis change *change*."""
        return self.with_computed(change, lambda _: action())

    # -- whole-circuit operators -------------------------------------------

    def subcircuit(self, fn: Callable, *shape_args) -> tuple[Circuit, object, object]:
        """Trace *fn* over fresh wires into a standalone Circuit.

        Returns ``(circuit, input_structure, output_structure)`` where the
        structures hold the traced wires.  The traced circuit shares this
        builder's namespace (nested boxes land in the same namespace).
        """
        scratch = Circ(namespace=self.namespace)
        scratch._widths = self._widths
        args = [scratch.fresh_like(a) for a in shape_args]
        scratch.snapshot_inputs()
        outs = fn(scratch, *args)
        out_struct = outs if outs is not None else tuple(
            Qubit(w) if t == QUANTUM else Bit(w)
            for w, t in scratch.live_wires()
        )
        out_leaves = qdata_leaves(out_struct)
        live = dict(scratch.live_wires())
        if {leaf.wire_id for leaf in out_leaves} != set(live):
            raise ScopeError(
                "traced function must return all its live wires: "
                f"returned {sorted(l.wire_id for l in out_leaves)}, "
                f"live {sorted(live)}"
            )
        circuit = Circuit(
            inputs=scratch._inputs,
            gates=scratch.gates,
            outputs=tuple((l.wire_id, l.wire_type) for l in out_leaves),
        )
        args_struct = tuple(args) if len(args) != 1 else args[0]
        return circuit, args_struct, out_struct

    def reverse_endo(self, fn: Callable, *args):
        """Apply the inverse of *fn*, for *fn* with equal in/out shapes.

        ``qc.reverse_endo(mycirc, a, b)`` emits the inverse of the circuit
        that ``mycirc(qc, a, b)`` would emit (the paper's ``reverse_simple``
        applied to an endomorphic circuit function).
        """
        circuit, in_struct, out_struct = self.subcircuit(fn, *args)
        caller_out = args[0] if len(args) == 1 else tuple(args)
        return self._emit_reversed(circuit, out_struct, caller_out, in_struct)

    def reverse_simple(self, fn: Callable, shape_args: tuple, outputs):
        """Apply the inverse of *fn* to *outputs*.

        *shape_args* is a tuple of shape specimens for fn's inputs;
        *outputs* is data matching fn's output shape.  Returns data matching
        fn's input shape (the paper's general ``reverse_simple``).
        """
        circuit, in_struct, out_struct = self.subcircuit(fn, *shape_args)
        return self._emit_reversed(circuit, out_struct, outputs, in_struct)

    def _emit_reversed(self, circuit: Circuit, out_struct, caller_out,
                       in_struct):
        """Emit circuit's inverse, binding its outputs to caller wires.

        Returns the circuit's *inputs* rebuilt over caller wires -- these
        are the wires live after the inverse circuit has run.
        """
        trace_out_leaves = qdata_leaves(out_struct)
        caller_leaves = qdata_leaves(caller_out)
        if len(trace_out_leaves) != len(caller_leaves):
            raise ShapeMismatchError(
                "reverse: output shape does not match supplied data: "
                f"{len(trace_out_leaves)} vs {len(caller_leaves)} wires"
            )
        mapping = {
            t.wire_id: c.wire_id
            for t, c in zip(trace_out_leaves, caller_leaves)
        }

        def remap(wid: int) -> int:
            if wid not in mapping:
                mapping[wid] = self._fresh_id()
            return mapping[wid]

        for gate in reversed(circuit.gates):
            self._emit(map_gate_wires(gate.inverse(), remap))
        in_leaves = qdata_leaves(in_struct)
        rebuilt = [
            Qubit(mapping[leaf.wire_id])
            if leaf.wire_type == QUANTUM
            else Bit(mapping[leaf.wire_id])
            for leaf in in_leaves
        ]
        return qdata_rebuild(in_struct, rebuilt)

    # -- boxed subcircuits ----------------------------------------------------

    def box(self, name: str, fn: Callable, *args, repetitions: int = 1):
        """Invoke *fn* on *args* as a boxed subcircuit (Section 4.4.4).

        The first call with a given name and argument shape generates the
        subcircuit; subsequent calls emit a single ``BoxCall`` gate
        referencing it.  With ``repetitions=k`` the subroutine is iterated
        k times in place (fn must have equal input and output shape), and
        hierarchical gate counting multiplies accordingly.
        """
        signature = shape_signature(args)
        key = self._box_key(name, signature)
        if key not in self.namespace:
            circuit, in_struct, out_struct = self.subcircuit(fn, *args)
            self.namespace[key] = Subroutine(
                name=key,
                circuit=circuit,
                in_shape=in_struct,
                out_shape=out_struct,
                signature=signature,
            )
        sub = self.namespace[key]
        return self._call_box(sub, args, repetitions=repetitions)

    def _box_key(self, name: str, signature: str) -> str:
        key = name
        suffix = 1
        while key in self.namespace:
            if self.namespace[key].signature == signature:
                return key
            suffix += 1
            key = f"{name}#{suffix}"
        return key

    def _call_box(self, sub: Subroutine, args, repetitions: int = 1):
        caller_leaves = qdata_leaves(args)
        sub_in = sub.circuit.inputs
        if len(caller_leaves) != len(sub_in):
            raise BoxError(
                f"subroutine {sub.name!r} expects {len(sub_in)} wires, "
                f"got {len(caller_leaves)}"
            )
        binding = {
            sid: leaf.wire_id for (sid, _), leaf in zip(sub_in, caller_leaves)
        }
        if repetitions != 1 and sub.circuit.inputs != sub.circuit.outputs:
            raise BoxError(
                f"repeated box {sub.name!r} requires identical input and "
                "output wires (an in-place subroutine)"
            )
        out_wires: list[tuple[int, str]] = []
        out_handles: list[Wire] = []
        for sid, stype in sub.circuit.outputs:
            if sid in binding:
                wid = binding[sid]
            else:
                wid = self._fresh_id()
            out_wires.append((wid, stype))
            out_handles.append(Qubit(wid) if stype == QUANTUM else Bit(wid))
        self._emit(
            BoxCall(
                name=sub.name,
                in_wires=tuple(
                    (leaf.wire_id, leaf.wire_type) for leaf in caller_leaves
                ),
                out_wires=tuple(out_wires),
                repetitions=repetitions,
            )
        )
        return qdata_rebuild(sub.out_shape, out_handles)

    def nbox(self, name: str, repetitions: int, fn: Callable, *args):
        """Box *fn* and iterate it ``repetitions`` times in place."""
        return self.box(name, fn, *args, repetitions=repetitions)

    # -- finishing ---------------------------------------------------------

    def finish(self, outputs=None, on_extra: str = "warn",
               _stacklevel: int = 2) -> tuple[BCircuit, object]:
        """Close the builder, producing a checked BCircuit.

        *outputs* is the structured data to expose as circuit outputs; any
        live wires not contained in it are appended in wire-id order,
        repackaging the result as ``(outputs, extra)``.  Because that
        silently changes the declared output shape, *on_extra* selects how
        leftover wires are reported:

        * ``"warn"`` (default) -- append them, but emit a structured
          :class:`~repro.core.errors.DanglingWiresWarning` carrying the
          appended ``(wire_id, wire_type)`` pairs;
        * ``"error"`` -- raise :class:`~repro.core.errors.DanglingWiresError`
          instead of repackaging;
        * ``"ignore"`` -- the historical silent repackaging.
        """
        out_struct = self._resolve_outputs(
            outputs, on_extra=on_extra, _stacklevel=_stacklevel + 1
        )
        leaves = qdata_leaves(out_struct)
        circuit = Circuit(
            inputs=self._inputs,
            gates=self.gates,
            outputs=tuple((l.wire_id, l.wire_type) for l in leaves),
        )
        return BCircuit(circuit, self.namespace), out_struct

    def _resolve_outputs(self, outputs, on_extra: str = "warn",
                         _stacklevel: int = 2):
        """Resolve the declared outputs against the live wires.

        The output-shape half of :meth:`finish`, shared with the streaming
        builder (:mod:`repro.core.stream`), which resolves outputs without
        materializing a circuit.  Returns the final output structure,
        applying the *on_extra* policy to live wires beyond *outputs*.
        """
        if on_extra not in ("warn", "error", "ignore"):
            raise ValueError(f"unknown on_extra mode {on_extra!r}")
        if outputs is None:
            out_struct: object = tuple(
                Qubit(w) if t == QUANTUM else Bit(w)
                for w, t in self.live_wires()
            )
        else:
            out_leaves = {leaf.wire_id for leaf in qdata_leaves(outputs)}
            extra = tuple(
                Qubit(w) if t == QUANTUM else Bit(w)
                for w, t in self.live_wires()
                if w not in out_leaves
            )
            if extra:
                extra_wires = tuple(
                    (w.wire_id, w.wire_type) for w in extra
                )
                message = (
                    f"{len(extra)} live wire(s) beyond the declared "
                    f"outputs were appended, changing the output shape "
                    f"to (outputs, extra): wires "
                    f"{[w for w, _ in extra_wires]}"
                )
                if on_extra == "error":
                    raise DanglingWiresError(message, extra_wires)
                if on_extra == "warn":
                    warnings.warn(
                        DanglingWiresWarning(message, extra_wires),
                        stacklevel=_stacklevel,
                    )
            out_struct = outputs if not extra else (outputs, extra)
        return out_struct


def _iter_bools(value):
    """Iterate the bools of a nested bool structure, in leaf order."""
    if isinstance(value, bool):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _iter_bools(item)
    elif isinstance(value, dict):
        for key in sorted(value):
            yield from _iter_bools(value[key])
    else:
        raise ShapeMismatchError(f"not a bool structure: {value!r}")


def _label_leaves(data, label: str, entries: list[tuple[int, str, str]]) -> None:
    leaves = qdata_leaves(data)
    if len(leaves) == 1:
        entries.append((leaves[0].wire_id, leaves[0].wire_type, label))
    else:
        for index, leaf in enumerate(leaves):
            entries.append(
                (leaf.wire_id, leaf.wire_type, f"{label}[{index}]")
            )


def build(fn: Callable, *shape_args, on_extra: str = "warn") -> tuple[BCircuit, object]:
    """Generate the circuit of *fn* applied to inputs of the given shapes.

    This is the generation-time entry point shared by ``print_generic``,
    ``run_generic`` and the gate counters: it allocates free input wires
    matching the shape specimens, runs ``fn(qc, *inputs)``, and packages the
    result as a checked :class:`~repro.core.circuit.BCircuit`.  *on_extra*
    selects how live wires beyond the returned outputs are reported (see
    :meth:`Circ.finish`).

    Returns ``(bcircuit, output_structure)``.

    The fluent equivalent is :meth:`repro.program.Program.capture`, which
    wraps the same generation step in a lazily-built, cacheable pipeline
    object.
    """
    qc = Circ()
    args = [qc.fresh_like(shape) for shape in shape_args]
    qc.snapshot_inputs()
    outs = fn(qc, *args)
    # _stacklevel=3 attributes a dangling-wire warning to build's caller.
    return qc.finish(outs, on_extra=on_extra, _stacklevel=3)


__all__ = [
    "Circ",
    "Signed",
    "neg",
    "build",
]
