"""The fluent ``Program`` pipeline: one definition, every consumer.

The headline design of the paper (Sections 1 and 4) is that a single
circuit-producing function *is* the program, consumed interchangeably by
printers, gate counters, transformers, and simulators.  The follow-up
resource-estimation work ("Concrete Resource Estimation in Quantum
Algorithms") shows the workflow this module makes first-class: define the
program once, then chain gate-set transformations and resource counts over
it.

A :class:`Program` wraps a circuit-producing function together with its
shape arguments.  Circuit generation is lazy and cached -- nothing is
built until a consumer asks -- and every consumer of the historical free
functions is a method::

    from repro import Program, qubit

    prog = Program.capture(mycirc, qubit, qubit)
    prog.print()                          # was print_generic(mycirc, ...)
    prog.count()                          # was gatecount_generic(...)
    prog.run(shots=1024, seed=7)          # was run_generic(...)
    prog.transform("binary").depth()      # decompose, then estimate

:meth:`Program.transform` fuses its rules into a **single traversal** of
the box hierarchy (see :mod:`repro.transform.pipeline`): each gate flows
through the rule chain once, so ``prog.transform(r1, r2, r3)`` costs one
pass where three ``transform_bcircuit`` calls cost three.

The :func:`subroutine` / :func:`main` decorators declare box structure
declaratively::

    @subroutine
    def adder(qc, a, b): ...              # every call is a boxed BoxCall

    @main(qubit, qubit)
    def bell(qc, a, b): ...               # `bell` IS a Program

A decorated ``@main`` program remains callable as an ordinary circuit
function, so programs compose: ``bell(qc, a, b)`` inside another circuit
emits the same gates inline.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from typing import Callable

from .backends import RunResult, get_backend
from .core.builder import Circ, build
from .obs import core as _obs
from .core.circuit import BCircuit, Circuit
from .core.gates import (
    BoxCall,
    CGate,
    CInit,
    CNot,
    Comment,
    Control,
    CTerm,
    Init,
    NamedGate,
    Term,
    with_extra_controls,
)
from .core.wires import QUANTUM, Qubit
from .transform import (
    GATE_BASES,
    aggregate_gate_count,
    circuit_depth,
    inline as _inline_bcircuit,
    reverse_bcircuit,
    summarize,
    t_depth as _t_depth,
    total_gates,
    total_logical_gates,
    transform_bcircuit_fused,
)
from .transform.inline import _max_wire_id
from .transform.transformer import Rule


def _resolve_rules(specs: tuple) -> tuple[Rule, ...]:
    """Expand transform specs (callables or gate-base names) into rules.

    A gate-base name (:data:`~repro.transform.TOFFOLI`,
    :data:`~repro.transform.BINARY`) expands to its rule chain in
    :data:`~repro.transform.GATE_BASES`, the chain ``decompose_generic``
    runs (``BINARY`` implies the Toffoli stage first); any callable is
    used as a transformer rule directly.
    """
    rules: list[Rule] = []
    for spec in specs:
        if isinstance(spec, str) and spec in GATE_BASES:
            rules.extend(GATE_BASES[spec])
        elif callable(spec):
            rules.append(spec)
        else:
            raise ValueError(
                f"not a transformer rule or gate base name: {spec!r}"
            )
    return tuple(rules)


class Program:
    """A quantum program: a lazily-generated, transformable circuit.

    Immutable and fluent: every pipeline operation (:meth:`transform`,
    :meth:`inverse`, :meth:`controlled`, :meth:`inline`) returns a new
    ``Program`` whose circuit is generated -- and cached -- only when a
    consumer (:meth:`count`, :meth:`run`, :meth:`ascii`, ...) first needs
    it.
    """

    __slots__ = ("name", "_thunk", "_fn", "_shapes", "_cache", "_on_extra",
                 "_phase_folded", "_stage")

    def __init__(self, thunk: Callable[[], tuple[BCircuit, object]], *,
                 name: str | None = None, fn: Callable | None = None,
                 shapes: tuple = (), on_extra: str = "warn",
                 stage: str = "capture"):
        self.name = name or "program"
        self._thunk = thunk
        self._fn = fn
        self._shapes = shapes
        self._on_extra = on_extra
        #: Telemetry span name under which generation is recorded --
        #: which pipeline stage building this Program *is* ("capture",
        #: "transform", "optimize", ...).
        self._stage = stage
        self._cache: tuple[BCircuit, object] | None = None
        #: Whether an upstream optimize() stage may have elided gates
        #: that were only a *global* phase -- unobservable for this
        #: program as-is, but observable if it is later .controlled().
        self._phase_folded = False

    # -- construction -------------------------------------------------------

    @classmethod
    def capture(cls, fn: Callable, *shapes, name: str | None = None,
                on_extra: str = "warn") -> "Program":
        """Wrap a circuit-producing function and its input shapes.

        ``Program.capture(fn, *shapes)`` is the lazy, reusable analogue of
        ``build(fn, *shapes)``: the circuit is generated on first use and
        cached on the Program.  *on_extra* is forwarded to
        :meth:`repro.core.builder.Circ.finish`.

        Capturing a ``Program`` again is allowed: with no further
        arguments it is the identity; with shapes (re-shaping a ``@main``
        program, say) the underlying circuit function is re-captured,
        which requires the Program to wrap one.
        """
        if isinstance(fn, Program):
            if not shapes and name is None:
                return fn
            if fn._fn is None:
                raise TypeError(
                    f"Program {fn.name!r} does not wrap a circuit "
                    "function and cannot be re-captured with new shapes"
                )
            return cls.capture(
                fn._fn, *(shapes or fn._shapes),
                name=name or fn.name, on_extra=on_extra,
            )
        return cls(
            lambda: build(fn, *shapes, on_extra=on_extra),
            name=name or getattr(fn, "__name__", None),
            fn=fn,
            shapes=shapes,
            on_extra=on_extra,
        )

    @classmethod
    def from_bcircuit(cls, bc: BCircuit, outputs: object = None,
                      name: str | None = None) -> "Program":
        """Wrap an already-generated hierarchical circuit."""
        return cls(lambda: (bc, outputs), name=name)

    @classmethod
    def loads(cls, text: str, name: str | None = None) -> "Program":
        """A Program backed by serialized Quipper-ASCII text (lazy parse)."""
        from .io import loads as _loads

        return cls(lambda: (_loads(text), None), name=name, stage="parse")

    @classmethod
    def loads_qasm(cls, text: str, name: str | None = None) -> "Program":
        """A Program backed by OpenQASM 2 text (lazy parse).

        The text is read by :func:`repro.io.parse_qasm` on first use:
        qelib1 gates map onto the repro vocabulary, ``measure``/``if``
        become the extended model's measurement and classical controls,
        and parameterless ``gate`` definitions stay hierarchical as
        boxed subroutines.  ``Program.loads_qasm(p.qasm())`` is the
        round trip the ``equiv`` backend certifies.
        """
        from .io import parse_qasm as _parse_qasm

        return cls(
            lambda: (_parse_qasm(text), None), name=name, stage="parse"
        )

    @classmethod
    def from_qasm(cls, path, name: str | None = None) -> "Program":
        """A Program backed by an OpenQASM 2 file (lazy read + parse)."""

        def make():
            from .io import parse_qasm as _parse_qasm

            with open(path, "r", encoding="utf-8") as handle:
                return _parse_qasm(handle.read()), None

        return cls(make, name=name, stage="parse")

    # -- generation ---------------------------------------------------------

    def _built(self) -> tuple[BCircuit, object]:
        if self._cache is None:
            if _obs.ENABLED:
                with _obs.span(self._stage, program=self.name) as sp:
                    self._cache = self._thunk()
                    sp.set(gates=len(self._cache[0]))
            else:
                self._cache = self._thunk()
            # Release the thunk: derived stages close over their parent
            # Programs, and dropping the closure lets fully-built
            # intermediate stages (and their cached circuits) be freed.
            self._thunk = None
        return self._cache

    @property
    def bcircuit(self) -> BCircuit:
        """The generated circuit hierarchy (built once, then cached)."""
        return self._built()[0]

    @property
    def outputs(self) -> object:
        """The structured output data returned by the captured function."""
        return self._built()[1]

    def __call__(self, qc: Circ, *args):
        """Run the captured function inline inside another circuit.

        Keeps decorated ``@main`` programs composable as ordinary circuit
        functions.
        """
        if self._fn is None:
            raise TypeError(
                f"Program {self.name!r} does not wrap a circuit function "
                "and cannot be called inline"
            )
        return self._fn(qc, *args)

    def _derived(self, suffix: str,
                 make: Callable[[], tuple[BCircuit, object]],
                 stage: str | None = None) -> "Program":
        derived = Program(
            make, name=f"{self.name}.{suffix}",
            stage=stage or suffix.split("(", 1)[0],
        )
        derived._phase_folded = self._phase_folded
        return derived

    def digest(self) -> str:
        """A content digest: structurally equal circuits digest equal.

        The hex SHA-256 of the canonical Quipper-ASCII serialization
        (:func:`repro.io.dumps`) of the generated hierarchy, stable
        across processes and runs.  Computed on every call: it builds
        the circuit and serializes the whole hierarchy.
        """
        from .io import dumps as _dumps

        payload = "circuit:" + _dumps(self.bcircuit)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- pipeline stages ----------------------------------------------------

    def transform(self, *rules) -> "Program":
        """Chain transformer rules, fused into one traversal.

        Each rule is a transformer callable (``rule(qc, gate) -> handled``)
        or a gate-base name (:data:`~repro.transform.TOFFOLI`,
        :data:`~repro.transform.BINARY`).  However many rules are chained,
        every subroutine body is traversed exactly once, each gate flowing
        through the whole chain (see
        :func:`repro.transform.pipeline.transform_bcircuit_fused`), where
        the legacy ``transform_bcircuit`` cost one full hierarchy rewrite
        per rule.
        """
        resolved = _resolve_rules(rules)
        label = ",".join(getattr(r, "__name__", "rule") for r in resolved)
        return self._derived(
            f"transform({label})",
            lambda: (
                transform_bcircuit_fused(self.bcircuit, *resolved),
                self.outputs,
            ),
        )

    def optimize(self, *passes, window: int | None = None,
                 fold_global_phase: bool = True) -> "Program":
        """Peephole-optimize the circuit (see :mod:`repro.optimize`).

        Runs the sliding-window peephole optimizer over every subroutine
        body (once, shared across call sites) and the main circuit,
        iterated to a fixpoint -- ``prog.optimize().optimize()`` equals
        ``prog.optimize()``.  With no arguments the full default pass
        chain applies; *passes* selects a custom chain by registry name
        or :class:`~repro.optimize.PeepholePass` instance.  *window*
        bounds the lookahead (gates retained for matching).

        With *fold_global_phase* (the default) the top-level circuit may
        shed gates that only contribute a global phase (``Rz(2pi)``,
        bare ``phase`` gates) -- unobservable for this program, but a
        *relative* phase if the optimized program is later
        :meth:`controlled`; pass ``fold_global_phase=False`` (or control
        first) when that composition is intended.  Boxed bodies are
        always optimized phase-exactly, since their call sites may be
        controlled.

        ::

            prog.transform("binary").optimize().count()
            prog.optimize("cancel", "merge")
        """
        from .optimize import DEFAULT_WINDOW, optimize_bcircuit, resolve_passes
        from .optimize.passes import body_safe_passes

        resolved = resolve_passes(passes)
        if not fold_global_phase:
            resolved = body_safe_passes(resolved)
        label = ",".join(p.name for p in resolved)
        derived = self._derived(
            f"optimize({label})",
            lambda: (
                optimize_bcircuit(
                    self.bcircuit, resolved,
                    window=window or DEFAULT_WINDOW,
                ),
                self.outputs,
            ),
        )
        if fold_global_phase:
            derived._phase_folded = True
        return derived

    def inline(self) -> "Program":
        """Expand every boxed subroutine call into a flat circuit."""
        return self._derived(
            "inline", lambda: (_inline_bcircuit(self.bcircuit), self.outputs),
        )

    def inverse(self) -> "Program":
        """The reverse program (Section 4.2.2); boxes stay shared."""
        return self._derived(
            "inverse", lambda: (reverse_bcircuit(self.bcircuit), None),
        )

    def controlled(self, n: int = 1) -> "Program":
        """Control the whole program on *n* fresh qubits.

        The control wires are appended as extra circuit inputs/outputs and
        attached to every gate of the main circuit (box calls carry them
        down the hierarchy at inline/execution time).  Init/Term gates pass
        beneath the controls unchanged, per Quipper's "nocontrol"
        convention; measurements and discards cannot be controlled and
        raise :class:`~repro.core.errors.ScopeError`.

        Controlling an :meth:`optimize`-derived program emits a
        ``RuntimeWarning``: the optimizer may have elided gates that
        were only a global phase, which the new controls would have
        turned into an observable relative phase.  Control first, or
        use ``optimize(fold_global_phase=False)``.
        """
        if n < 1:
            raise ValueError("controlled() requires n >= 1")
        if self._phase_folded:
            import warnings

            warnings.warn(
                "controlled() on an optimize()-derived program: the "
                "optimizer may have folded global phases that become "
                "relative (observable) under the new controls; control "
                "first or use optimize(fold_global_phase=False)",
                RuntimeWarning,
                stacklevel=2,
            )

        def make() -> tuple[BCircuit, object]:
            from .core.errors import ScopeError

            bc = self.bcircuit
            base = _max_wire_id(bc.circuit) + 1
            controls = tuple(
                Control(base + i, True, QUANTUM) for i in range(n)
            )
            gates = []
            for gate in bc.circuit.gates:
                if isinstance(gate, (Init, Term, CInit, CTerm, Comment)):
                    gates.append(gate)  # "nocontrol" gates
                elif isinstance(gate, (NamedGate, CNot, BoxCall)):
                    gates.append(with_extra_controls(gate, controls))
                elif isinstance(gate, CGate):
                    gates.append(gate)  # classical computation is free
                else:
                    raise ScopeError(
                        f"{type(gate).__name__} cannot appear in a "
                        "controlled program"
                    )
            ctl_wires = tuple((c.wire, QUANTUM) for c in controls)
            circuit = Circuit(
                inputs=bc.circuit.inputs + ctl_wires,
                gates=gates,
                outputs=bc.circuit.outputs + ctl_wires,
            )
            ctl_struct = tuple(Qubit(c.wire) for c in controls)
            return BCircuit(circuit, bc.namespace), (self.outputs, ctl_struct)

        return self._derived(f"controlled({n})", make)

    # -- streaming ----------------------------------------------------------

    def stream(self, *rules) -> "GateStream":
        """A lazy gate stream over this program -- nothing materialized.

        For a captured (not-yet-built) program the stream re-runs the
        circuit function once per consumer, pushing each gate to the
        consumer as it is emitted -- the program's circuit is **never
        built**, so streams of any gate count run in O(live wires +
        boxed bodies) memory.  For an already-built (or loaded, or
        derived) program the stored hierarchy is replayed instead.

        *rules* are transformer rules (or gate-base names, as in
        :meth:`transform`) fused into the stream: each emitted gate flows
        through the whole chain on its way to the consumer, with boxed
        bodies rewritten once, on demand.

        ::

            prog.stream().count()            # gate count, nothing stored
            prog.stream("binary").depth()    # decompose + estimate, fused
            prog.stream().dump(fp)           # incremental interchange dump
        """
        from .core.stream import replay_bcircuit, stream_build
        from .streaming import GateStream

        resolved = _resolve_rules(rules)
        if self._fn is not None and self._cache is None:
            fn, shapes, on_extra = self._fn, self._shapes, self._on_extra

            def produce(consumer):
                return stream_build(fn, shapes, consumer, on_extra=on_extra)
        else:

            def produce(consumer):
                bc, outs = self._built()
                return replay_bcircuit(bc, consumer, out_struct=outs)

        return GateStream(
            produce, name=f"{self.name}.stream", rules=resolved
        )

    # -- consumers: counting and estimation ---------------------------------

    def count(self, stream: bool = False) -> Counter:
        """Aggregated hierarchical gate count (never inlines).

        Read from the circuit's summary
        (:func:`~repro.transform.summary.summarize`), the one walk that
        :meth:`count`, :meth:`width` and :meth:`depth` share; counting
        validates the circuit.  With ``stream`` the count is taken over a
        gate stream instead of the built circuit (see :meth:`stream`):
        identical Counter, memory O(top-level wire ids) rather than
        O(gates), and the circuit is not generated into memory if it was
        not already.
        """
        if stream:
            return self.stream().count()
        return aggregate_gate_count(self.bcircuit)

    def total_gates(self) -> int:
        """Total gate count, including Init/Term/Meas."""
        return total_gates(self.count())

    def logical_gates(self) -> int:
        """Gate count excluding initialization/termination/measurement."""
        return total_logical_gates(self.count())

    def depth(self, stream: bool = False) -> int:
        """Critical-path depth over the hierarchy (no inlining)."""
        if stream:
            return self.stream().depth()
        return circuit_depth(self.bcircuit)

    def t_depth(self, stream: bool = False) -> int:
        """Critical-path depth counting only T gates (a walk of its own)."""
        if stream:
            return self.stream().t_depth()
        return _t_depth(self.bcircuit)

    def width(self) -> int:
        """Peak number of simultaneously live wires (validates wiring).

        Equal to ``bcircuit.check()``, read from the circuit's summary.
        """
        return summarize(self.bcircuit).width

    def resources(self, stream: bool = False) -> dict:
        """The ``resources`` backend's static cost report as a dict."""
        if stream:
            return self.stream().resources()
        return self.run(backend="resources").resources

    # -- consumers: execution -----------------------------------------------

    def compiled(self):
        """The fully-inlined execution stream (compiled once, then cached).

        Returns the :class:`~repro.transform.inline.CompiledCircuit` the
        simulation backends replay: the flat gate list with its
        deterministic-prefix split, memoized on the generated circuit
        (which this Program caches) by
        :func:`~repro.transform.inline.compile_flat`.
        """
        from .transform.inline import compile_flat

        return compile_flat(self.bcircuit)

    def run(self, backend: str = "statevector", *, shots: int | None = None,
            in_values: dict[int, bool] | None = None,
            seed: int | None = None, trace=None, **options) -> RunResult:
        """Execute on a named backend (the method form of ``run_generic``).

        The simulation backends (statevector, clifford) consume the
        compiled gate stream of :meth:`compiled`; the counting backends
        never inline, so any-size hierarchies stay cheap to estimate.

        Extra keyword *options* configure the backend itself -- e.g.
        ``run("statevector", shots=1024, batch=64)`` advances 64 shots
        per kernel dispatch through the batched statevector engine
        (seeded counts are bit-identical at every batch size; the
        default is a memory-bounded auto size).

        *trace* -- a path or open file handle -- captures telemetry for
        this run (generation, compile, and execution spans plus kernel
        and cache metrics; see :mod:`repro.obs`) and writes it there in
        Chrome ``trace_event`` format, loadable in ``chrome://tracing``.
        """
        if trace is not None:
            from .obs import capture, dump_chrome_trace

            with capture() as rec:
                result = self.run(
                    backend, shots=shots, in_values=in_values, seed=seed,
                    **options,
                )
            dump_chrome_trace(rec, trace)
            return result
        if _obs.ENABLED:
            with _obs.span(
                "run." + backend, program=self.name,
                shots=shots if shots is not None else 1,
            ):
                return get_backend(backend, **options).run(
                    self.bcircuit, shots=shots, in_values=in_values,
                    seed=seed,
                )
        return get_backend(backend, **options).run(
            self.bcircuit, shots=shots, in_values=in_values, seed=seed
        )

    def equivalent_to(self, other, **options):
        """Decide whether this program equals *other* up to global phase.

        Runs the ``equiv`` backend (:mod:`repro.backends.equiv`) over
        the pair and returns its structured
        :class:`~repro.backends.equiv.EquivVerdict`: ``verdict`` is
        ``"equivalent"``, ``"distinct"`` (with a witness basis input),
        or ``"unknown"``, and ``decider`` names the cheapest decider
        that settled it (Clifford tableau, statevector unitary
        comparison, or normal-form matching -- see the backend docs for
        the escalation order).  *other* is a :class:`Program` or a bare
        :class:`~repro.core.circuit.BCircuit`; extra *options* configure
        the backend (e.g. ``max_width=``).
        """
        result = self.run("equiv", other=other, **options)
        return result.metadata["equiv"]

    def report(self, backend: str = "statevector", *,
               shots: int | None = None,
               in_values: dict[int, bool] | None = None,
               seed: int | None = None, **options) -> str:
        """Run under telemetry capture; return the human profile table.

        A fresh :func:`repro.obs.capture` session wraps one
        :meth:`run`, so the table covers whatever that run had to do:
        stages not yet built are generated (and timed) inside it, while
        already-cached stages show up only as cache hits.
        """
        from .obs import capture, format_summary

        with capture() as rec:
            self.run(
                backend, shots=shots, in_values=in_values, seed=seed,
                **options,
            )
        return format_summary(rec)

    # -- consumers: rendering and interchange -------------------------------

    def ascii(self, fp=None) -> str | None:
        """The circuit as Quipper-style ASCII text.

        With *fp* the text is written incrementally to the file handle
        through a gate stream (the circuit is not materialized) and
        ``None`` is returned.
        """
        if fp is not None:
            self.stream().write_ascii(fp)
            return None
        from .output.ascii import format_bcircuit

        return format_bcircuit(self.bcircuit)

    def print(self, file=None) -> BCircuit:
        """Print the ASCII rendering; returns the circuit (print_generic)."""
        print(self.ascii(), file=file)
        return self.bcircuit

    def gatecount(self, per_subroutine: bool = False) -> str:
        """The paper's ``-f gatecount`` report as a string."""
        from .output.gatecount import format_gatecount

        return format_gatecount(self.bcircuit, per_subroutine=per_subroutine)

    def dumps(self, fp=None) -> str | None:
        """Serialize to Quipper-ASCII interchange text (round-trips).

        With *fp* the text is streamed to the file handle one gate-line
        at a time -- byte-identical to the returned string, but the
        circuit is never materialized -- and ``None`` is returned.
        """
        if fp is not None:
            self.stream().dump(fp)
            return None
        from .io import dumps as _dumps

        return _dumps(self.bcircuit)

    def qasm(self, fp=None) -> str | None:
        """Export to flat OpenQASM 2.0 (inlines the hierarchy).

        With *fp* the export is streamed: boxed calls are expanded on
        the fly and the body spooled through a temporary file, so
        exports larger than RAM work.  Returns ``None`` in that case.
        """
        if fp is not None:
            self.stream().write_qasm(fp)
            return None
        from .io import bcircuit_to_qasm

        return bcircuit_to_qasm(self.bcircuit)

    # -- misc ---------------------------------------------------------------

    def __len__(self) -> int:
        """Stored gates across the hierarchy (not the inlined count)."""
        return len(self.bcircuit)

    def __repr__(self) -> str:
        state = "built" if self._cache is not None else "lazy"
        return f"<Program {self.name!r} ({state})>"


def subroutine(fn: Callable | None = None, *, name: str | None = None):
    """Declare a circuit function as a boxed subcircuit (Section 4.4.4).

    Every call of the decorated function emits a single ``BoxCall`` gate;
    the body is generated once per argument shape.  Declarative equivalent
    of calling ``qc.box(name, fn, *args)`` by hand::

        @subroutine
        def adder(qc, a, b): ...

        adder(qc, x, y)       # emits BoxCall["adder"]
    """

    def decorate(f: Callable):
        box_name = name or f.__name__

        @functools.wraps(f)
        def wrapper(qc: Circ, *args):
            return qc.box(box_name, f, *args)

        wrapper.box_name = box_name  # type: ignore[attr-defined]
        wrapper.__wrapped__ = f
        return wrapper

    return decorate(fn) if fn is not None else decorate


def main(*shapes, name: str | None = None, on_extra: str = "warn"):
    """Declare a program entry point: the decorated function IS a Program.

    ::

        @main(qubit, qubit)
        def bell(qc, a, b):
            qc.hadamard(a)
            qc.qnot(b, controls=a)
            return qc.measure((a, b))

        bell.run(shots=100)        # a Program, pipeline-ready
        bell(qc, a, b)             # still callable inline

    The shapes are the specimens ``build`` would receive.
    """

    def decorate(f: Callable) -> Program:
        return Program.capture(f, *shapes, name=name, on_extra=on_extra)

    return decorate


__all__ = ["Program", "main", "subroutine"]
