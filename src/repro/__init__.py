"""repro: a Python reproduction of Quipper (PLDI 2013).

Quipper is a scalable, expressive, functional, higher-order quantum
programming language, embedded in Haskell.  This package re-creates it as a
Python-embedded language: the extended circuit model (qubit initialization,
assertive termination, measurement, classical wires, classically-controlled
gates), the generation/execution phase distinction with dynamic lifting,
block structure and whole-circuit operators, hierarchical boxed subcircuits
scaling to trillions of gates, extensible quantum data types, automatic
oracle generation from classical code, simulators, and the seven algorithm
implementations of the paper's evaluation (BWT, BF, CL, GSE, QLS, USV, TF).

Quickstart::

    from repro import Program, qubit

    def mycirc(qc, a, b):
        qc.hadamard(a)
        qc.hadamard(b)
        qc.controlled_not(a, b)
        return a, b

    prog = Program.capture(mycirc, qubit, qubit)
    result = prog.run(shots=1024, seed=7)
    print(result.counts)            # e.g. {'00': 270, '01': 243, ...}

One definition is *the* program, consumed interchangeably by every
pipeline stage and consumer (:mod:`repro.program`)::

    prog.print()                          # ASCII rendering
    prog.count()                          # hierarchical gate count
    prog.transform("binary").depth()      # decompose (one fused pass), then estimate
    prog.run("resources").resources       # static cost report
    prog.dumps()                          # Quipper-ASCII interchange text

``prog.transform(r1, ..., rk)`` fuses the rule chain into a single
traversal of the box hierarchy -- the legacy ``transform_bcircuit`` cost
one full rewrite per rule.

The historical free functions (``build``, ``print_generic``,
``run_generic``, ``gatecount_generic``, ``transform_bcircuit``) remain as
thin shims over the same machinery.  Execution stays pluggable: every
consumer of a generated circuit -- dense statevector simulation,
stabilizer simulation, boolean evaluation, resource estimation -- is a
named backend behind :func:`~repro.backends.get_backend`.  Circuits
serialize to Quipper-ASCII text and back without inlining
(:func:`repro.io.dumps` / :func:`repro.io.loads`), and export to OpenQASM
2.0 (:func:`repro.io.bcircuit_to_qasm`).
"""

from .backends import (
    Backend,
    BackendError,
    RunResult,
    available_backends,
    get_backend,
    register_backend,
)
from .core import (
    BCircuit,
    Bit,
    Circ,
    Circuit,
    Qubit,
    QuipperError,
    Signed,
    bit,
    build,
    neg,
    qubit,
)
from .transform import (
    BINARY,
    TOFFOLI,
    aggregate_gate_count,
    decompose_generic,
    inline,
    reverse_bcircuit,
    total_gates,
    total_logical_gates,
    transform_bcircuit_fused,
)
from .optimize import (
    PeepholeOptimizer,
    PeepholePass,
    StreamOptimizer,
    optimize_bcircuit,
)
from . import obs
from .program import Program, main, subroutine
from .streaming import GateStream

__version__ = "1.4.0"


def run_generic(
    fn,
    *shape_args,
    backend: str = "statevector",
    shots: int | None = None,
    in_values: dict[int, bool] | None = None,
    seed: int | None = None,
    **options,
) -> RunResult:
    """Generate the circuit of *fn* and execute it on a named backend.

    Deprecation shim: the fluent equivalent is
    ``Program.capture(fn, *shape_args).run(backend, shots=..., seed=...)``,
    which additionally caches the generated circuit for reuse by other
    consumers.  With ``shots`` the result carries a counts dictionary over
    the circuit's output wires; without, each backend returns its natural
    deterministic result (statevector, bits, or resources).

    This entry point covers *static* circuits.  Circuits that need
    dynamic lifting (measurement outcomes steering generation) cannot be
    built ahead of execution -- use :func:`repro.sim.run_generic`, which
    interleaves the two phases, for those.
    """
    return Program.capture(fn, *shape_args).run(
        backend, shots=shots, in_values=in_values, seed=seed, **options
    )


__all__ = [
    "Program",
    "GateStream",
    "main",
    "subroutine",
    "Circ",
    "build",
    "qubit",
    "bit",
    "Qubit",
    "Bit",
    "Signed",
    "neg",
    "Circuit",
    "BCircuit",
    "QuipperError",
    "Backend",
    "BackendError",
    "RunResult",
    "available_backends",
    "get_backend",
    "register_backend",
    "run_generic",
    "aggregate_gate_count",
    "total_gates",
    "total_logical_gates",
    "decompose_generic",
    "inline",
    "reverse_bcircuit",
    "transform_bcircuit_fused",
    "PeepholeOptimizer",
    "PeepholePass",
    "StreamOptimizer",
    "optimize_bcircuit",
    "TOFFOLI",
    "BINARY",
    "obs",
    "__version__",
]
