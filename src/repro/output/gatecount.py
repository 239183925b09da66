"""Gate-count reports in the paper's ``-f gatecount`` format (Section 5.3.1).

Example output for ``o4_POW17`` in the paper::

    Aggregated gate count:
    1636: "Init0"
    3484: "Not", controls 1
    288: "Not" controls 1+1
    2592: "Not", controls 2
    1632: "Term0"
    Total gates: 9632
    Inputs: 4
    Outputs: 8
    Qubits in circuit: 71
"""

from __future__ import annotations

from collections import Counter

from ..core.circuit import BCircuit
from ..transform.count import subroutine_gate_counts, total_gates
from ..transform.summary import summarize


def _fmt_key(name: str, pos: int, neg: int) -> str:
    if pos == 0 and neg == 0:
        return f'"{name}"'
    if neg == 0:
        return f'"{name}", controls {pos}'
    return f'"{name}", controls {pos}+{neg}'


def format_gatecount(bc: BCircuit, per_subroutine: bool = False) -> str:
    """Render the aggregated gate count of a circuit hierarchy.

    With ``per_subroutine`` a count is printed for each boxed subcircuit
    first, then the aggregate, matching the paper's description of the
    ``-f gatecount`` command-line option.
    """
    summary = summarize(bc)
    lines: list[str] = []
    if per_subroutine:
        for name, counts in sorted(subroutine_gate_counts(bc).items()):
            lines.append(f'Subroutine "{name}" gate count:')
            lines.extend(_format_counts(counts))
            lines.append("")
    lines += format_totals(summary.counts, bc.circuit.in_arity,
                           bc.circuit.out_arity, summary.width)
    return "\n".join(lines)


def format_totals(counts: Counter, inputs: int, outputs: int,
                  width: int) -> list[str]:
    """The aggregate lines of a report: counts, total, arities, width."""
    return ["Aggregated gate count:", *_format_counts(counts),
            f"Total gates: {total_gates(counts)}", f"Inputs: {inputs}",
            f"Outputs: {outputs}", f"Qubits in circuit: {width}"]


def _format_counts(counts: Counter) -> list[str]:
    return [
        f"{count}: {_fmt_key(name, pos, neg)}"
        for (name, pos, neg), count in sorted(counts.items())
    ]


def gatecount_generic(fn, *shape_args) -> Counter:
    """Generate the circuit of *fn* and return its aggregated gate count.

    Deprecation shim: the fluent equivalent is
    ``Program.capture(fn, *shape_args).count()``.
    """
    from ..program import Program

    return Program.capture(fn, *shape_args).count()


def print_gatecount(fn, *shape_args, per_subroutine: bool = False) -> BCircuit:
    """Generate the circuit of *fn*, print its gate-count report.

    Deprecation shim: the fluent equivalent is
    ``print(Program.capture(fn, *shape_args).gatecount())``.
    """
    from ..program import Program

    program = Program.capture(fn, *shape_args)
    print(program.gatecount(per_subroutine=per_subroutine))
    return program.bcircuit
