"""Regenerate ``expected/estimate.json``, cross-checked by brute force.

From the repository root::

    python benchmarks/e2e/make_expected.py

The ``estimate`` workload checks every item against this file.  Each
entry's total and logical gate counts, width and depth come from the
hierarchical consumers the workload times.  Wherever the inlined
circuit has at most ``10**6`` gates they are checked here against a
brute-force walk over ``iter_flat_gates``: counts and width must match
exactly, and the flat depth may not exceed the hierarchical depth
(which makes a box call occupy all its wires for the body's depth), with
equality required for circuits without box calls.  The script refuses
to write the file if any check fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from repro.core.gates import (  # noqa: E402
    BoxCall, CDiscard, CInit, Comment, CTerm, Discard, Init, Measure, Term,
)
from repro.transform.inline import iter_flat_gates  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import EXPECTED, Estimate  # noqa: E402

#: Largest inlined circuit the brute-force walk is run on.
MAX_FLAT = 10 ** 6

_NON_LOGICAL = (Init, Term, CInit, CTerm, Measure, Discard, CDiscard)


def brute_force(bc) -> dict:
    """Count, width and depth by walking every gate of the inlined circuit."""
    live = {w for w, _ in bc.circuit.inputs}
    frontier = dict.fromkeys(live, 0)
    total = logical = depth = 0
    width = len(live)
    for gate in iter_flat_gates(bc):
        if isinstance(gate, Comment):
            continue
        total += 1
        logical += not isinstance(gate, _NON_LOGICAL)
        ins = {w for w, _ in gate.wires_in()}
        outs = {w for w, _ in gate.wires_out()}
        step = 1 + max((frontier.get(w, 0) for w in ins | outs), default=0)
        for wire in ins | outs:
            frontier[wire] = step
        depth = max(depth, step)
        live = (live - ins) | outs
        width = max(width, len(live))
    return {"total": total, "logical": logical, "width": width,
            "depth": depth}


def main() -> int:
    expected, problems = {}, []
    span = NullTracer().span
    for entry, (make, base) in Estimate.catalogue.items():
        measured = Estimate.measure(entry, span)
        expected[entry] = measured
        if measured["total"] > MAX_FLAT:
            print(f"{entry}: {measured} (too large to enumerate)")
            continue
        lowered = make().transform(base).bcircuit
        flat = brute_force(lowered)
        boxed = any(isinstance(g, BoxCall) for g in lowered.circuit.gates)
        for key in ("total", "logical", "width"):
            if flat[key] != measured[key]:
                problems.append(f"{entry}: {key} {measured[key]} != "
                                f"brute force {flat[key]}")
        if flat["depth"] > measured["depth"] or (
            not boxed and flat["depth"] != measured["depth"]
        ):
            problems.append(f"{entry}: depth {measured['depth']} vs "
                            f"brute force {flat['depth']}")
        print(f"{entry}: {measured} (brute force {flat})")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    EXPECTED.parent.mkdir(exist_ok=True)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
