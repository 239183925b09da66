"""The liveness rule, pinned across every place that enforces it.

Three callers validate gates against a live-wire map: ``Circuit.check``
on a stored circuit, the ``Circ`` builder as gates are emitted, and the
builder of a fused-pipeline stage when a rule re-emits a gate.  One table
of malformed (and two deliberately legal) gate sequences runs through
all three.  Each case pins the exception class, a wire id (or name) the
message must mention, and, for accepted sequences, the width reached.
Whole messages are not pinned.
"""

from __future__ import annotations

import dataclasses
import random
import re
from collections import Counter
from typing import NamedTuple

import pytest

from repro.core.builder import Circ
from repro.core.circuit import Circuit, Subroutine, _track_wires, track_gate
from repro.core.errors import (
    BoxError,
    CloningError,
    DanglingWiresError,
    DeadWireError,
    QuipperError,
    WireTypeError,
)
from repro.core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    Control,
    Discard,
    Init,
    Measure,
    NamedGate,
    Term,
    map_gate_wires,
)
from repro.core.qdata import bit, qubit
from repro.core.wires import CLASSICAL, QUANTUM, Bit, Qubit
from repro.program import Program
from repro.transform.pipeline import _SharedWires, _Stage, _StageCirc
from strategies import random_circuit, random_gates

Q, C = QUANTUM, CLASSICAL

#: Every case starts from qubits 0 and 1 and the classical wire 2.
INPUTS = ((0, Q), (1, Q), (2, C))


def _namespace() -> dict[str, Subroutine]:
    """``wide``: one in-place qubit plus three ancillas, so width 4;
    ``merge``: two bits in, the first one out."""
    wide = Circuit(
        inputs=((0, Q),),
        gates=[Init(1), Init(2), Init(3), Term(3), Term(2), Term(1)],
        outputs=((0, Q),),
    )
    merge = Circuit(inputs=((0, C), (1, C)), gates=[CDiscard(1)],
                    outputs=((0, C),))
    return {"wide": Subroutine("wide", wide),
            "merge": Subroutine("merge", merge)}


class Case(NamedTuple):
    gates: list
    #: Exception class per path (check, builder, stage); ``None`` means
    #: the sequence is accepted there, ``"n/a"`` that the path has no
    #: equivalent of the rule (the case does not run there).
    raises: tuple
    #: What the message must mention (a wire id or a subroutine name).
    named: object = None
    #: Width reached, for accepted sequences.
    width: int | None = None
    #: Declared outputs; default: the inputs.
    outputs: tuple = INPUTS


def _same(cls):
    return (cls, cls, cls)


CASES = {
    # A dead wire, as target, as control and as a consumed wire.
    "dead-target": Case([NamedGate("H", (7,))], _same(DeadWireError), 7),
    "dead-control": Case([NamedGate("not", (0,), (Control(7),))],
                         _same(DeadWireError), 7),
    "dead-term": Case([Term(7)], _same(DeadWireError), 7),
    "dead-after-term": Case([Term(1), NamedGate("H", (1,))],
                            _same(DeadWireError), 1),
    # The wrong wire type.
    "qubit-gate-on-bit": Case([NamedGate("H", (2,))],
                              _same(WireTypeError), 2),
    "classical-control-on-qubit": Case(
        [NamedGate("not", (0,), (Control(1, True, C),))],
        _same(WireTypeError), 1),
    "measured-then-quantum": Case([Measure(1), NamedGate("H", (1,))],
                                  _same(WireTypeError), 1),
    # A qubit used twice in one gate.
    "target-is-control": Case([NamedGate("not", (0,), (Control(0),))],
                              _same(CloningError), 0),
    "swap-with-itself": Case([NamedGate("swap", (1, 1))],
                             _same(CloningError), 1),
    "control-twice": Case(
        [NamedGate("not", (0,), (Control(1), Control(1, False)))],
        _same(CloningError), 1),
    # A classical wire fanned out within one gate is accepted: here
    # one bit feeds both inputs of a call (3 live - 2 bound + 2 inside).
    "classical-fan-out-call": Case(
        [BoxCall("merge", ((2, C), (2, C)), ((2, C),))], _same(None),
        width=3),
    # An output that re-creates a live wire.
    "init-live-qubit": Case([Init(1)], _same(CloningError), 1),
    "cinit-live-bit": Case([CInit(2)], _same(CloningError), 2),
    "call-returns-onto-live-wire": Case(
        [BoxCall("wide", ((0, Q),), ((1, Q),))], _same(CloningError), 1),
    # Duplicate output wires.
    "call-duplicates-output": Case(
        [BoxCall("wide", ((0, Q),), ((8, Q), (8, Q)))],
        _same(CloningError), 8),
    # Final outputs that do not match the live wires: Circuit.check
    # compares the declared outputs, the builder refuses to drop a live
    # wire, and a pipeline stage never sees declared outputs.
    "outputs-drop-live-wire": Case(
        [], (QuipperError, DanglingWiresError, "n/a"), 1,
        outputs=((0, Q), (2, C))),
    # An undefined subroutine.
    "undefined-subroutine": Case(
        [BoxCall("nowhere", ((0, Q),), ((0, Q),))],
        _same(QuipperError), "nowhere"),
    # A box call's transient width: 3 live - 1 bound + 4 inside = 6.
    "box-transient-width": Case(
        [BoxCall("wide", ((0, Q),), ((0, Q),))], _same(None), width=6),
}


def _via_check(case: Case) -> int:
    return Circuit(INPUTS, list(case.gates), case.outputs).check(
        _namespace()
    )


def _via_builder(case: Case) -> int:
    qc = Circ(namespace=_namespace())
    qc.fresh_like((qubit, qubit, bit))
    qc.snapshot_inputs()
    for gate in case.gates:
        qc._emit_raw(gate)
    outputs = tuple(Qubit(w) if t == Q else Bit(w) for w, t in case.outputs)
    qc.finish(outputs, on_extra="error")
    return qc._max_live


def _reemit(qc, gate):
    qc._emit_raw(gate)
    return True


def _via_stage(case: Case) -> int:
    qc = _StageCirc(_namespace(), INPUTS, _SharedWires(100))
    stage = _Stage(_reemit, qc, [].append)
    for gate in case.gates:
        stage.process(gate)
    return qc._max_live


PATHS = {"check": _via_check, "builder": _via_builder, "stage": _via_stage}


@pytest.mark.parametrize("name,path", [
    (name, path) for name, case in CASES.items()
    for path, expected in zip(PATHS, case.raises) if expected != "n/a"
])
def test_liveness_table(name, path):
    case = CASES[name]
    expected = case.raises[list(PATHS).index(path)]
    if expected is None:
        assert PATHS[path](case) == case.width
        return
    with pytest.raises(expected) as info:
        PATHS[path](case)
    if expected is not QuipperError:
        # The leaf classes are exact; an undefined subroutine may be
        # reported as any QuipperError (BoxError in the builder).
        assert type(info.value) is expected
    assert re.search(rf"\b{re.escape(str(case.named))}\b", str(info.value))


def test_undefined_subroutine_is_a_box_error_in_the_builder():
    with pytest.raises(BoxError):
        _via_builder(CASES["undefined-subroutine"])


#: Gates that read one bit twice and, being in place, list it twice
#: among their outputs too.
ECHOED_FAN_OUT = {
    "cgate": ([CGate("xor", 3, (2, 2))], INPUTS + ((3, C),), 4),
    "controls": ([NamedGate("not", (0,), (Control(2, True, C),
                                          Control(2, False, C)))],
                 INPUTS, 3),
}


@pytest.mark.parametrize("path", list(PATHS))
@pytest.mark.parametrize("name", list(ECHOED_FAN_OUT))
def test_echoed_classical_fan_out_is_accepted(name, path):
    """A fanned-out bit that an in-place gate passes through is not a
    duplicate output (``Circuit.check`` used to reject what the builder
    accepted)."""
    gates, outputs, width = ECHOED_FAN_OUT[name]
    case = Case(gates, _same(None), width=width, outputs=outputs)
    assert PATHS[path](case) == width


def test_fanned_out_bit_may_not_come_out_more_often_than_it_went_in():
    case = Case([BoxCall("merge", ((2, C), (1, Q)), ((2, C), (2, C)))],
                _same(CloningError), 2)
    for path in PATHS.values():
        with pytest.raises(CloningError, match=r"\b2\b"):
            path(case)


# ---------------------------------------------------------------------------
# The in-place path against the general path
# ---------------------------------------------------------------------------


def _walk(step, inputs, gates, outputs, namespace):
    """Verdict, width and last live map of *gates* under one tracking
    function."""
    live = dict(inputs)
    width = len(live)
    try:
        for gate in gates:
            width = max(width, step(live, gate, namespace))
    except QuipperError as exc:
        return type(exc).__name__, str(exc), sorted(live.items())
    verdict = "ok" if live == dict(outputs) else "outputs differ"
    return verdict, width, sorted(live.items())


def _end_state(inputs, gates):
    live = dict(inputs)
    for gate in gates:
        _track_wires(live, gate, {})
    return tuple(sorted(live.items()))


def _insert_at(rnd, inputs, gates, pick):
    """*gates* with ``pick(live)`` inserted at a random index, where
    *live* is the live map there; None if *pick* finds no wire."""
    index = rnd.randrange(len(gates) + 1)
    live = dict(inputs)
    for gate in gates[:index]:
        _track_wires(live, gate, {})
    gate = pick(live)
    if gate is None:
        return None
    gates.insert(index, gate)
    return gates


def _reinit_live_wire(rnd, inputs, gates, top):
    return _insert_at(rnd, inputs, gates,
                      lambda live: Init(rnd.choice(sorted(live))))


def _term_a_bit(rnd, inputs, gates, top):
    def pick(live):
        bits = sorted(w for w, t in live.items() if t == CLASSICAL)
        return Term(rnd.choice(bits)) if bits else None

    return _insert_at(rnd, inputs, gates, pick)


def _term_dead_wire(rnd, inputs, gates, top):
    def pick(live):
        dead = [w for w in range(top + 2) if w not in live]
        return Term(rnd.choice(dead))

    return _insert_at(rnd, inputs, gates, pick)


def _renumber_wire(rnd, inputs, gates, top):
    index = rnd.randrange(len(gates))
    wires = [w for w, _ in gates[index].wires_in() + gates[index].wires_out()]
    if not wires:
        return None
    old, new = rnd.choice(wires), rnd.randrange(top + 2)
    gates[index] = map_gate_wires(gates[index],
                                  lambda w: new if w == old else w)
    return gates


def _duplicate_control(rnd, inputs, gates, top):
    named = [i for i, g in enumerate(gates) if isinstance(g, NamedGate)]
    index = rnd.choice(named)
    gate = gates[index]
    wires = list(gate.targets) + [c.wire for c in gate.controls]
    if not wires:
        return None
    wire = rnd.choice(wires)
    extra = Control(wire, rnd.random() < 0.5,
                    rnd.choice((QUANTUM, CLASSICAL)))
    gates[index] = dataclasses.replace(gate, controls=gate.controls + (extra,))
    return gates


def _drop_term(rnd, inputs, gates, top):
    terms = [i for i, g in enumerate(gates) if isinstance(g, Term)]
    if not terms:
        return None
    del gates[rnd.choice(terms)]
    return gates


CORRUPTIONS = (_renumber_wire, _duplicate_control, _drop_term,
               _reinit_live_wire, _term_a_bit, _term_dead_wire)

#: The one verdict each ``Init``/``Term`` corruption must reach.
_INIT_TERM_VERDICTS = {
    "_reinit_live_wire": "CloningError",
    "_term_a_bit": "WireTypeError",
    "_term_dead_wire": "DeadWireError",
}


def _seeded_inputs():
    """Seeded circuits from the shared strategies, each with one
    corruption of every kind."""
    cases = []
    for seed in range(250):
        rnd = random.Random(f"liveness/{seed}")
        n = rnd.randint(3, 6)
        # gate, ancilla and CInit shares 0.6 + 0.2 + 0.1 leave 0.1 to
        # mid-circuit Measure/Discard.
        gates = random_gates(rnd, n, steps=rnd.randint(10, 40),
                             gate_p=0.6, ancilla_p=0.2)
        inputs = tuple((w, QUANTUM) for w in range(n))
        outputs = _end_state(inputs, gates)
        top = max(w for g in gates
                  for w, _ in g.wires_in() + g.wires_out())
        cases.append(("clean", inputs, gates, outputs))
        for corrupt in CORRUPTIONS:
            broken = corrupt(rnd, inputs, list(gates), top)
            if broken is not None:
                cases.append((corrupt.__name__, inputs, broken, outputs))
    return cases


def test_in_place_path_matches_general_path():
    cases = _seeded_inputs()
    kinds = {kind for kind, *_ in cases}
    assert sum(kind != "clean" for kind, *_ in cases) >= 500
    clean = Counter(
        type(g) for kind, _, gates, _ in cases if kind == "clean"
        for g in gates
    )
    assert clean[Measure] and clean[Discard], clean
    verdicts = set()
    for kind, inputs, gates, outputs in cases:
        fast = _walk(track_gate, inputs, gates, outputs, {})
        general = _walk(_track_wires, inputs, gates, outputs, {})
        assert fast == general, (kind, gates)
        assert fast[0] == _INIT_TERM_VERDICTS.get(kind, fast[0]), kind
        if fast[0] == "ok":
            assert Circuit(inputs, gates, outputs).check() == fast[1]
        else:
            with pytest.raises(QuipperError):
                Circuit(inputs, gates, outputs).check()
        verdicts.add(fast[0])
    # The corruptions reach every verdict the rule can give.
    assert {"ok", "outputs differ", "DeadWireError", "WireTypeError",
            "CloningError"} <= verdicts, verdicts
    assert kinds == {"clean"} | {c.__name__ for c in CORRUPTIONS}


@pytest.mark.parametrize("seed", range(20))
def test_builder_circuits_agree_on_both_paths(seed):
    rnd = random.Random(seed)
    width = rnd.randint(2, 5)
    program = Program.capture(
        lambda qc, qs: random_circuit(qc, qs, rnd, 40), [qubit] * width
    )
    bc = program.bcircuit
    circuit = bc.circuit
    fast = _walk(track_gate, circuit.inputs, circuit.gates,
                 circuit.outputs, bc.namespace)
    general = _walk(_track_wires, circuit.inputs, circuit.gates,
                    circuit.outputs, bc.namespace)
    assert fast == general
    assert fast[:2] == ("ok", bc.check())
