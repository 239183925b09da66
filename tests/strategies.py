"""Shared randomized-circuit strategies for the test suites.

The kernel, optimizer, batched-engine, and QASM round-trip suites all
exercise randomized circuits over the gate vocabulary.  The generators
live here so every suite draws from one seeded, vocabulary-parameterized
source instead of hand-maintained copies:

* :func:`superpose` -- the entangling preamble giving every amplitude a
  distinct value;
* :func:`random_gates` -- gate-level circuits over the whole extended
  model (controls, classical wires, dynamic Init/Term, mid-circuit
  Measure/Discard), with the mix thresholds as knobs so each suite keeps
  its historical distribution;
* :func:`random_circuit` -- builder-level circuits (used through
  ``Program.capture``) biased toward optimizer-relevant structure:
  cancellation fodder, rotation merges, ``with_computed`` blocks;
* :func:`random_qasm_gates` -- gate-level circuits restricted to the
  OpenQASM-2-expressible subset of the vocabulary, for export/import
  round-trip and mutation testing.

Everything is deterministic given the caller's ``random.Random``.
"""

from __future__ import annotations

import math
import random

from repro.core.builder import neg
from repro.core.gates import (
    CDiscard,
    CGate,
    CInit,
    CNot,
    Control,
    CTerm,
    Discard,
    Init,
    Measure,
    NamedGate,
    Term,
)
from repro.core.wires import CLASSICAL
from repro.sim.matrices import _FIXED, gate_matrix_cached

#: Parametrized gate names and a specimen-parameter generator.
PARAMETRIZED = {
    "exp(-i%Z)": lambda rnd: rnd.uniform(-2.0, 2.0),
    "exp(-i%ZZ)": lambda rnd: rnd.uniform(-2.0, 2.0),
    "R(2pi/%)": lambda rnd: float(rnd.randint(1, 6)),
    "rGate": lambda rnd: float(rnd.randint(1, 6)),
    "Rx": lambda rnd: rnd.uniform(-math.pi, math.pi),
    "Ry": lambda rnd: rnd.uniform(-math.pi, math.pi),
    "Rz": lambda rnd: rnd.uniform(-math.pi, math.pi),
    "phase": lambda rnd: rnd.uniform(-math.pi, math.pi),
}

#: Every simulatable gate name: the fixed matrices plus the parametrized
#: family.
VOCABULARY = sorted(set(_FIXED) | set(PARAMETRIZED))


def sample_param(name, rnd):
    """A specimen parameter for *name* (``None`` for fixed gates)."""
    return PARAMETRIZED[name](rnd) if name in PARAMETRIZED else None


def gate_arity(name, param=None, inverted=False):
    """Target count of a vocabulary gate, read off its matrix."""
    return gate_matrix_cached(name, param, inverted).shape[0].bit_length() - 1


def superpose(n):
    """An entangling preamble giving every amplitude a distinct value."""
    gates = [NamedGate("H", (w,)) for w in range(n)]
    for w in range(n):
        gates.append(NamedGate("Rz", ((w + 1) % n,), param=0.3 + 0.4 * w))
        gates.append(NamedGate("T", (w,), controls=(Control((w + 1) % n),)))
    return gates


def random_gates(
    rnd,
    n_qubits,
    *,
    steps=40,
    gate_p=0.70,
    ancilla_p=0.10,
    cinit_p=0.10,
    classical_control_p=0.3,
    measure_p=0.5,
    fresh_p=0.0,
    max_controls=2,
    logic_p=0.0,
):
    """A random gate list over the whole extended circuit model.

    Starts from :func:`superpose`, then draws *steps* events: vocabulary
    gates with up to *max_controls* random quantum controls, random classical
    controls and inversion (probability *gate_p*), Init/controlled-T/Term
    ancilla triples (*ancilla_p*), fresh classical wires via ``CInit``
    (*cinit_p*), fresh qubits via ``Init`` that stay live until measured
    or discarded (*fresh_p*, off by default), classical logic on the
    measured and ``CInit`` bits (*logic_p*, off by default: see
    :func:`_logic_gate`), and otherwise mid-circuit ``Measure``/``Discard``
    of a live qubit.  The probabilities are the knobs the historical
    per-suite copies differed by; the structure is shared.  A knob at 0
    draws nothing, so a suite that leaves it off draws what it drew
    before the knob existed.
    """
    gates = list(superpose(n_qubits))
    next_wire = n_qubits
    live = list(range(n_qubits))
    classical = []
    known = {}  # classical wire -> its value, where every shot agrees
    gate_t = gate_p
    ancilla_t = gate_p + ancilla_p
    cinit_t = gate_p + ancilla_p + cinit_p
    fresh_t = cinit_t + fresh_p
    logic_t = fresh_t + logic_p
    for _ in range(steps):
        kind = rnd.random()
        if kind < gate_t and len(live) >= 2:
            name = rnd.choice(VOCABULARY)
            param = sample_param(name, rnd)
            arity = gate_arity(name, param)
            if arity > len(live):
                continue
            picks = rnd.sample(live, min(len(live), arity + max_controls))
            targets = tuple(picks[:arity])
            controls = []
            for extra in picks[arity:]:
                if rnd.random() < 0.5:
                    controls.append(Control(extra, rnd.random() < 0.5))
            if classical and rnd.random() < classical_control_p:
                controls.append(
                    Control(rnd.choice(classical), rnd.random() < 0.5,
                            CLASSICAL)
                )
            gates.append(
                NamedGate(
                    name, targets, tuple(controls),
                    inverted=rnd.random() < 0.3, param=param,
                )
            )
        elif kind < ancilla_t:
            # Dynamic allocation: Init an ancilla, use it only as a
            # control (so it stays in its basis state), Term it back.
            value = rnd.random() < 0.5
            ancilla = next_wire
            next_wire += 1
            gates.append(Init(ancilla, value))
            gates.append(
                NamedGate("T", (rnd.choice(live),),
                          (Control(ancilla, True),))
            )
            gates.append(Term(ancilla, value))
        elif kind < cinit_t:
            classical.append(next_wire)
            known[next_wire] = rnd.random() < 0.5
            gates.append(CInit(next_wire, known[next_wire]))
            next_wire += 1
        elif kind < fresh_t:
            live.append(next_wire)
            gates.append(Init(next_wire, rnd.random() < 0.5))
            next_wire += 1
        elif kind < logic_t:
            if classical:
                gates.append(_logic_gate(rnd, classical, known, next_wire))
                next_wire += 1
        elif len(live) > 2:
            # Mid-circuit measurement / discard.
            victim = rnd.choice(live)
            live.remove(victim)
            if rnd.random() < measure_p:
                gates.append(Measure(victim))
                classical.append(victim)
            else:
                gates.append(Discard(victim))
    return gates


#: The classical functions of ``CGate``, each with its input count
#: (None: one to three) and its value on known inputs.
_CGATES = {
    "and": (None, all),
    "or": (None, any),
    "xor": (None, lambda values: sum(values) % 2 == 1),
    "not": (1, lambda values: not values[0]),
    "eq": (2, lambda values: values[0] == values[1]),
}


def _logic_gate(rnd, classical, known, fresh):
    """One classical gate over the live bits *classical*: a ``CGate``
    into the new wire *fresh*, a ``CNot`` with classical controls only,
    or the end of a bit: a ``CTerm`` asserting a value every shot
    agrees on (*known*, kept up to date here), else a ``CDiscard``."""
    roll = rnd.random()
    if roll < 0.4:
        name = rnd.choice(sorted(_CGATES))
        arity, value = _CGATES[name]
        arity = arity or rnd.randint(1, 3)
        if arity > len(classical):
            name, arity, value = "not", 1, _CGATES["not"][1]
        inputs = tuple(rnd.sample(classical, arity))
        classical.append(fresh)
        if all(w in known for w in inputs):
            known[fresh] = value([known[w] for w in inputs])
        return CGate(name, fresh, inputs)
    if roll < 0.7:
        target = rnd.choice(classical)
        others = [w for w in classical if w != target]
        picked = rnd.sample(others, min(len(others), rnd.randint(0, 2)))
        controls = tuple(Control(w, rnd.random() < 0.5, CLASSICAL)
                         for w in picked)
        if target in known and all(c.wire in known for c in controls):
            known[target] ^= all(known[c.wire] == c.positive
                                 for c in controls)
        else:
            known.pop(target, None)
        return CNot(target, controls)
    victim = rnd.choice(classical)
    classical.remove(victim)
    if victim in known:
        return CTerm(victim, known.pop(victim))
    return CDiscard(victim)


#: Builder-level name pools (the optimizer suite's historical mix).
PLAIN_NAMES = ("X", "Y", "Z", "H", "S", "T", "V", "E", "iX")
ROTATION_NAMES = ("Rz", "Rx", "Ry", "exp(-i%Z)")


def random_circuit(qc, qs, rnd: random.Random, length: int):
    """A random builder-level circuit biased toward optimizer structure.

    Emits plain/rotation gates with 0-2 positive/negative controls,
    deliberate cancellation fodder (a gate then its inverse), swap/W
    pairs, and ``with_computed`` ancilla blocks.  Use through
    ``Program.capture(lambda qc, qs: random_circuit(qc, qs, rnd, n),
    [qubit] * width)``.
    """
    wires = list(qs)

    def pick_controls(exclude):
        pool = [q for q in wires if q is not exclude]
        rnd.shuffle(pool)
        picked = pool[: rnd.randint(0, 2)]
        return [q if rnd.random() < 0.7 else neg(q) for q in picked] or None

    for _ in range(length):
        roll = rnd.random()
        target = rnd.choice(wires)
        if roll < 0.35:
            qc.named_gate(
                rnd.choice(PLAIN_NAMES), target,
                controls=pick_controls(target),
                inverted=rnd.random() < 0.3,
            )
        elif roll < 0.60:
            name = rnd.choice(ROTATION_NAMES)
            param = rnd.choice(
                [rnd.uniform(-3.0, 3.0), math.pi / 2, math.pi / 4,
                 -math.pi / 2, math.pi]
            )
            qc.named_gate(
                name, target, controls=pick_controls(target), param=param
            )
        elif roll < 0.75:
            # Deliberate cancellation fodder: a gate then its inverse.
            name = rnd.choice(PLAIN_NAMES)
            controls = pick_controls(target)
            qc.named_gate(name, target, controls=controls)
            qc.named_gate(
                name, target, controls=controls,
                inverted=name not in ("X", "Y", "Z", "H"),
            )
        elif roll < 0.85:
            other = rnd.choice([q for q in wires if q is not target])
            qc.named_gate(
                rnd.choice(("swap", "W")), target, other, controls=None
            )
        else:
            # An ancilla-scoped compute/act/uncompute block.
            def compute():
                anc = qc.qinit_qubit(False)
                qc.qnot(anc, controls=(target,))
                return anc

            def act(anc):
                qc.gate_T(anc)
                qc.gate_Z(rnd.choice(wires), controls=anc)
                return None

            qc.with_computed(compute, act)
            # with_computed leaves the replayed Init's inverse (a Term)
            # closing the ancilla.
    return qs


#: The OpenQASM-2-expressible subset: names the exporter can emit in
#: uncontrolled form (everything simulatable), and the control shapes it
#: can encode (at most one quantum control for these names, two for X,
#: at most one classical control on any gate).
QASM_CONTROLLABLE = ("X", "not", "Y", "Z", "H", "Rz", "R(2pi/%)", "rGate",
                     "swap")
QASM_UNCONTROLLED = tuple(
    n for n in VOCABULARY if n not in ("omega", "phase")
) + ("phase",)


def random_qasm_gates(rnd, n_qubits, *, steps=30, measure_p=0.12):
    """A random gate list restricted to the QASM-2-exportable dialect.

    Every qubit stays an input (no Init/Term: the importer models all
    ``qreg`` qubits as circuit inputs, so keeping the generator
    allocation-free makes export -> import -> export structurally
    byte-stable).  Mid-circuit measurement and single-classical-control
    guards are included; gate/control shapes follow the exporter's
    encodable subset.
    """
    gates = []
    live = list(range(n_qubits))
    classical = []
    for _ in range(steps):
        roll = rnd.random()
        if roll < measure_p and len(live) > 2:
            victim = rnd.choice(live)
            live.remove(victim)
            gates.append(Measure(victim))
            classical.append(victim)
            continue
        if roll < 2 * measure_p and classical and len(live) >= 1:
            # A classically-guarded gate.
            name = rnd.choice(QASM_CONTROLLABLE[:6])
            param = sample_param(name, rnd)
            arity = gate_arity(name, param)
            if arity > len(live):
                continue
            targets = tuple(rnd.sample(live, arity))
            guard = Control(rnd.choice(classical), rnd.random() < 0.5,
                            CLASSICAL)
            gates.append(NamedGate(name, targets, (guard,), param=param))
            continue
        name = rnd.choice(QASM_UNCONTROLLED)
        param = sample_param(name, rnd)
        arity = gate_arity(name, param)
        if arity > len(live):
            continue
        targets = tuple(rnd.sample(live, arity))
        controls = ()
        if name in QASM_CONTROLLABLE and len(live) > arity:
            pool = [w for w in live if w not in targets]
            max_ctls = 2 if name in ("X", "not") else 1
            n_ctls = rnd.randint(0, min(max_ctls, len(pool)))
            picked = rnd.sample(pool, n_ctls)
            controls = tuple(
                Control(w, rnd.random() < 0.7) for w in picked
            )
        inverted = (
            rnd.random() < 0.3
            if name in ("S", "T", "V", "E", "W", "iX") and not controls
            else False
        )
        gates.append(
            NamedGate(name, targets, controls, inverted=inverted,
                      param=param)
        )
    return gates
