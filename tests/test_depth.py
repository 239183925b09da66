"""Tests for hierarchical circuit-depth estimation."""

import random

import pytest

from repro import build, neg, qubit
from repro.transform.count import aggregate_gate_count, count_circuit_flat
from repro.transform.depth import circuit_depth, t_depth
from repro.transform.inline import inline


def test_sequential_gates_add_depth():
    def circ(qc, a):
        qc.hadamard(a)
        qc.gate_T(a)
        qc.gate_S(a)
        return a

    bc, _ = build(circ, qubit)
    assert circuit_depth(bc) == 3


def test_parallel_gates_share_a_step():
    def circ(qc, a, b, c):
        qc.hadamard(a)
        qc.hadamard(b)
        qc.hadamard(c)
        return a, b, c

    bc, _ = build(circ, qubit, qubit, qubit)
    assert circuit_depth(bc) == 1


def test_controls_synchronize_wires():
    def circ(qc, a, b):
        qc.hadamard(a)       # step 1 on a
        qc.qnot(b, controls=a)  # step 2 on both
        qc.hadamard(a)       # step 3 on a
        qc.hadamard(b)       # step 3 on b (parallel)
        return a, b

    bc, _ = build(circ, qubit, qubit)
    assert circuit_depth(bc) == 3


def test_comments_are_free():
    def circ(qc, a):
        qc.comment("x")
        qc.hadamard(a)
        qc.comment("y")
        return a

    bc, _ = build(circ, qubit)
    assert circuit_depth(bc) == 1


def test_box_depth_multiplies_repetitions():
    def body(qc, a):
        qc.hadamard(a)
        qc.gate_T(a)
        return a

    def circ(qc, a):
        return qc.nbox("b", 1000, body, a)

    bc, _ = build(circ, qubit)
    assert circuit_depth(bc) == 2000


def test_trillion_scale_depth_is_cheap():
    def body(qc, a):
        qc.hadamard(a)
        return a

    def mid(qc, a):
        return qc.nbox("inner", 10 ** 7, body, a)

    def circ(qc, a):
        return qc.nbox("outer", 10 ** 7, mid, a)

    bc, _ = build(circ, qubit)
    assert circuit_depth(bc) == 10 ** 14


def test_independent_boxes_run_in_parallel():
    def body(qc, a):
        for _ in range(5):
            qc.hadamard(a)
        return a

    def circ(qc, a, b):
        qc.box("f", body, a)
        qc.box("f", body, b)
        return a, b

    bc, _ = build(circ, qubit, qubit)
    assert circuit_depth(bc) == 5


def test_t_depth_counts_only_t_gates():
    def circ(qc, a, b):
        qc.hadamard(a)
        qc.gate_T(a)
        qc.qnot(b, controls=a)
        qc.gate_T(b)
        qc.gate_T(a)
        return a, b

    bc, _ = build(circ, qubit, qubit)
    # a: T ... T (2 sequential); b's T depends on the CNOT after a's first T
    assert t_depth(bc) == 2
    assert circuit_depth(bc) == 4


def test_depth_of_real_oracle():
    from repro.algorithms.tf.main import build_part

    bc = build_part("pow17", 4, 3, 2, "orthodox")
    depth = circuit_depth(bc)
    from repro import aggregate_gate_count, total_gates

    total = total_gates(aggregate_gate_count(bc))
    assert 0 < depth <= total  # depth never exceeds gate count
    assert depth > 100  # the arithmetic is deeply sequential


def test_box_returning_a_t_ancilla_keeps_its_t_depth():
    """A box call occupies its fresh out-wires too: the caller's T on the
    returned ancilla follows the body's two T steps on it."""

    def body(qc, a):
        anc = qc.qinit_qubit(False)
        qc.gate_T(a)
        qc.qnot(anc, controls=a)
        qc.gate_T(anc)
        return a, anc

    def circ(qc, a):
        a, anc = qc.box("body", body, a)
        qc.gate_T(anc)
        return a, anc

    bc, _ = build(circ, qubit)
    assert t_depth(bc) == t_depth(inline(bc)) == 3


def test_controlled_call_costs_its_body_depth():
    """The hierarchical estimate costs a controlled call at its body's own
    depth, as if the control were fanned out to the body's gates.
    Inlining gives every body gate the one control wire instead, which
    serializes them, so here the inlined circuit is deeper."""

    def body(qc, a, b):
        qc.hadamard(a)
        qc.hadamard(b)
        return a, b

    def circ(qc, a, b, c):
        with qc.controls(c):
            qc.box("f", body, a, b)
        return a, b, c

    bc, _ = build(circ, qubit, qubit, qubit)
    assert circuit_depth(bc) == 1
    assert circuit_depth(inline(bc)) == 2


def test_controlled_call_count_matches_inlined_count():
    def body(qc, a):
        qc.hadamard(a)
        return a

    def circ(qc, a, c):
        with qc.controls(c):
            qc.box("f", body, a)
        return a, c

    bc, _ = build(circ, qubit, qubit)
    assert aggregate_gate_count(bc) == count_circuit_flat(inline(bc).circuit)


# -- hierarchy vs brute-force enumeration of the inlined circuit ------------

_OPS = ("H", "S", "T", "T*", "CX", "CT")


def _draw_ops(rnd, width, length):
    """Random ``(kind, target, control)`` ops over *width* wires."""
    ops = []
    for _ in range(length):
        target = rnd.randrange(width)
        others = [w for w in range(width) if w != target]
        control = rnd.choice(others) if others else None
        ops.append((rnd.choice(_OPS), target, control))
    return ops


def _apply(qc, qs, ops):
    for kind, target, control in ops:
        q = qs[target]
        ctl = qs[control] if kind.startswith("C") and control is not None else None
        if kind == "H":
            qc.hadamard(q)
        elif kind == "S":
            qc.gate_S(q)
        elif kind == "CX":
            qc.qnot(q, controls=ctl)
        else:
            qc.gate_T(q, controls=ctl, inverted=kind == "T*")


def _random_hierarchy(seed):
    """A small seeded hierarchy: nested box calls that are inverted,
    repeated and ancilla-allocating, plus a box returning a fresh wire."""
    rnd = random.Random(seed)
    n = rnd.randint(2, 4)
    arity = rnd.randint(1, min(2, n - 1))
    step_ops = _draw_ops(rnd, arity + 1, rnd.randint(1, 5))
    action_ops = _draw_ops(rnd, arity, rnd.randint(0, 3))
    outer_ops = _draw_ops(rnd, arity, rnd.randint(0, 3))
    fresh_ops = _draw_ops(rnd, arity + 1, rnd.randint(1, 4))
    step_reps = rnd.randint(1, 3)

    def step(qc, qs):
        # The ancilla is born and terminated inside the compute block, so
        # the uncompute re-creates it under the same wire id.
        def compute():
            with qc.ancilla() as anc:
                _apply(qc, [*qs, anc], step_ops)

        qc.with_computed(compute, lambda _: _apply(qc, qs, action_ops))
        return qs

    def outer(qc, qs):
        _apply(qc, qs, outer_ops)
        return qc.nbox("step", step_reps, step, qs)

    def fresh(qc, qs):
        anc = qc.qinit_qubit(False)
        _apply(qc, [*qs, anc], fresh_ops)
        return qs, anc

    plan = [
        (rnd.choice(("gates", "outer", "fresh")), rnd.sample(range(n), arity),
         rnd.randint(1, 3), rnd.random() < 0.4, _draw_ops(rnd, n, 2))
        for _ in range(rnd.randint(2, 6))
    ]

    def main(qc, qs):
        born = []
        for kind, pick, reps, inverted, ops in plan:
            args = [qs[i] for i in pick]
            if kind == "gates":
                _apply(qc, qs, ops)
            elif kind == "fresh":
                _, anc = qc.box("fresh", fresh, args)
                qc.gate_T(anc)
                born.append(anc)
            elif inverted:
                qc.reverse_endo(
                    lambda qc2, a, reps=reps: qc2.nbox("outer", reps, outer, a),
                    args,
                )
            else:
                qc.nbox("outer", reps, outer, args)
        return qs, born

    bc, _ = build(main, [qubit] * n)
    return bc


@pytest.mark.parametrize("seed", range(50))
def test_hierarchy_matches_inlined_enumeration(seed):
    """Counts are exact; depth and T-depth never undercut the inlined
    circuit, since a box call synchronizes every wire it touches.
    Controlled calls are not drawn: the hierarchy costs them without
    their controls (the two controlled-call tests above)."""
    bc = _random_hierarchy(seed)
    flat = inline(bc)
    assert aggregate_gate_count(bc) == count_circuit_flat(flat.circuit)
    assert circuit_depth(flat) <= circuit_depth(bc)
    assert t_depth(flat) <= t_depth(bc)


def _random_controlled_hierarchy(seed):
    """A small seeded hierarchy whose calls carry positive and negative
    controls: ``mid`` calls ``leaf`` under a control of its own (nested),
    and main calls either box, repeated and possibly inverted, under one
    or two controls."""
    rnd = random.Random(f"controlled/{seed}")
    n = rnd.randint(4, 5)
    leaf_ops = _draw_ops(rnd, 3, rnd.randint(1, 5))
    mid_ops = _draw_ops(rnd, 3, rnd.randint(0, 3))
    leaf_reps = rnd.randint(1, 3)
    mid_positive = rnd.random() < 0.5

    def leaf(qc, qs):
        with qc.ancilla() as anc:
            _apply(qc, [*qs, anc], leaf_ops)
        return qs

    def mid(qc, qs):
        a, b, c = qs
        _apply(qc, qs, mid_ops)
        with qc.controls(c if mid_positive else neg(c)):
            qc.nbox("leaf", leaf_reps, leaf, [a, b])
        return qs

    plan = []
    for _ in range(rnd.randint(1, 4)):
        name = rnd.choice(("leaf", "mid"))
        wires = rnd.sample(range(n), n)
        arity = 2 if name == "leaf" else 3
        controls = [(w, rnd.random() < 0.5)
                    for w in wires[arity:arity + rnd.randint(1, 2)]]
        plan.append((name, wires[:arity], controls, rnd.random() < 0.5,
                     rnd.randint(1, 3)))

    def main(qc, qs):
        for name, pick, controls, inverted, reps in plan:
            fn = leaf if name == "leaf" else mid

            def call(qc2, args, name=name, fn=fn, reps=reps):
                return qc2.nbox(name, reps, fn, args)

            args = [qs[i] for i in pick]
            with qc.controls([qs[w] if positive else neg(qs[w])
                              for w, positive in controls]):
                if inverted:
                    qc.reverse_endo(call, args)
                else:
                    call(qc, args)
        return qs

    bc, _ = build(main, [qubit] * n)
    return bc


@pytest.mark.parametrize("seed", range(40))
def test_controlled_calls_count_like_the_inlined_circuit(seed):
    """A call's controls reach every named gate of its body, nested calls
    included, whether the call is inverted or repeated."""
    bc = _random_controlled_hierarchy(seed)
    assert aggregate_gate_count(bc) == count_circuit_flat(inline(bc).circuit)


def test_controlled_draws_cover_every_call_shape():
    from repro.core.gates import BoxCall

    calls = [g for seed in range(40)
             for g in _random_controlled_hierarchy(seed).circuit.gates
             if isinstance(g, BoxCall)]
    assert any(any(c.positive for c in g.controls) for g in calls)
    assert any(any(not c.positive for c in g.controls) for g in calls)
    assert any(g.inverted for g in calls)
    assert any(g.repetitions > 1 for g in calls)
    assert any(g.name == "mid" for g in calls)
    assert all(g.controls for g in calls)
