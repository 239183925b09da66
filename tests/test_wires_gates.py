"""Unit tests for wires and the gate IR."""

import dataclasses
import pickle

import pytest

from repro.core.errors import IrreversibleError
from repro.core.gates import (
    BoxCall,
    CDiscard,
    CGate,
    CInit,
    CNot,
    Comment,
    Control,
    CTerm,
    Discard,
    Init,
    Measure,
    NamedGate,
    Term,
    map_gate_wires,
    with_extra_controls,
)
from repro.core.wires import Bit, Qubit

#: One gate of every kind.
ALL_KINDS = [
    NamedGate("H", (0,)),
    Init(1),
    Term(1),
    Discard(2),
    CInit(3),
    CTerm(3),
    CDiscard(3),
    Measure(4),
    CGate("or", 5, (3,)),
    CNot(3, (Control(0),)),
    Comment("c", ((0, "Q", "a"),)),
    BoxCall("b", ((0, "Q"),), ((0, "Q"),)),
]


class TestWires:
    def test_equality_by_id_and_type(self):
        assert Qubit(3) == Qubit(3)
        assert Qubit(3) != Qubit(4)
        assert Qubit(3) != Bit(3)

    def test_hashable(self):
        assert len({Qubit(1), Qubit(1), Bit(1)}) == 2

    def test_repr(self):
        assert repr(Qubit(7)) == "Qubit(7)"
        assert repr(Bit(0)) == "Bit(0)"

    def test_wire_types(self):
        assert Qubit(0).wire_type == "Q"
        assert Bit(0).wire_type == "C"


class TestGateInverses:
    def test_self_inverse_named_gates(self):
        for name in ("H", "X", "not", "Y", "Z", "swap", "W"):
            arity = 2 if name in ("swap", "W") else 1
            gate = NamedGate(name, tuple(range(arity)))
            assert gate.inverse() == gate

    def test_non_self_inverse_toggles_flag(self):
        gate = NamedGate("T", (0,))
        inv = gate.inverse()
        assert inv.inverted
        assert inv.inverse() == gate

    def test_rotation_negates_param(self):
        gate = NamedGate("exp(-i%Z)", (0,), param=0.5)
        inv = gate.inverse()
        assert inv.param == -0.5
        assert not inv.inverted

    def test_init_term_duality(self):
        assert Init(3, True).inverse() == Term(3, True)
        assert Term(3, False).inverse() == Init(3, False)
        assert CInit(2, True).inverse() == CTerm(2, True)

    def test_irreversible_gates(self):
        with pytest.raises(IrreversibleError):
            Measure(0).inverse()
        with pytest.raises(IrreversibleError):
            Discard(0).inverse()

    def test_cgate_inverse_is_uncompute(self):
        gate = CGate("and", 5, (1, 2))
        inv = gate.inverse()
        assert inv.uncompute
        assert inv.inverse() == gate

    def test_boxcall_inverse_swaps_endpoints(self):
        call = BoxCall("f", ((0, "Q"),), ((0, "Q"), (1, "Q")))
        inv = call.inverse()
        assert inv.inverted
        assert inv.in_wires == call.out_wires
        assert inv.out_wires == call.in_wires
        assert inv.inverse() == call


class TestWireAccounting:
    def test_named_gate_wires(self):
        gate = NamedGate("not", (0,), (Control(1), Control(2, False)))
        ids = {w for w, _ in gate.wires_in()}
        assert ids == {0, 1, 2}
        assert gate.wires_in() == gate.wires_out()

    def test_measure_changes_type(self):
        gate = Measure(4)
        assert gate.wires_in() == ((4, "Q"),)
        assert gate.wires_out() == ((4, "C"),)

    def test_init_has_no_inputs(self):
        assert Init(0).wires_in() == ()
        assert Init(0).wires_out() == ((0, "Q"),)

    def test_cgate_uncompute_consumes_target(self):
        gate = CGate("xor", 5, (1,), uncompute=True)
        assert (5, "C") in gate.wires_in()
        assert (5, "C") not in gate.wires_out()


class TestMapWires:
    def test_named(self):
        gate = NamedGate("not", (0,), (Control(1, False),))
        mapped = map_gate_wires(gate, lambda w: w + 10)
        assert mapped.targets == (10,)
        assert mapped.controls[0].wire == 11
        assert not mapped.controls[0].positive

    def test_boxcall(self):
        call = BoxCall("f", ((0, "Q"),), ((1, "Q"),), (Control(2),))
        mapped = map_gate_wires(call, lambda w: w * 2)
        assert mapped.in_wires == ((0, "Q"),)
        assert mapped.out_wires == ((2, "Q"),)
        assert mapped.controls[0].wire == 4

    def test_comment_labels(self):
        comment = Comment("hi", ((3, "Q", "x"),))
        mapped = map_gate_wires(comment, lambda w: w + 1)
        assert mapped.labels == ((4, "Q", "x"),)

    def test_all_kinds_round_trip(self):
        for gate in ALL_KINDS:
            assert map_gate_wires(gate, lambda w: w) == gate


class TestSlottedGates:
    """Gates are slotted: no per-instance ``__dict__``, and everything a
    frozen dataclass offers still holds."""

    @pytest.mark.parametrize("gate", ALL_KINDS, ids=lambda g: type(g).__name__)
    def test_no_instance_dict_and_a_faithful_pickle(self, gate):
        assert not hasattr(gate, "__dict__")
        clone = pickle.loads(pickle.dumps(gate))
        assert clone == gate and hash(clone) == hash(gate)
        assert repr(clone) == repr(gate)
        assert clone.wires_in() == gate.wires_in()
        assert clone.wires_out() == gate.wires_out()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(clone, dataclasses.fields(clone)[0].name, None)

    def test_repr_is_unchanged(self):
        assert repr(NamedGate("T", (2,), (Control(0),), inverted=True)) == (
            "NamedGate['T*'](targets=(2,), controls=(Control(wire=0, "
            "positive=True, wire_type='Q'),))"
        )
        assert repr(Init(1, True)) == "Init(wire=1, value=True)"


class TestExtraControls:
    def test_adds_to_named(self):
        gate = NamedGate("H", (0,))
        controlled = with_extra_controls(gate, (Control(1),))
        assert controlled.controls == (Control(1),)

    def test_skips_init_term(self):
        assert with_extra_controls(Init(0), (Control(1),)) == Init(0)
        assert with_extra_controls(Term(0), (Control(1),)) == Term(0)

    def test_deduplicates(self):
        gate = NamedGate("not", (0,), (Control(1),))
        controlled = with_extra_controls(gate, (Control(1), Control(2)))
        assert len(controlled.controls) == 2

    def test_display_name(self):
        assert NamedGate("T", (0,), inverted=True).display_name() == "T*"
        assert (
            NamedGate("exp(-i%Z)", (0,), param=2.0).display_name()
            == "exp(-i2Z)"
        )
