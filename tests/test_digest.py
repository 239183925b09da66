"""Program digests and the one per-circuit compile memo.

:meth:`repro.program.Program.digest` is the SHA-256 of a built
circuit's interchange text, so structurally equal circuits digest
equal.  Compiling and running never serialize the hierarchy: the flat
stream is memoized on the circuit by
:func:`repro.transform.inline.compile_flat`, keyed on nothing else.
"""

from __future__ import annotations

import pytest

from repro import Program, obs, qubit
from repro.service.workers import run_program_payload

from families import SIMULATE


def _unregistered_program(name: str = "anon") -> Program:
    def circ(qc, a, b):
        qc.hadamard(a)
        qc.qnot(b, controls=a)
        return qc.measure((a, b))

    return Program.capture(circ, qubit, qubit, name=name)


class TestStructureDigests:
    """A digest hashes the built circuit's interchange text."""

    def test_equal_circuits_digest_equal(self):
        assert (_unregistered_program("x").digest()
                == _unregistered_program("y").digest())


class TestCompileMemo:
    """One compile per circuit object, and no serialization to get it."""

    def test_instance_memo_still_wins_for_repeat_compiles(self):
        program = _unregistered_program()
        with obs.capture() as rec:
            first = program.compiled()
            second = program.compiled()
        assert first is second
        assert rec.counters["cache.compiled_stream.misses"] == 1
        assert rec.counters["cache.compiled_stream.hits"] == 1

    @pytest.mark.parametrize("entry", ["bwt-n2", "cl-w4", "gse-p5"])
    def test_compile_and_run_never_serialize(self, entry, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the hierarchy was serialized")

        monkeypatch.setattr("repro.io.dumps", refuse)
        assert len(SIMULATE[entry]().compiled()) > 0
        run = SIMULATE[entry]().run(shots=64, seed=1)
        assert sum(run.counts.values()) == 64
        payload = run_program_payload(
            SIMULATE[entry](), {"shots": 64, "seed": 1}
        )
        assert sum(payload["counts"].values()) == 64
