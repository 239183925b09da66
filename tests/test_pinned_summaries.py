"""Hierarchical counts, widths and depths, pinned by SHA-256.

Recorded while count, width, depth and T-depth were each their own walk
of the hierarchy; however they are computed, every fact -- the count
keys in their first-occurrence order included -- must stay the same.
"""

import hashlib
import json

from repro import Program
from repro.transform.inline import inline

from families import COMPILE
from test_depth import _random_controlled_hierarchy, _random_hierarchy


def _facts(program: Program) -> list:
    """Every summary fact of *program*, JSON-ready, in a fixed order."""
    resources = dict(program.resources())
    resources["gate_counts"] = [
        [*key, count] for key, count in resources["gate_counts"].items()
    ]
    return [
        [[*key, count] for key, count in program.count().items()],
        program.width(),
        program.depth(),
        program.t_depth(),
        sorted(resources.items()),
    ]


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


def _checked(program: Program) -> list:
    """:func:`_facts`, after the width and streamed-report identities."""
    bc = program.bcircuit
    assert program.width() == bc.check() == inline(bc).check()
    assert program.resources() == program.stream().resources()
    return _facts(program)


class TestPinnedSummaries:
    def test_seeded_hierarchies(self):
        records = []
        for seed in range(50):
            program = Program.from_bcircuit(_random_hierarchy(seed))
            records.append(["plain", seed, _checked(program)])
        for seed in range(40):
            program = Program.from_bcircuit(_random_controlled_hierarchy(seed))
            records.append(["controlled", seed, _checked(program)])
        assert _digest(records) == (
            "4969e2287f1399934957d0a94f37be704fabb1750e5b1849d6ec7298ff107a8f"
        )

    def test_compile_catalogue_lowered_to_binary(self):
        records = [
            [name, _checked(make().transform("binary"))]
            for name, make in COMPILE.items()
        ]
        assert _digest(records) == (
            "d54b49dbb633dd4cdc73a0d22c43ffaa60c1d29a1c2014894d45e0f1d8c46f46"
        )
