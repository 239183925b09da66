"""Circuit interchange: Quipper-ASCII round-trip and OpenQASM 2 export.

Hierarchical circuits can be persisted to text and reloaded *without
inlining*::

    from repro import build, qubit
    from repro.io import dumps, loads

    bc, _ = build(my_circuit, qubit, qubit)
    text = dumps(bc)          # Quipper-ASCII, boxed subroutines intact
    again = loads(text)
    assert again == bc

:func:`dumps` extends the plain :func:`repro.output.ascii.format_bcircuit`
text with one ``Shape:`` line per subroutine definition, recording the
boxed interface (the typed argument structure) so that the reloaded
namespace compares equal to the original -- the printer alone only records
the flat wire lists.  :func:`loads` accepts both flavours: text without
``Shape:`` lines (e.g. captured from ``print_generic``) still parses, its
subroutines just carry ``None`` shapes.

For interchange with the wider toolchain,
:func:`repro.io.bcircuit_to_qasm` emits flat OpenQASM 2.0 (see
:mod:`repro.io.qasm` for the mapping) and :func:`repro.io.parse_qasm`
reads OpenQASM 2.0 back into the extended circuit model (see
:mod:`repro.io.qasm_parser`).  Export inlines the box hierarchy away,
but the round trip is byte-stable -- exporting, importing, and
exporting again reproduces the first export exactly -- and the
``equiv`` backend (:mod:`repro.backends.equiv`) can prove the re-import
equivalent to the original.
"""

from __future__ import annotations

import os
from io import StringIO

from ..core.circuit import BCircuit
from ..core.stream import replay_bcircuit
from ..output.ascii import AsciiStreamWriter
from .ascii_parser import AsciiParseError, parse_bcircuit
from .qasm import QasmExportError, QasmStreamWriter, bcircuit_to_qasm
from .qasm_parser import QasmParseError, parse_qasm

__all__ = [
    "AsciiParseError",
    "QasmExportError",
    "QasmParseError",
    "QasmStreamWriter",
    "bcircuit_to_qasm",
    "dump",
    "dumps",
    "load",
    "loads",
    "parse_qasm",
]


def dumps(bc: BCircuit) -> str:
    """Serialize a hierarchical circuit to Quipper-ASCII text.

    The output is :func:`repro.output.ascii.format_bcircuit` plus a
    ``Shape:`` line per subroutine, and is accepted by :func:`loads` such
    that ``loads(dumps(bc)) == bc`` for any builder-produced circuit.
    It is the interchange :class:`~repro.output.ascii.AsciiStreamWriter`
    replayed into a string.
    """
    writer = AsciiStreamWriter(StringIO(), interchange=True)
    return replay_bcircuit(bc, writer).getvalue()


def loads(text: str, check: bool = True) -> BCircuit:
    """Parse Quipper-ASCII text back into a hierarchical circuit.

    Inverse of :func:`dumps`; also accepts the plain printer output
    (without ``Shape:`` lines).  With ``check`` (default) the result is
    validated by :meth:`~repro.core.circuit.BCircuit.check`.
    """
    return parse_bcircuit(text, check=check)


def dump(bc: BCircuit, path: str | os.PathLike) -> None:
    """Write :func:`dumps` output to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(bc))


def load(path: str | os.PathLike, check: bool = True) -> BCircuit:
    """Read a Quipper-ASCII file written by :func:`dump` (or captured
    from the printer) back into a hierarchical circuit."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read(), check=check)
