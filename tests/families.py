"""The seven algorithm families of the end-to-end benchmark's catalogues.

Each entry is named as ``benchmarks/e2e/workloads.py`` names it and maps
to a factory building a fresh :class:`~repro.program.Program` with the
same parameters, so a test can run the programs the benchmark times
without importing the benchmark harness.
"""

from __future__ import annotations

from repro import Program
from repro.algorithms.bf.main import hex_oracle_program
from repro.algorithms.bwt.main import bwt_program
from repro.algorithms.cl.regulator import period_finding_circuit
from repro.algorithms.gse.main import gse_program
from repro.algorithms.qls.main import hhl_program
from repro.algorithms.tf.main import part_program
from repro.algorithms.usv.lattice import parity_kernel_matrix, planted_instance
from repro.algorithms.usv.usv import coset_sampling_circuit


def tf(part: str, l: int, n: int = 3, r: int = 2):
    return lambda: part_program(part, l, n, r, "orthodox")


def bwt(n: int):
    return lambda: bwt_program(n, 1, 0.1)


def bf(rows: int, cols: int):
    return lambda: hex_oracle_program(rows, cols)


def gse(precision: int):
    return lambda: gse_program(precision, 0.8, 4)


def cl(width: int):
    return lambda: Program.capture(
        lambda qc: period_finding_circuit(qc, 5, width),
        name=f"cl(width={width})",
    )


def usv(dimension: int):
    def make():
        _basis, parity = planted_instance(dimension, 0)
        kernel = parity_kernel_matrix(parity, seed=0)
        return Program(lambda: (coset_sampling_circuit(kernel), None),
                       name=f"usv(dimension={dimension})")
    return make


def qls(precision: int):
    return lambda: hhl_program(precision=precision)


def teleport_chain(hops: int, bit: bool = False) -> Program:
    """Teleport ``H|bit>`` along *hops* Bell pairs, then undo the ``H``.

    The ``sim_feedforward`` chain: a compute/uncompute ladder over 10-14
    ancillas returns them to ``|0>`` before the first hop, so the live
    core at the first measurement is three qubits; each hop measures
    twice and corrects classically, and every shot reads back *bit*.
    """
    ancillas = 10 + (hops - 2) % 5

    def chain(qc):
        src = qc.qinit_qubit(bit)
        qc.hadamard(src)
        anc = [qc.qinit_qubit(False) for _ in range(ancillas)]
        for a in anc:
            qc.qnot(a, controls=src)
            qc.gate_T(a)
        for a in reversed(anc):
            qc.gate_T(a, inverted=True)
            qc.qnot(a, controls=src)
        for a in anc:
            qc.qterm(a)
        for _ in range(hops):
            half = qc.qinit_qubit(False)
            dst = qc.qinit_qubit(False)
            qc.hadamard(half)
            qc.qnot(dst, controls=half)
            qc.qnot(half, controls=src)
            qc.hadamard(src)
            z_bit = qc.measure(src)
            x_bit = qc.measure(half)
            qc.qnot(dst, controls=x_bit)
            qc.gate_Z(dst, controls=z_bit)
            qc.cdiscard((z_bit, x_bit))
            src = dst
        qc.hadamard(src)
        return qc.measure(src)

    return Program.capture(chain, name=f"teleport(hops={hops})")


def teleport(hops: int):
    """A chain factory; the benchmark passes ``bit = seed & 1``."""
    return lambda bit=False: teleport_chain(hops, bit)


#: The whole ``compile`` catalogue.
COMPILE = {
    "bwt-n2": bwt(2), "bwt-n3": bwt(3),
    "tf-mul-l2": tf("mul", 2), "tf-mul-l3": tf("mul", 3),
    "tf-pow17-l2": tf("pow17", 2),
    "bf-2x2": bf(2, 2), "bf-2x3": bf(2, 3),
    "gse-p2": gse(2), "gse-p3": gse(3), "gse-p4": gse(4),
    "cl-w3": cl(3), "cl-w4": cl(4), "cl-w5": cl(5),
    "usv-d2": usv(2), "usv-d3": usv(3),
    "qls-p1": qls(1), "qls-p2": qls(2), "qls-p3": qls(3),
}

#: The whole ``estimate`` catalogue, each entry with its gate base.
ESTIMATE_CATALOGUE = {
    "tf-l6-n5-r3": (tf("full", 6, 5, 3), "toffoli"),
    "tf-l8-n6-r3": (tf("full", 8, 6, 3), "toffoli"),
    "tf-l12-n6-r3": (tf("full", 12, 6, 3), "toffoli"),
    "tf-l16-n6-r3": (tf("full", 16, 6, 3), "toffoli"),
    "bwt-n4": (bwt(4), "binary"),
    "bwt-n6": (bwt(6), "binary"),
    "bwt-n8": (bwt(8), "binary"),
    "bwt-n12": (bwt(12), "binary"),
    "bf-3x3": (bf(3, 3), "binary"),
    "bf-3x4": (bf(3, 4), "binary"),
    "bf-4x4": (bf(4, 4), "binary"),
    "gse-p4": (gse(4), "binary"),
    "gse-p5": (gse(5), "binary"),
    "gse-p6": (gse(6), "binary"),
    "cl-w4": (cl(4), "binary"),
    "cl-w6": (cl(6), "binary"),
    "usv-d3": (usv(3), "binary"),
    "qls-p3": (qls(3), "binary"),
}

#: The smallest ``estimate`` entry of each family, with its gate base.
ESTIMATE = {
    name: ESTIMATE_CATALOGUE[name]
    for name in ("tf-l6-n5-r3", "bwt-n4", "bf-3x3", "gse-p4", "cl-w4",
                 "usv-d3", "qls-p3")
}

#: The ``sim_wide`` and ``sim_feedforward`` entries that sample 1024
#: shots in well under a second each (16 qubits at most).
SIMULATE = {
    "bwt-n2": bwt(2), "gse-p5": gse(5), "qls-p2": qls(2),
    **{f"teleport-h{h}": teleport(h) for h in range(2, 9)},
    **{f"cl-w{w}": cl(w) for w in range(3, 7)},
}

#: The ``sim_wide`` entries past 16 qubits (20 and 21 at their widest),
#: whose reversible arithmetic holds long runs of X, CNOT and Toffoli
#: gates on states of 2**17 amplitudes and more.
SIMULATE_WIDE = {"bwt-n3": bwt(3), "tf-mul-l2": tf("mul", 2)}
