"""The five workloads of the end-to-end benchmark and their checks.

Every workload draws its items from ``--seed`` alone.  An item names an
entry of the workload's fixed catalogue plus a per-item seed; a *pass*
is one seeded shuffle of the whole catalogue.  The seed therefore
changes the order of the items and every random input (shot seeds,
teleported bits, fresh service parameters), while each pass holds the
same multiset of circuit sizes.  That keeps results from different
seeds comparable, which the regression gate relies on.

The program under test sees only the generated inputs: each item builds
a fresh ``Program`` and makes the calls listed in the README, each one
inside a span named after the layer it enters.

Each workload checks its outputs against a reference that does not go
through the code path being timed:

* ``estimate`` -- counts, widths and depths equal the committed
  ``expected/estimate.json`` (cross-checked by ``make_expected.py``
  against brute-force enumeration of the inlined circuit);
* ``compile`` -- QASM round trips are byte-stable, and the re-imported
  program is proven equivalent to the unoptimized one where it is
  narrow enough to prove;
* ``sim_wide`` -- sampled counts lie within a shot-noise bound of the
  exact output distribution of one ``shots=None`` simulation;
* ``sim_feedforward`` -- every shot of a teleportation chain returns
  its input bit, and period-finding samples match the analytic
  distribution;
* ``service`` -- payloads are byte-identical to in-process
  ``run_program_payload`` and ``Program`` results.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import BCircuit, Circuit, Program, get_backend
from repro.algorithms.bf.main import hex_oracle_program
from repro.algorithms.bwt.main import bwt_program
from repro.algorithms.cl.regulator import period_finding_circuit
from repro.algorithms.gse.main import gse_program
from repro.algorithms.qls.main import hhl_program
from repro.algorithms.tf.main import part_program
from repro.algorithms.usv.lattice import parity_kernel_matrix, planted_instance
from repro.algorithms.usv.usv import coset_sampling_circuit
from repro.core.gates import Comment, Discard, Measure
from repro.core.wires import QUANTUM
from repro.service.client import ServiceClient
from repro.transform import total_gates, total_logical_gates
from repro.transform.inline import iter_flat_gates

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected" / "estimate.json"

#: Shots per simulation item (the service's run jobs too).
SHOTS = 1024

#: A sampled distribution fails its check only with this probability.
FALSE_ALARM = 1e-9


# ---------------------------------------------------------------------------
# Program factories: each call builds a fresh, lazy Program
# ---------------------------------------------------------------------------


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


def teleport_chain(hops: int, bit: bool):
    """Teleport ``H|bit>`` along *hops* Bell pairs, then undo the ``H``.

    A 10-14 qubit compute/uncompute ladder entangles ancillas with the
    source qubit and returns them to ``|0>`` before the first hop, so
    the circuit is wide while its live core at the first measurement is
    three qubits.  Each hop measures twice and applies X and Z
    corrections classically controlled on those bits; every shot must
    read back *bit*, and only if both corrections are right.
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


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def logical_gates(program: Program) -> int:
    """Logical gates (no Init/Term/Meas/Discard) of a program's circuit."""
    return total_logical_gates(program.count())


def tv_bound(support: int, shots: int = SHOTS) -> float:
    """A total-variation distance that *shots* fair samples exceed with
    probability at most :data:`FALSE_ALARM`.

    The expected distance is at most ``sqrt(support / shots) / 2``
    (Cauchy-Schwarz over the per-outcome standard deviations), and one
    shot moves it by at most ``1 / shots``, so McDiarmid's inequality
    bounds the excess.
    """
    return (0.5 * math.sqrt(support / shots)
            + math.sqrt(math.log(1 / FALSE_ALARM) / (2 * shots)))


def tv_distance(counts: dict[str, int], dist: dict[str, float]) -> float:
    shots = sum(counts.values())
    keys = set(counts) | set(dist)
    return 0.5 * sum(
        abs(counts.get(k, 0) / shots - dist.get(k, 0.0)) for k in keys
    )


def exact_distribution(program: Program) -> dict[str, float]:
    """The output distribution of a circuit that measures only at the end.

    The trailing measurements are stripped and the rest simulated once
    with ``shots=None`` (the streamed single-state path, not the
    compiled sampling path under test); the distribution is then read
    off the final amplitudes.
    """
    bc = program.bcircuit
    gates = [g for g in iter_flat_gates(bc) if not isinstance(g, Comment)]
    tail = len(gates)
    while tail and isinstance(gates[tail - 1], Measure):
        tail -= 1
    if any(isinstance(g, (Measure, Discard)) for g in gates[:tail]):
        raise ValueError(f"{program.name} measures mid-circuit")
    measured = {g.wire for g in gates[tail:]}
    outputs = tuple(
        (w, QUANTUM if w in measured else t) for w, t in bc.circuit.outputs
    )
    stripped = BCircuit(Circuit(bc.circuit.inputs, gates[:tail], outputs))
    result = get_backend("statevector").run(stripped)
    probs = np.abs(np.asarray(result.statevector)) ** 2
    axes = list(result.statevector_wires)
    qwires = [w for w, t in outputs if t == QUANTUM]
    keep = [axes.index(w) for w in qwires]
    marginal = probs.sum(axis=tuple(a for a in range(probs.ndim)
                                    if a not in keep))
    marginal = np.transpose(marginal, np.argsort(np.argsort(keep)))
    dist: dict[str, float] = {}
    for index in zip(*np.nonzero(marginal > 1e-12)):
        bits = dict(zip(qwires, index))
        key = "".join(
            str(int(bits[w])) if w in bits else str(int(result.bits[w]))
            for w, _ in outputs
        )
        dist[key] = float(marginal[index])
    return dist


def period_finding_distribution(width: int, modulus: int = 5) -> dict[str, float]:
    """Analytic joint distribution of ``period_finding_circuit`` outputs.

    ``x`` is uniform over ``2**width`` values; measuring ``f = x mod S``
    leaves the coset ``{x : x mod S = f}``, whose inverse QFT gives
    ``P(k, f) = |sum_x exp(2 pi i x k / N)|**2 / N**2``.  Keys list the
    sample ``k`` then ``f``, each most significant bit first.
    """
    size = 1 << width
    f_width = max(1, (modulus - 1).bit_length())
    dist: dict[str, float] = {}
    ks = np.arange(size)
    for f in range(modulus):
        xs = np.arange(f, size, modulus)
        if len(xs) == 0:
            continue
        amp = np.exp(2j * np.pi * np.outer(xs, ks) / size).sum(axis=0)
        for k, p in zip(ks, np.abs(amp) ** 2 / size ** 2):
            if p > 1e-12:
                dist[format(k, f"0{width}b") + format(f, f"0{f_width}b")] = p
    return dist


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: its catalogue, its item runner and its checker."""

    name = ""
    #: Closed-loop clients issuing items concurrently.
    clients = 1
    #: entry name -> whatever ``run`` needs to build the entry's program.
    catalogue: dict = {}
    #: entry name -> copies per pass (default 1).
    weights: dict[str, int] = {}

    def __init__(self, seed: int):
        self.seed = seed
        #: Logical gates of the outputs of the first pass (set by check).
        self.gates_out = 0

    def setup(self) -> None:
        """Work a user pays once before the first item."""

    def teardown(self) -> None:
        """Stop whatever setup started."""

    def pass_items(self, index: int) -> list[tuple[str, int]]:
        """Pass *index*: a seeded shuffle of ``(entry, item_seed)``."""
        rng = random.Random(f"{self.name}/{self.seed}/{index}")
        entries = [e for e in self.catalogue
                   for _ in range(self.weights.get(e, 1))]
        rng.shuffle(entries)
        return [(entry, rng.getrandbits(31)) for entry in entries]

    def run(self, item: tuple[str, int], span):
        """Run one item; *span* opens a layer span (a no-op untraced)."""
        raise NotImplementedError

    def check(self, records: list[tuple[int, tuple, object]]) -> list[str]:
        """Check ``(pass, item, output)`` records; return the failures."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work, MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers only the workload itself can read."""
        return {}


class Estimate(Workload):
    """Hierarchical counts of large circuits, never inlined."""

    name = "estimate"
    catalogue = {
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
    weights = {"bwt-n8": 2}

    def setup(self) -> None:
        self.expected = json.loads(EXPECTED.read_text())

    @classmethod
    def measure(cls, entry: str, span) -> dict:
        make, base = cls.catalogue[entry]
        with span("core.builder") as sp:
            program = make()
            sp.add("gates_out", len(program.bcircuit))
        with span("transform.pipeline") as sp:
            lowered = program.transform(base)
            sp.add("gates_out", len(lowered.bcircuit))
        with span("transform.count"):
            counts = lowered.count()
        with span("core.circuit"):
            width = lowered.width()
        with span("transform.depth"):
            depth = lowered.depth()
        return {"total": total_gates(counts),
                "logical": total_logical_gates(counts),
                "width": width, "depth": depth}

    def run(self, item, span):
        return self.measure(item[0], span)

    def check(self, records):
        failures = []
        self.gates_out = 0
        for pass_index, (entry, _), output in records:
            expected = self.expected.get(entry)
            if output != expected:
                failures.append(f"{entry}: got {output}, expected {expected}")
            elif pass_index == 0:
                self.gates_out += output["logical"]
        return failures


class Compile(Workload):
    """Lowering to the binary gate base, optimizing and QASM interchange."""

    name = "compile"
    #: Widest re-imported program the equivalence proof is attempted on.
    PROOF_WIDTH = 10
    catalogue = {
        "bwt-n2": bwt(2), "bwt-n3": bwt(3),
        "tf-mul-l2": tf("mul", 2), "tf-mul-l3": tf("mul", 3),
        "tf-pow17-l2": tf("pow17", 2),
        "bf-2x2": bf(2, 2), "bf-2x3": bf(2, 3),
        "gse-p2": gse(2), "gse-p3": gse(3), "gse-p4": gse(4),
        "cl-w3": cl(3), "cl-w4": cl(4), "cl-w5": cl(5),
        "usv-d2": usv(2), "usv-d3": usv(3),
        "qls-p1": qls(1), "qls-p2": qls(2), "qls-p3": qls(3),
    }
    weights = {"gse-p3": 2, "bwt-n3": 2}

    def run(self, item, span):
        with span("core.builder") as sp:
            program = self.catalogue[item[0]]()
            sp.add("gates_out", len(program.bcircuit))
        with span("transform.pipeline") as sp:
            lowered = program.transform("binary")
            sp.add("gates_out", len(lowered.bcircuit))
        with span("optimize"):
            optimized = lowered.optimize()
            optimized.bcircuit
        with span("io.qasm") as sp:
            text = optimized.qasm()
            sp.add("bytes_out", len(text))
        with span("io.qasm_parser"):
            Program.loads_qasm(text).bcircuit
        return text

    def check(self, records):
        failures = []
        texts: dict[str, str] = {}
        for _, (entry, _), text in records:
            if texts.setdefault(entry, text) != text:
                failures.append(f"{entry}: QASM output differs between items")
        logical: dict[str, int] = {}
        for entry, text in texts.items():
            reimported = Program.loads_qasm(text)
            if reimported.qasm() != text:
                failures.append(f"{entry}: QASM round trip is not byte-stable")
            logical[entry] = logical_gates(reimported)
            if reimported.width() > self.PROOF_WIDTH:
                continue
            unoptimized = self.catalogue[entry]().transform("binary")
            verdict = unoptimized.equivalent_to(
                reimported, max_width=self.PROOF_WIDTH
            )
            if verdict.verdict != "equivalent":
                failures.append(f"{entry}: re-imported program is "
                                f"{verdict.verdict}: {verdict.reason}")
        self.gates_out = sum(logical[entry] for p, (entry, _), _ in records
                             if p == 0)
        return failures


class Simulation(Workload):
    """An item builds a program, compiles it and samples 1024 shots."""

    def program(self, entry: str, seed: int) -> Program:
        return self.catalogue[entry]()

    def run(self, item, span):
        entry, seed = item
        with span("core.builder"):
            program = self.program(entry, seed)
            program.bcircuit
        with span("transform.inline"):
            program.compiled()
        with span("backends.statevector"):
            result = program.run(shots=SHOTS, seed=seed)
        return result.counts

    def check(self, records):
        failures, references = [], {}
        self.gates_out = 0
        for pass_index, (entry, seed), counts in records:
            if entry not in references:
                references[entry] = self.reference(entry, seed)
            failure = self.compare(seed, counts, references[entry])
            if failure:
                failures.append(f"{entry} seed {seed}: {failure}")
            if pass_index == 0:
                self.gates_out += logical_gates(self.program(entry, seed))
        return failures

    def reference(self, entry: str, seed: int):
        """What every output of *entry* is compared against."""
        raise NotImplementedError

    @staticmethod
    def compare(seed: int, counts: dict, reference) -> str | None:
        """Why *counts* fail against *reference*, or None."""
        distance = tv_distance(counts, reference)
        if distance > tv_bound(len(reference)):
            return (f"total variation {distance:.4f} > "
                    f"{tv_bound(len(reference)):.4f}")
        return None


class SimWide(Simulation):
    """16-21 qubit algorithms measured only at the end: one simulation
    plus a multinomial draw per item, over dense 2**20 buffers."""

    name = "sim_wide"
    catalogue = {
        "bwt-n2": bwt(2), "bwt-n3": bwt(3), "tf-mul-l2": tf("mul", 2),
        "gse-p5": gse(5), "gse-p6": gse(6), "qls-p2": qls(2),
    }
    weights = {"bwt-n2": 2, "bwt-n3": 2, "gse-p5": 2, "qls-p2": 3}

    def reference(self, entry, seed):
        return exact_distribution(self.program(entry, seed))


class SimFeedforward(Simulation):
    """Mid-circuit measurement with classically controlled corrections:
    a small live core sampled through the forked-batch path."""

    name = "sim_feedforward"
    catalogue = {
        **{f"teleport-h{h}": h for h in range(2, 9)},
        **{f"cl-w{w}": w for w in range(3, 7)},
    }
    weights = {"cl-w3": 2, "cl-w4": 2, "cl-w5": 3, "cl-w6": 2}

    def program(self, entry, seed):
        size = self.catalogue[entry]
        if entry.startswith("teleport"):
            return teleport_chain(size, bool(seed & 1))
        return cl(size)()

    def reference(self, entry, seed):
        if entry.startswith("teleport"):
            return None  # the chain's own input bit, per item
        return period_finding_distribution(self.catalogue[entry])

    @staticmethod
    def compare(seed, counts, reference):
        if reference is not None:
            return Simulation.compare(seed, counts, reference)
        expected = {str(seed & 1): SHOTS}
        return None if counts == expected else f"{counts}, expected {expected}"


#: The ``repro-serve`` entry point, launched without ``-m`` (runpy would
#: warn that the module is already imported).
SERVE = ("import sys; from repro.service.server import main; "
         "raise SystemExit(main(sys.argv[1:]))")


#: Pre-warmed compile specs: cache reads query them, run jobs use the
#: last one.  The cl circuit is sent as Quipper-ASCII text, filled in by
#: :meth:`Service.setup`.
SERVICE_SPECS = {
    "bwt-n2": {"program": "bwt", "params": {"n": 2}},
    "tf-mul-l2": {"program": "tf", "params": {"part": "mul", "l": 2}},
    "bell": {"program": "bell"},
    "cl-w4": None,
}
HIT_ACTIONS = ("count", "depth", "width")
RUN_SPEC = "cl-w4"


class Service(Workload):
    """The compile service as deployed: a ``repro-serve`` subprocess with
    one worker shard, driven by two closed-loop clients."""

    name = "service"
    clients = 2
    # One pass: 12 cache reads (29%), 6 cache writes (14%) and 24 run
    # jobs (57%), so that the item p50 lies inside the run class and the
    # p90 inside the cold class rather than on a boundary between them.
    catalogue = {
        **{f"hit:{s}:{a}": None for s in SERVICE_SPECS for a in HIT_ACTIONS},
        "cold": None,
        "run": None,
    }
    weights = {"cold": 6, "run": 24}

    def setup(self) -> None:
        from repro.io import dumps

        self.server_rss_mb = 0.0
        self.specs = dict(SERVICE_SPECS)
        self.specs["cl-w4"] = {"circuit": dumps(cl(4)().bcircuit)}
        # A cache of 32 circuits fills within the first passes, so the
        # server's memory levels off long before a run ends; with the
        # default 128, its peak grew with the never-seen specs a run
        # got through, that is with the machine's speed.
        self.server = subprocess.Popen(
            [sys.executable, "-c", SERVE, "--port", "0", "--shards", "1",
             "--cache-size", "32"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        line = self.server.stderr.readline()
        match = re.search(r"listening on http://([\d.]+):(\d+)", line)
        if match is None:
            self.teardown()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.address = (match.group(1), int(match.group(2)))
        # Keep draining the server's stderr so it can never block on it.
        threading.Thread(target=self.server.stderr.read, daemon=True).start()
        self._local = threading.local()
        self._clients: list[ServiceClient] = []
        self._lock = threading.Lock()
        self.transport_ms: list[float] = []
        for entry in self.catalogue:
            if entry != "cold":
                self.request(self.body((entry, 0)))

    def client(self):
        client = getattr(self._local, "client", None)
        if client is None:
            # Fail fast: a refused (429/503) or dropped request is a
            # failed item, not a retry hidden inside its latency.
            client = ServiceClient(*self.address, timeout=120.0,
                                   retries=0, max_wait=0.0)
            self._local.client = client
            with self._lock:
                self._clients.append(client)
        return client

    def body(self, item: tuple[str, int]) -> dict:
        entry, seed = item
        kind, _, rest = entry.partition(":")
        if kind == "hit":
            spec, action = rest.split(":")
            return {**self.specs[spec], "action": action}
        if kind == "cold":
            # A never-seen digest: the server captures, optimizes and
            # caches it.
            t = 0.05 + 0.9 * seed / 2 ** 31
            return {"program": "bwt", "params": {"n": 4, "t": t},
                    "optimize": True, "action": "count"}
        return {**self.specs[RUN_SPEC], "action": "run",
                "run": {"shots": SHOTS, "seed": seed}}

    def request(self, body: dict) -> dict:
        return self.client().request("POST", "/v1/jobs",
                                     {**body, "sync": True})

    def run(self, item, span):
        body = self.body(item)
        with span("service.client"):
            start = time.perf_counter()
            reply = self.request(body)
            client_ms = (time.perf_counter() - start) * 1e3
        job = reply["job"]
        server_ms = job.get("queue_wait_ms", 0.0) + job.get("exec_ms", 0.0)
        with self._lock:
            self.transport_ms.append(client_ms - server_ms)
        return reply["result"]

    def teardown(self) -> None:
        for client in getattr(self, "_clients", ()):
            client.close()
        server = getattr(self, "server", None)
        if server is None or server.returncode is not None:
            return
        server.send_signal(signal.SIGTERM)
        if server.returncode is not None:  # it had exited (and is reaped)
            return
        # Reap the server with wait4: its resource usage covers the server
        # and the worker it reaped in its drain, and no other process
        # this one started (such as the set-up probes).
        deadline = time.monotonic() + 60
        while True:
            pid, status, usage = os.wait4(server.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                server.kill()
                deadline = math.inf
            time.sleep(0.01)
        server.returncode = os.waitstatus_to_exitcode(status)
        self.server_rss_mb = usage.ru_maxrss / 1024

    def peak_rss_mb(self) -> float:
        return self.server_rss_mb

    def layer_metrics(self) -> dict[str, float]:
        stats = self.client().request("GET", "/v1/stats")["service"]
        latency = stats["latency"]
        counters = stats["counters"]
        hits = counters.get("cache.hits", 0)
        lookups = hits + counters.get("cache.misses", 0)
        return {
            "service.hit_p50_ms": latency["hit"]["p50_ms"],
            "service.cold_p50_ms": latency["cold"]["p50_ms"],
            "service.run_p50_ms": latency["run"]["p50_ms"],
            "service.queue_wait_p50_ms": stats["queue_wait"]["p50_ms"],
            "service.queue_wait_p99_ms": stats["queue_wait"]["p99_ms"],
            "service.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "service.transport_p50_ms": float(np.median(self.transport_ms))
            if self.transport_ms else 0.0,
            "service.rejected": counters.get("jobs.rejected", 0)
            + counters.get("jobs.rejected_draining", 0),
        }

    def check(self, records):
        from repro.service.digest import canonical_json
        from repro.service.jobs import canonical_run_options
        from repro.service.registry import build_program, canonical_spec
        from repro.service.workers import run_program_payload

        programs: dict[str, Program] = {}
        references: dict[str, dict] = {}

        def program_for(body: dict) -> Program:
            spec = canonical_spec(body)
            key = canonical_json(spec)
            if key not in programs:
                programs[key] = build_program(spec)
            return programs[key]

        failures = []
        self.gates_out = 0
        for pass_index, item, payload in records:
            body = self.body(item)
            action = body["action"]
            program = program_for(body)
            if action == "run":
                reference = run_program_payload(
                    program, canonical_run_options(body["run"])
                )
            else:
                key = canonical_json(body)
                if key not in references:
                    references[key] = self.query_reference(program, action)
                reference = references[key]
            if canonical_json(payload) != canonical_json(reference):
                failures.append(f"{item[0]} seed {item[1]}: payload differs "
                                "from the in-process result")
            if pass_index == 0:
                self.gates_out += logical_gates(program)
        return failures

    @staticmethod
    def query_reference(program: Program, action: str) -> dict:
        if action == "count":
            counts = program.count()
            return {"counts": {str(k): int(v) for k, v in counts.items()},
                    "total": int(sum(counts.values()))}
        if action == "depth":
            return {"depth": int(program.depth())}
        return {"width": program.width()}


WORKLOADS = {w.name: w for w in (Estimate, Compile, SimWide, SimFeedforward,
                                 Service)}
