"""Dense statevector backend: one run path and one sampler.

Wraps :mod:`repro.sim.state` as the registry's ``"statevector"`` backend.
Every run loads its inputs into a batch-1 state
(:meth:`~repro.sim.state.StateVector.load_inputs`, one allocation) and
executes gates through :meth:`~repro.sim.state.StateVector.run`, which
allocates each run of ``Init`` gates at once, terminates each run of
``Term`` gates in one pass over the state, gathers each run of basis
permutations (X, CNOT, Toffoli, swap, Fredkin) on a state past one block
at once, and runs a ``with_computed`` window that would grow the state
to one block from few nonzero columns on those columns alone.  Then:

* ``shots=None`` streams the whole hierarchy lazily through that state
  (no materialized gate list, so arbitrarily deep hierarchies work) and
  returns it.
* Sampling consumes the compiled stream
  (:func:`~repro.transform.inline.compile_flat`, inlined once and
  memoized on the BCircuit) and simulates its *deterministic prefix* --
  every gate before the first ``Measure``/``Discard``, which consumes no
  randomness -- once, with each long run of small gates below one block
  as one matrix product (:meth:`StatevectorBackend.prefix`, formed once
  per compiled circuit).  Trailing measurements commute with basis-state
  sampling, so when only they follow the prefix every shot is drawn from
  the prefix's final state with one multinomial draw -- the cost of 1024
  shots is the cost of one simulation.
* Otherwise the prefix state is *broadcast* into batches of shots and
  the stochastic suffix advances a whole batch per kernel dispatch.  A
  fork holds one state row per distinct measurement history (a row
  splits only into the outcomes its shots drew), plus a map from each
  shot to its row.  Measurement randomness is pre-drawn shot-major,
  which keeps seeded counts bit-identical to per-shot replays.  The
  batch size counts shots and comes from the ``batch=`` backend option
  (``Program.run(..., batch=N)``), defaulting to the largest ``B`` with
  ``B * 2**peak <= 2**16`` (one block, so a fork never fuses), *peak*
  being the most qubits the suffix ever holds live at once; a batch's
  rows never outnumber its shots.

Both are :meth:`StatevectorBackend.sample`, which a gate stream
(:meth:`repro.streaming.GateStream.run`) reaches too.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import BCircuit
from ..core.gates import Gate, Init
from ..core.wires import QUANTUM
from ..obs import core as _obs
from ..sim.kernels import BLOCK_AMPLITUDES
from ..sim.state import StateVector, form_products
from .base import (BackendError, RunResult, SimulatorBackend, SuffixScan,
                   code_key, outcome_key)
from .registry import register_backend


def _width_exceeded(limit: int) -> BackendError:
    return BackendError(
        f"stream width exceeded the statevector limit ({limit} qubits); "
        "use .resources() to size the circuit first"
    )


def _host_bits(sim: StateVector) -> dict[int, bool]:
    """A batch-1 state's classical bits as plain bools."""
    return {w: bool(v[0]) for w, v in sim.bits.items()}


@register_backend
class StatevectorBackend(SimulatorBackend):
    """Exact simulation: any circuit, exponential in qubit count."""

    name = "statevector"
    capabilities = frozenset({"counts", "statevector"})

    def __init__(self, max_width: int = 26, batch: int | None = None):
        self.max_width = max_width
        if batch is not None and batch < 1:
            raise BackendError(f"batch must be positive, got {batch}")
        self.batch = batch

    def supports(self, bc: BCircuit) -> bool:
        return bc.check() <= self.max_width

    def admit(self, bc: BCircuit) -> dict:
        width = bc.check()
        if width > self.max_width:
            raise BackendError(
                f"circuit width {width} exceeds the statevector limit "
                f"({self.max_width}); use the resources backend to size it"
            )
        return {"width": width}

    def load(self, inputs, in_values: dict[int, bool], rng) -> StateVector:
        quantum = sum(1 for _, t in inputs if t == QUANTUM)
        if quantum > self.max_width:
            raise BackendError(
                f"{quantum} input qubits exceed the statevector "
                f"limit ({self.max_width}); use .resources() to size "
                "the circuit first"
            )
        sim = StateVector(rng=rng)
        sim.load_inputs(inputs, in_values)
        return sim

    def prefix(self, bc: BCircuit, compiled) -> list:
        """The deterministic prefix with each long run of small gates
        below one block as one product (:func:`~repro.sim.state.
        form_products`), formed once per compiled circuit and kept in
        :meth:`~repro.core.circuit.BCircuit.memo` next to it."""
        memo = bc.memo()
        prefix = memo.get("products")
        if prefix is None:
            live = sum(1 for _, t in bc.circuit.inputs if t == QUANTUM)
            prefix = memo["products"] = form_products(
                compiled.gates[:compiled.prefix_len], live
            )
        return prefix

    def step(self, sim: StateVector, gate: Gate) -> None:
        # Guard growth BEFORE allocating: one qubit past the cap would
        # double the state into gigabytes before any check could fire.
        if isinstance(gate, Init) and sim.num_qubits >= self.max_width:
            raise _width_exceeded(self.max_width)
        sim.execute(gate)

    def single(self, sim: StateVector) -> RunResult:
        wires = tuple(sorted(sim.axes, key=sim.axes.__getitem__))
        return RunResult(backend=self.name, statevector=sim.state,
                         statevector_wires=wires, bits=_host_bits(sim),
                         metadata={"state": sim})

    def sample(self, base: StateVector, scan: SuffixScan, run_suffix,
               outputs, shots: int, rng) -> RunResult:
        """Every shot drawn at once when only measurements follow the
        prefix (:func:`draw_counts`), else forked in batches
        (:meth:`_fork`)."""
        if _obs.ENABLED:
            _obs.add("run.shots.forked" if scan.forks else "run.shots.batched",
                     shots)
        if not scan.forks:
            counts = draw_counts(base, outputs, shots, rng, scan.measured)
            metadata = {"batched": True}
        else:
            counts, batch = self._fork(base, scan, run_suffix, outputs,
                                       shots, rng)
            metadata = {"batched": False, "batch": batch}
        return RunResult(backend=self.name, shots=shots, counts=counts,
                         metadata=metadata)

    def _fork_batch(self, shots: int, peak: int) -> int:
        """How many shots one forked batch advances in lockstep.

        *peak* is the most qubits the suffix holds live at once (see
        :class:`~repro.backends.base.SuffixScan`), not the circuit's
        overall width: a 16-qubit circuit that uncomputes down to a
        3-qubit measured core, or a teleportation chain that allocates
        two qubits per hop and measures two, batches thousands of shots
        per dispatch.

        The auto size keeps one block (:data:`~repro.sim.kernels.
        BLOCK_AMPLITUDES`, one MiB of complex128) in flight: batching
        multiplies throughput where per-dispatch overhead dominates (a
        compact post-Term state replaying a stochastic suffix) and is
        memory-bound where it does not (a full-width dense suffix), so it
        backs off to per-shot forking as the live state grows.  The size
        counts shots; the batch's rows (one per measurement history) are
        at most that many, so the bound holds for them too.
        ``batch=`` overrides it in either direction.
        """
        if self.batch is not None:
            return max(1, min(self.batch, shots))
        return max(1, min(shots, BLOCK_AMPLITUDES >> peak))

    def _fork(self, base: StateVector, scan: SuffixScan, run_suffix,
              outputs, shots: int, rng) -> tuple[dict[str, int], int]:
        """Sample the stochastic suffix from the prefix state *base*.

        Each batch of up to the fork batch size shots starts as one row
        standing for all of them (:meth:`~repro.sim.state.StateVector.
        broadcast`), and ``run_suffix`` advances the batch's rows in
        lockstep, one kernel dispatch per gate (or per fused run, past
        one block): a measurement splits a row only into the outcomes its
        shots drew, so after j measurements the batch holds at most
        ``2**j`` rows.  Seeded counts stay bit-identical to sequential
        per-shot replays: each batch pre-draws its measurement randomness
        *shot-major* with one ``rng.random((b, events))`` call -- which
        consumes the rng stream exactly as ``b`` sequential simulations
        would -- and shot s compares its draw for event j with the
        probability of the row its history reached.  ``events`` is
        static: one per suffix ``Measure``/``Discard`` plus one per
        quantum output measured at readout.  Outputs are read per row,
        packed into one integer code per row (:func:`_row_codes`), read
        per shot through the shot map and tallied; each distinct code's
        key comes from the shared :func:`~repro.backends.base.code_key`.
        A suffix that would grow the state past ``max_width`` (which only
        a stream's can: a stored circuit is admitted by its width) is
        refused before any fork is made.
        """
        peak = base.num_qubits + scan.peak
        if peak > self.max_width:
            raise _width_exceeded(self.max_width)
        batch_size = self._fork_batch(shots, peak)
        events = scan.events + sum(1 for _, t in outputs if t == QUANTUM)
        width = len(outputs)
        counts: dict[str, int] = {}
        done = 0
        while done < shots:
            b = min(batch_size, shots - done)
            fork = base.broadcast(b)
            if events:
                fork.preload_randoms(rng.random((b, events)))
            if _obs.ENABLED:
                _obs.add("sim.batch.forks")
                _obs.observe("sim.batch.occupancy", b)
            run_suffix(fork)
            if _obs.ENABLED:
                _obs.observe("sim.fork.rows", fork.batch)
            # A readout is kept as a bit, so later splits carry it along.
            for w, t in outputs:
                if t == QUANTUM:
                    fork.bits[w] = fork.measure_qubit(w)
            codes = fork.per_shot(_row_codes(np.array(
                [fork.bits[w] for w, _ in outputs], dtype=bool
            ).reshape(width, fork.batch)))
            values, reps = np.unique(codes, return_counts=True)
            for code, n in zip(values.tolist(), reps.tolist()):
                key = code_key(code, width)
                counts[key] = counts.get(key, 0) + n
            done += b
        return counts, batch_size


def _row_codes(columns: np.ndarray) -> np.ndarray:
    """One integer per state row from a ``(width, rows)`` bool matrix of
    output values, the first output the most significant bit (so codes
    sort as the outputs' bit strings do): int64 up to 63 outputs, Python
    ints (an object array) past that, so no code overflows."""
    width = len(columns)
    dtype = np.int64 if width < 64 else object
    weights = np.array([1 << k for k in reversed(range(width))], dtype=dtype)
    return weights @ columns.astype(dtype)


def draw_counts(sim: StateVector, outputs, shots: int, rng,
                measured=frozenset()) -> dict[str, int]:
    """Sample *shots* outcomes from a final state in one multinomial draw.

    *measured* wires are measured by the trailing ``Measure`` gates that
    were never run; they are still qubit axes of the final state and get
    sampled.
    """
    qwires = [w for w, t in outputs if t == QUANTUM or w in measured]
    cbits = _host_bits(sim)
    if not qwires:
        key = outcome_key([cbits[w] for w, _ in outputs])
        return {key: shots}
    dist = sim.basis_probabilities(qwires)
    outcomes = list(dist)
    probs = np.array([dist[o] for o in outcomes])
    probs = probs / probs.sum()
    draws = rng.multinomial(shots, probs)
    counts: dict[str, int] = {}
    for outcome, n in zip(outcomes, draws):
        if n == 0:
            continue
        qvalue = dict(zip(qwires, outcome))
        key = outcome_key(
            [
                bool(qvalue[w]) if w in qvalue else cbits[w]
                for w, _ in outputs
            ]
        )
        counts[key] = counts.get(key, 0) + int(n)
    return counts
