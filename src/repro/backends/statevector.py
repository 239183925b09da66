"""Dense statevector backend: one materialized run path.

Wraps :mod:`repro.sim.state` as the registry's ``"statevector"`` backend.
Every run loads its inputs into a batch-1 state
(:meth:`~repro.sim.state.StateVector.load_inputs`, one allocation) and
executes gates through :meth:`~repro.sim.state.StateVector.run`, which
allocates each run of ``Init`` gates at once, terminates each run of
``Term`` gates in one pass over the state, and gathers each run of basis
permutations (X, CNOT, Toffoli, swap, Fredkin) on a state past one block
at once.  Then:

* ``shots=None`` streams the whole hierarchy lazily through that state
  (no materialized gate list, so arbitrarily deep hierarchies work) and
  returns it.
* Sampling consumes the compiled stream
  (:func:`~repro.transform.inline.compile_flat`, inlined once and
  memoized on the BCircuit) and simulates its *deterministic prefix* --
  every gate before the first ``Measure``/``Discard``, which consumes no
  randomness -- once.  Trailing measurements commute with basis-state
  sampling and are stripped, so when no stochastic suffix remains every
  shot is drawn from the prefix's final state with one multinomial draw
  -- the cost of 1024 shots is the cost of one simulation.
* Otherwise the prefix state is *broadcast* into batches of shots and
  the stochastic suffix advances a whole batch per kernel dispatch.
  Measurement randomness is pre-drawn shot-major, which keeps seeded
  counts bit-identical to per-shot replays.  The batch size comes from
  the ``batch=`` backend option (``Program.run(..., batch=N)``),
  defaulting to the largest ``B`` with ``B * 2**peak <= 2**16`` (one
  block, so a fork never fuses), *peak* being the most qubits the suffix
  ever holds live at once.
"""

from __future__ import annotations

import numpy as np

from ..core.circuit import BCircuit
from ..core.gates import Comment, Discard, Gate, Init, Measure, Term
from ..core.stream import StreamConsumer
from ..core.wires import QUANTUM
from ..obs import core as _obs
from ..sim.kernels import BLOCK_AMPLITUDES
from ..sim.state import StateVector
from ..transform.inline import compile_flat, iter_flat_gates
from .base import Backend, BackendError, RunResult, outcome_key
from .registry import register_backend


def suffix_peak_and_events(live: int, suffix: list[Gate]) -> tuple[int, int]:
    """Peak qubit count and stochastic event count of a forked suffix.

    Walked from the *live* qubits at the fork: an ``Init`` adds a state
    axis, a ``Term``/``Measure``/``Discard`` removes one, and the last
    two each consume one draw of randomness.
    """
    peak = live
    events = 0
    for gate in suffix:
        if isinstance(gate, Init):
            live += 1
            peak = max(peak, live)
        elif isinstance(gate, Term):
            live -= 1
        elif isinstance(gate, (Measure, Discard)):
            live -= 1
            events += 1
    return peak, events


def _host_bits(sim: StateVector) -> dict[int, bool]:
    """A batch-1 state's classical bits as plain bools."""
    return {w: bool(v[0]) for w, v in sim.bits.items()}


def _state_result(name: str, sim: StateVector, **metadata) -> RunResult:
    """The ``shots=None`` result: a batch-1 state's view, wires and bits."""
    return RunResult(
        backend=name,
        statevector=sim.state,
        statevector_wires=tuple(sorted(sim.axes, key=sim.axes.__getitem__)),
        bits=_host_bits(sim),
        metadata={"state": sim, **metadata},
    )


@register_backend
class StatevectorBackend(Backend):
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

    def run(
        self,
        bc: BCircuit,
        *,
        shots: int | None = None,
        in_values: dict[int, bool] | None = None,
        seed: int | None = None,
    ) -> RunResult:
        width = bc.check()
        if width > self.max_width:
            raise BackendError(
                f"circuit width {width} exceeds the statevector limit "
                f"({self.max_width}); use the resources backend to size it"
            )
        rng = np.random.default_rng(seed)
        if shots is not None and shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        sim = StateVector(rng=rng)
        sim.load_inputs(bc.circuit.inputs, in_values or {})
        if shots is None:
            # Single pass: stream the hierarchy lazily (no materialized
            # gate list, so arbitrarily deep/repeated hierarchies work).
            sim.run(iter_flat_gates(bc))
            return _state_result(self.name, sim)
        # Sampling may replay a suffix, so it consumes the compiled
        # stream.  Trailing measurements commute with basis-state
        # sampling: when only they follow the prefix, every shot is
        # drawn from the prefix's final state.
        compiled = compile_flat(bc)
        gates = compiled.gates
        tail = len(gates)
        while tail and isinstance(gates[tail - 1], Measure):
            tail -= 1
        split = min(compiled.prefix_len, tail)
        if _obs.ENABLED:
            _obs.add(
                "run.shots.forked" if split < tail else "run.shots.batched",
                shots,
            )
        sim.run(gates[:split])
        if split == tail:
            measured = frozenset(g.wire for g in gates[tail:])
            counts = draw_counts(sim, bc.circuit.outputs, shots, rng, measured)
            metadata = {"batched": True, "width": width}
        else:
            counts, fork_batch = self._fork(
                sim, gates[split:], bc.circuit.outputs, shots, rng
            )
            metadata = {"batched": False, "width": width, "batch": fork_batch}
        return RunResult(
            backend=self.name,
            shots=shots,
            counts=counts,
            metadata=metadata,
        )

    def _fork_batch(self, shots: int, peak: int) -> int:
        """How many shots one forked batch advances in lockstep.

        *peak* is the most qubits the suffix holds live at once (see
        :func:`suffix_peak_and_events`), not the circuit's overall width:
        a 16-qubit circuit that uncomputes down to a 3-qubit measured
        core, or a teleportation chain that allocates two qubits per hop
        and measures two, batches thousands of shots per dispatch.

        The auto size keeps one block (:data:`~repro.sim.kernels.
        BLOCK_AMPLITUDES`, one MiB of complex128) in flight: batching
        multiplies throughput where per-dispatch overhead dominates (a
        compact post-Term state replaying a stochastic suffix) and is
        memory-bound where it does not (a full-width dense suffix), so it
        backs off to per-shot forking as the live state grows.
        ``batch=`` overrides it in either direction.
        """
        if self.batch is not None:
            return max(1, min(self.batch, shots))
        return max(1, min(shots, BLOCK_AMPLITUDES >> peak))

    def _fork(self, base: StateVector, suffix: list[Gate], outputs,
              shots: int, rng) -> tuple[dict[str, int], int]:
        """Sample the stochastic *suffix* from the prefix state *base*.

        The state is broadcast into batches of up to the fork batch size
        and the suffix advances each whole batch in lockstep, one kernel
        dispatch per gate (or per fused run, past one block).  Seeded
        counts stay bit-identical to sequential per-shot replays: each
        batch pre-draws its measurement randomness *shot-major* with one
        ``rng.random((b, events))`` call -- which consumes the rng stream
        exactly as ``b`` sequential simulations would -- and the batched
        state then serves stochastic event j from column j.  ``events`` is static: one per suffix
        ``Measure``/``Discard`` plus one per quantum output measured at
        readout.
        """
        peak, events = suffix_peak_and_events(base.num_qubits, suffix)
        batch_size = self._fork_batch(shots, peak)
        events += sum(1 for _, t in outputs if t == QUANTUM)
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
            fork.run(suffix)
            columns = [
                fork.measure_qubit(w) if t == QUANTUM else fork.bits[w]
                for w, t in outputs
            ]
            if columns:
                rows = np.stack(columns, axis=1)
                uniques, reps = np.unique(rows, axis=0, return_counts=True)
                for row, n in zip(uniques, reps):
                    key = outcome_key(row)
                    counts[key] = counts.get(key, 0) + int(n)
            else:
                key = outcome_key([])
                counts[key] = counts.get(key, 0) + b
            done += b
        return counts, batch_size


def draw_counts(sim: StateVector, outputs, shots: int, rng,
                measured: frozenset[int] = frozenset()) -> dict[str, int]:
    """Sample *shots* outcomes from a final state in one multinomial draw.

    *measured* wires were quantum until a stripped trailing ``Measure``;
    they are still qubit axes of the final state and get sampled.  Shared
    by the batched backend path and the streaming feed, so streamed and
    materialized sampling of measurement-free circuits are seed-exact.
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


class StatevectorFeed(StreamConsumer):
    """Simulate a gate stream directly on the dense statevector kernels.

    The streaming analogue of the backend's ``shots=None`` path: every
    emitted gate is executed the moment it arrives (boxed calls expanded
    on the fly through the lazy inliner), so circuits are simulated while
    they are being *generated*, without a gate list or a BCircuit ever
    existing.  Gates run one at a time, so a run of ``Init`` or ``Term``
    gates is not grouped as :meth:`~repro.sim.state.StateVector.run`
    groups it.  A run of ``Measure`` gates is held until a later gate
    arrives, so a stream whose only measurements are trailing ones ends
    holding them (their wires are ``measured``).  ``stochastic`` records
    whether an executed ``Measure``/``Discard`` consumed randomness --
    :meth:`repro.streaming.GateStream.run` draws every shot of a stream
    that did not from the final state, trailing measurements unexecuted,
    as the backend does, and replays one that did per shot.
    :meth:`result` and :meth:`outcome` execute the held gates first.
    """

    name = "statevector"

    def __init__(self, rng, in_values: dict[int, bool] | None = None,
                 max_width: int = 26):
        self.rng = rng
        self.in_values = in_values or {}
        self.max_width = max_width
        self.stochastic = False
        self._held: list[Measure] = []

    def begin(self, inputs, namespace) -> None:
        from ..transform.inline import StreamExpander

        self._expander = StreamExpander(namespace)
        self.sim = StateVector(rng=self.rng)
        quantum = [w for w, t in inputs if t == QUANTUM]
        if len(quantum) > self.max_width:
            raise BackendError(
                f"{len(quantum)} input qubits exceed the statevector "
                f"limit ({self.max_width}); use .resources() to size "
                "the circuit first"
            )
        self.sim.load_inputs(inputs, self.in_values)

    def gate(self, gate: Gate) -> None:
        for flat in self._expander.expand(gate):
            if isinstance(flat, Measure):
                self._held.append(flat)
            elif not isinstance(flat, Comment):
                self._release()
                self._exec(flat)

    def _release(self) -> None:
        for gate in self._held:
            self._exec(gate)
        self._held.clear()

    def _exec(self, gate: Gate) -> None:
        if isinstance(gate, (Measure, Discard)):
            self.stochastic = True
        # Guard growth BEFORE allocating: one qubit past the cap would
        # double the state into gigabytes before any check could fire.
        if isinstance(gate, Init) and self.sim.num_qubits >= self.max_width:
            raise BackendError(
                f"stream width exceeded the statevector limit "
                f"({self.max_width} qubits); use .resources() to size "
                "the circuit first"
            )
        self.sim.execute(gate)

    @property
    def measured(self) -> frozenset[int]:
        """The wires of the held trailing measurements."""
        return frozenset(gate.wire for gate in self._held)

    def finish(self, end) -> None:
        self.outputs = end.outputs

    def result(self) -> RunResult:
        """The single-run result: the final state, nothing held."""
        self._release()
        return _state_result(self.name, self.sim, stochastic=self.stochastic)

    def outcome(self) -> str:
        """This run's outcome key over the outputs, nothing held."""
        self._release()
        sim = self.sim
        return outcome_key([
            bool(sim.measure_qubit(w) if t == QUANTUM else sim.bits[w])
            for w, t in self.outputs
        ])
