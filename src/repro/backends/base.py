"""The abstract execution backend and its structured result type.

The paper treats a generated circuit as a *representation* consumed by many
interpreters: "meaning is assigned to low-level quantum circuits" by
printing, counting, transforming, or simulating them (Sections 4.4.5, 5.3).
This module makes that explicit: every consumer is a :class:`Backend` that
takes a :class:`~repro.core.circuit.BCircuit` and returns a
:class:`RunResult`.  Backends are looked up by name through
:func:`repro.backends.get_backend`, so algorithms and CLIs can switch
execution targets (statevector, stabilizer, boolean, resource estimation)
without knowing anything about the engine behind the name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from ..core.circuit import BCircuit
from ..core.errors import QuipperError
from ..core.gates import Discard, Gate, Init, Measure, Term
from ..obs import core as _obs
from ..transform.inline import (CompiledCircuit, compile_flat,
                                iter_flat_gates)


class BackendError(QuipperError):
    """A backend cannot run the requested circuit or options."""


@dataclass
class RunResult:
    """The structured outcome of one :meth:`Backend.run` call.

    Which fields are populated depends on the backend's capabilities:

    * ``counts`` -- sampled measurement outcomes, keyed by bitstring.  The
      k-th character of a key is the value of the k-th output wire of the
      circuit (``bc.circuit.outputs`` order), ``'0'`` or ``'1'``.
    * ``statevector`` -- the final state over the output qubits (only for
      ``shots=None`` runs of backends with the ``"statevector"``
      capability); ``statevector_wires`` gives the wire id of each axis.
    * ``bits`` -- final values of classical output wires (deterministic
      runs only).
    * ``resources`` -- static cost estimates (gate counts, depth, width).
    """

    backend: str
    shots: int | None = None
    counts: dict[str, int] | None = None
    statevector: np.ndarray | None = None
    statevector_wires: tuple[int, ...] = ()
    bits: dict[int, bool] | None = None
    resources: dict[str, Any] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def probabilities(self) -> dict[str, float]:
        """Sampled counts normalized to relative frequencies."""
        if not self.counts:
            raise BackendError(f"backend {self.backend!r} returned no counts")
        total = sum(self.counts.values())
        return {k: v / total for k, v in self.counts.items()}

    def most_frequent(self) -> str:
        """The modal outcome bitstring of a sampled run."""
        if not self.counts:
            raise BackendError(f"backend {self.backend!r} returned no counts")
        return max(self.counts, key=lambda k: (self.counts[k], k))


class Backend:
    """Abstract base class for circuit execution backends.

    Subclasses set ``name`` and ``capabilities`` and implement
    :meth:`run`.  ``capabilities`` is a frozenset drawn from ``"counts"``,
    ``"statevector"``, ``"resources"``, ``"deterministic"`` -- callers use
    it to pick a backend that can answer their question.
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: What kinds of results this backend can produce.
    capabilities: frozenset[str] = frozenset()

    def run(
        self,
        bc: BCircuit,
        *,
        shots: int | None = None,
        in_values: dict[int, bool] | None = None,
        seed: int | None = None,
    ) -> RunResult:
        """Execute *bc* and return a :class:`RunResult`.

        ``shots`` requests repeated measurement of the output wires;
        ``in_values`` maps input wire ids to initial basis values (default
        all False); ``seed`` makes sampling reproducible.
        """
        raise NotImplementedError

    def supports(self, bc: BCircuit) -> bool:
        """Cheap static admission check (default: accept everything)."""
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class SuffixScan:
    """One pass over a stochastic suffix (every gate from the first
    ``Measure``/``Discard`` on), stored or streamed: all a sampler needs
    before it runs any of it.  ``gates`` counts the gates, ``events``
    the ``Measure``/``Discard`` gates (one draw each), ``peak`` is the
    most qubits live at once above those live at the fork, and ``forks``
    says whether any gate but a ``Measure`` follows; until one does,
    ``measured`` holds the measured wires."""

    __slots__ = ("gates", "events", "live", "peak", "forks", "measured")

    def __init__(self, gates=()):
        self.gates = self.events = self.live = self.peak = 0
        self.forks, self.measured = False, set()
        for gate in gates:
            self.add(gate)

    def add(self, gate: Gate) -> None:
        """Account for the suffix's next gate."""
        self.gates += 1
        if isinstance(gate, Init):
            self.live += 1
            self.peak = max(self.peak, self.live)
        elif isinstance(gate, (Term, Measure, Discard)):
            self.live -= 1
            self.events += not isinstance(gate, Term)
        if isinstance(gate, Measure):
            if not self.forks:
                self.measured.add(gate.wire)
        else:
            self.forks = True


class SimulatorBackend(Backend):
    """A simulating backend: one state type and one sampler.

    Subclasses build and guard a run's state (``load(inputs, in_values,
    rng)``), run one streamed gate on it (:meth:`step`), return a single
    run's result (``single(state)``) and draw shots
    (``sample(base, scan, run_suffix, outputs, shots, rng)``): from the
    state *base* left by the deterministic prefix -- every gate before
    the first ``Measure``/``Discard``, which draws nothing -- given the
    :class:`SuffixScan` of the rest and a callback that runs the rest on
    a fork of *base*.  Stored circuits (:meth:`run`) and gate streams
    (:meth:`repro.streaming.GateStream.run`) both reach that sampler; a
    stored circuit's prefix comes from :meth:`prefix`, which a subclass
    may run in another form.
    """

    def admit(self, bc: BCircuit) -> dict[str, Any]:
        """Refuse *bc* if it cannot be simulated; else the metadata a
        sampled result carries about it."""
        return {}

    def step(self, state, gate: Gate) -> None:
        """Run one streamed gate on *state*."""
        state.execute(gate)

    def prefix(self, bc: BCircuit, compiled: CompiledCircuit) -> list:
        """What a sampled run of *bc* runs before it forks: by default
        the deterministic prefix of its compiled stream, as gates."""
        return compiled.gates[:compiled.prefix_len]

    def run(self, bc: BCircuit, *, shots: int | None = None,
            in_values: dict[int, bool] | None = None,
            seed: int | None = None) -> RunResult:
        """Run *bc* once, streaming the hierarchy lazily, or sample it
        from its compiled stream (inlined once, memoized on *bc*): the
        :meth:`prefix` once, then the rest per fork."""
        admitted = self.admit(bc)
        if shots is not None and shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        rng = np.random.default_rng(seed)
        state = self.load(bc.circuit.inputs, in_values or {}, rng)
        if shots is None:
            state.run(iter_flat_gates(bc))
            return self.single(state)
        compiled = compile_flat(bc)
        suffix = compiled.gates[compiled.prefix_len:]
        state.run(self.prefix(bc, compiled))
        result = self.sample(state, SuffixScan(suffix),
                             lambda fork: fork.run(suffix),
                             bc.circuit.outputs, shots, rng)
        result.metadata.update(admitted)
        return result


@lru_cache(maxsize=4096)
def code_key(code: int, width: int) -> str:
    """The counts-dictionary key of outcome *code* over *width* outputs:
    its binary digits, the first output the most significant.

    Every sampler builds its keys here, so the counts of every run share
    one string per outcome: a process that keeps many results (a service,
    a benchmark awaiting its checks) holds each key once, within the
    memo's fixed bound.
    """
    return format(code, f"0{width}b") if width else ""


_obs.register_cache("counts.keys", code_key)


def outcome_key(bits: list[bool]) -> str:
    """Render one sampled outcome as a counts-dictionary key."""
    code = 0
    for bit in bits:
        code = code << 1 | bool(bit)
    return code_key(code, len(bits))


def marginal_counts(result: RunResult, bc: BCircuit,
                    wires: list[int]) -> dict[int, int]:
    """Marginalize sampled counts onto a register of output wires.

    Each outcome is decoded over *wires* (most significant first, the
    register convention of :class:`~repro.datatypes.qdint.QDInt`) into an
    integer; counts of outcomes agreeing on those wires are summed.  This
    is how algorithms read one register out of a whole-circuit counts
    dictionary.
    """
    if not result.counts:
        raise BackendError(f"backend {result.backend!r} returned no counts")
    position = {w: k for k, (w, _) in enumerate(bc.circuit.outputs)}
    try:
        indices = [position[w] for w in wires]
    except KeyError as exc:
        raise BackendError(
            f"wire {exc.args[0]} is not a circuit output"
        ) from None
    out: dict[int, int] = {}
    for key, count in result.counts.items():
        value = 0
        for index in indices:
            value = (value << 1) | (key[index] == "1")
        out[value] = out.get(value, 0) + count
    return out
