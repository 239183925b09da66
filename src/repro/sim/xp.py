"""The array-module seam: numpy today, cupy (or any drop-in) tomorrow.

Every buffer the batched statevector engine allocates goes through this
module instead of importing :mod:`numpy` directly.  The active module is
selected once, lazily, from the ``REPRO_ARRAY_MODULE`` environment
variable (``numpy`` by default, ``cupy`` for the GPU path) and then
**probed per capability**: a candidate that cannot pass the engine's
actual access patterns -- complex128 buffers, strided sub-view mutation,
axis reductions, boolean row masking, per-row gathers -- is rejected and
the seam falls back to numpy with a warning rather than failing deep
inside a kernel.

The seam is deliberately thin.  Kernels receive arrays and use only the
operations the probes verify, so any module passing the probe suite is a
drop-in: the batched engine itself never mentions numpy.  Host handoffs
(sampling counts, serializing a statevector) go through
:func:`to_host`, the single point where device arrays become numpy.

Resolution is cached; tests (and embedders) can re-point the seam with
:func:`use` / :func:`reset`.
"""

from __future__ import annotations

import importlib
import os
import warnings

import numpy as _numpy

#: Environment variable naming the array module to load.
ENV_VAR = "REPRO_ARRAY_MODULE"

#: Capability probes, in the order they are attempted.  Each probe
#: exercises one access pattern the batched kernels rely on; see
#: :func:`probe_capabilities`.
CAPABILITIES = (
    "complex128",
    "strided_views",
    "axis_reduction",
    "boolean_mask",
    "row_gather",
)


class ArrayModule:
    """One resolved array backend: the module plus its probed surface."""

    __slots__ = ("name", "mod", "capabilities")

    def __init__(self, name: str, mod, capabilities: frozenset[str]):
        self.name = name
        self.mod = mod
        self.capabilities = capabilities

    def to_host(self, array):
        """The array as a host-side numpy ndarray (copy only if needed)."""
        if self.mod is _numpy:
            return array
        get = getattr(self.mod, "asnumpy", None)
        if get is not None:
            return get(array)
        return _numpy.asarray(array.get())

    def __repr__(self) -> str:
        return f"<ArrayModule {self.name!r} caps={sorted(self.capabilities)}>"


def probe_capabilities(mod) -> frozenset[str]:
    """Which of :data:`CAPABILITIES` the module actually supports.

    Each probe runs the real access pattern on a tiny array and must
    produce the numerically expected answer -- presence of an attribute
    is not trusted.  A probe that raises simply marks its capability
    unsupported.
    """
    passed = set()
    try:  # complex128: the amplitude dtype of every buffer
        a = mod.zeros(4, dtype=complex)
        a[1] = 1j
        if complex(a[1]) == 1j:
            passed.add("complex128")
    except Exception:  # pragma: no cover - degenerate module
        pass
    try:  # strided_views: in-place mutation through a reshaped sub-view
        a = mod.arange(8, dtype=complex)
        v = a.reshape(2, 2, 2)
        v[:, 1, :] = v[:, 1, :] * 2.0
        if complex(a[3]) == 6.0:
            passed.add("strided_views")
    except Exception:  # pragma: no cover
        pass
    try:  # axis_reduction: per-member norms over the batch axis
        a = mod.ones((2, 3), dtype=complex)
        s = a.real.sum(axis=1)
        if float(s[0]) == 3.0 and tuple(s.shape) == (2,):
            passed.add("axis_reduction")
    except Exception:  # pragma: no cover
        pass
    try:  # boolean_mask: masked member read + write-back on axis 0
        a = mod.arange(6, dtype=complex).reshape(3, 2)
        mask = mod.asarray([True, False, True])
        sub = a[mask]
        sub = sub * 10.0
        a[mask] = sub
        if complex(a[2, 0]) == 40.0:
            passed.add("boolean_mask")
    except Exception:  # pragma: no cover
        pass
    try:  # row_gather: per-member outcome selection (batched collapse)
        a = mod.arange(16, dtype=complex).reshape(2, 2, 2, 2)
        got = a[mod.arange(2), :, mod.asarray([1, 0]), :]
        if complex(got[0, 1, 0]) == 6.0 and complex(got[1, 0, 1]) == 9.0:
            passed.add("row_gather")
    except Exception:  # pragma: no cover
        pass
    return frozenset(passed)


_NUMPY_MODULE: ArrayModule | None = None
_active: ArrayModule | None = None


def _numpy_backend() -> ArrayModule:
    global _NUMPY_MODULE
    if _NUMPY_MODULE is None:
        _NUMPY_MODULE = ArrayModule(
            "numpy", _numpy, probe_capabilities(_numpy)
        )
    return _NUMPY_MODULE


def _resolve(name: str) -> ArrayModule:
    if name in ("", "numpy"):
        return _numpy_backend()
    try:
        mod = importlib.import_module(name)
    except ImportError:
        warnings.warn(
            f"{ENV_VAR}={name!r} is not importable; "
            "falling back to numpy",
            RuntimeWarning,
            stacklevel=3,
        )
        return _numpy_backend()
    caps = probe_capabilities(mod)
    missing = [c for c in CAPABILITIES if c not in caps]
    if missing:
        warnings.warn(
            f"{ENV_VAR}={name!r} failed capability probe(s) "
            f"{', '.join(missing)}; falling back to numpy",
            RuntimeWarning,
            stacklevel=3,
        )
        return _numpy_backend()
    return ArrayModule(name, mod, caps)


def active() -> ArrayModule:
    """The resolved array backend (selected on first use, then cached)."""
    global _active
    if _active is None:
        _active = _resolve(os.environ.get(ENV_VAR, "numpy").strip())
    return _active


def xp():
    """The active raw array module (what ``import numpy as np`` was)."""
    return active().mod


def to_host(array):
    """A host-side numpy view/copy of *array* (identity under numpy)."""
    return active().to_host(array)


def use(name: str) -> ArrayModule:
    """Re-point the seam at *name* (probing it); returns the resolution.

    Intended for tests and embedders; the environment variable is the
    deployment surface.  Falls back to numpy -- with a warning -- when
    the module is missing or fails a capability probe.
    """
    global _active
    _active = _resolve(name)
    return _active


def reset() -> None:
    """Drop the cached resolution; the next use re-reads the environment."""
    global _active
    _active = None


__all__ = [
    "ArrayModule",
    "CAPABILITIES",
    "ENV_VAR",
    "active",
    "probe_capabilities",
    "reset",
    "to_host",
    "use",
    "xp",
]
