"""Canonical serialization and content digests for service requests.

The compile cache of :mod:`repro.service` is *content-addressed*: the
key is a SHA-256 over the canonical JSON of everything that determines
the compiled circuit -- the registered program name, its fully-defaulted
parameters, and the transform/optimize chain -- or, for raw circuit
submissions, the interchange text itself.  Two clients submitting the
same work therefore hash to the same key no matter how they spelled the
request (key order, omitted defaults, int-vs-float literals), which is
what makes "hot circuits compile once fleet-wide" true.

The JSON canonicalization here (sorted keys, no whitespace, NaN
rejected) is also used for every response body the server emits, so a
seeded run's result is **byte-identical** across workers, server
restarts, and machines.
"""

from __future__ import annotations

import hashlib
import json


def canonical_json(obj: object) -> str:
    """Serialize *obj* to canonical JSON: sorted keys, no whitespace.

    The one serialization used both for digest inputs and for response
    bodies, so equality of payloads is equality of bytes.  Rejects NaN
    and infinities (``allow_nan=False``): they have no canonical JSON
    spelling and would silently break byte-level determinism.
    """
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def digest_text(text: str, domain: str = "text") -> str:
    """Hex SHA-256 of *text* under a domain prefix.

    The *domain* prefix keeps different key spaces (request specs, raw
    cached circuit text) from ever colliding with each other.
    """
    return hashlib.sha256(f"{domain}:{text}".encode()).hexdigest()


def spec_digest(cspec: dict) -> str:
    """The content-address of one canonical compile spec.

    *cspec* must already be canonicalized (defaults applied, unknown
    keys rejected) by :func:`repro.service.registry.canonical_spec`;
    this function only fixes the serialization and hashes it.
    """
    return digest_text(canonical_json(cspec), domain="spec")


__all__ = ["canonical_json", "digest_text", "spec_digest"]
