"""The circuit-compilation service: async jobs over a shared cache.

Quipper's generate/transform/compile pipeline is deterministic and
pure, which makes compiled circuits perfectly cacheable -- this package
turns that into a small network service.  An asyncio HTTP/JSON server
(:mod:`~repro.service.server`, stdlib only) accepts compile, structural
query, export, and simulation jobs; a **content-addressed cache**
(:mod:`~repro.service.cache`) keyed on the canonical request spec
guarantees each distinct circuit is built exactly once, concurrently or
not; and run jobs fan out to **digest-affine worker processes**
(:mod:`~repro.service.workers`) whose seeded results are byte-identical
regardless of worker or server lifetime.

The service is **fault-tolerant by construction**: the worker pool is
supervised (heartbeats, crash detection, bounded respawn with backoff,
automatic requeue -- :mod:`~repro.service.workers`), disk-cache entries
are checksummed and quarantined on corruption, an unavailable pool
degrades to in-process runs instead of failing, and every failure mode
is reachable deterministically through the seedable fault-injection
registry in :mod:`~repro.service.faults` (``repro-serve --inject``).

Start a server with the ``repro-serve`` console script and talk to it
with :class:`~repro.service.client.ServiceClient` (or bare ``curl``);
see ``docs/service.md`` for the endpoint reference, deployment notes,
and the operating & failure-modes runbook.
"""
