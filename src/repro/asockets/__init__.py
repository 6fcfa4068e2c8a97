"""Asyncio driver for the real-socket LSL stack (the C10K depot).

The thread-per-connection prototype (:mod:`repro.sockets`) demonstrates
the architecture but caps out at a few hundred concurrent sessions —
three threads per relayed session. This package drives the *same*
sans-I/O protocol core (:mod:`repro.lsl.core`) from one event loop per
process instead, as a reactor: each socket is registered with the loop
once (:class:`~repro.asockets.runtime.Endpoint`) and a session is a
plain object fed from the read callback — no task, no future.

* :class:`AsyncDepot` — the ``lsd`` relay; two cross-wired endpoints
  per session sharing one read buffer per loop, a bounded number of
  reads per readiness event, at most one chunk queued behind a slow
  next hop, half-close aware in both directions, graceful drain on
  shutdown.
* :class:`AsyncLslServer` — session terminus with accept/rebind
  arbitration and negotiated resume: the very session objects the
  threaded server runs (:mod:`repro.sockets.terminal`) behind an
  endpoint, their locks taken and — everything running on the loop —
  never contended.
* :class:`AsyncLslClient` — the sending side, awaitable on
  ``loop.sock_*`` and byte-identical on the wire to the blocking client
  (``tests/diff`` pins this).

Counters, protocol-event observation, and the ``/metrics`` +
``/healthz`` + ``/events`` exposition surface are shared with the
threaded driver, so observability is driver-agnostic. The paper's GIL
caveat still applies to absolute throughput numbers, but concurrent
*session count* — the C10K axis — is now bounded by file descriptors,
not threads (see ``benchmarks/bench_c10k.py``).
"""

from repro.asockets.client import AsyncLslClient
from repro.asockets.depot import AsyncDepot
from repro.asockets.runtime import AsyncLoopService
from repro.asockets.server import AsyncLslServer
from repro.asockets.striped import AsyncStripedServer
from repro.asockets.striped import send_striped as async_send_striped

__all__ = [
    "AsyncDepot",
    "AsyncLslClient",
    "AsyncLslServer",
    "AsyncLoopService",
    "AsyncStripedServer",
    "async_send_striped",
]
