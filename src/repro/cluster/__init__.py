"""Multi-worker depot cluster with a pluggable external session store.

One LSL depot process holds every suspended session hostage: if the
process dies, so does the receiver state a rebind needs, and a fleet
of depots behind one address cannot resume each other's sessions. This
package externalizes that state:

* :mod:`repro.cluster.store` — the :class:`SessionStore` contract (the
  durable subset of :class:`~repro.lsl.core.SessionRegistry` plus the
  received-payload spool) and the in-memory backend;
* :mod:`repro.cluster.filestore` — a zero-dependency multi-process
  backend over lock files and atomic renames;
* :mod:`repro.cluster.resp` / :mod:`repro.cluster.miniredis` — a RESP
  (Redis protocol) backend and the stdlib-only server it talks to in
  tests and CI;
* :mod:`repro.cluster.acceptor` — store-backed accept/rebind/restart
  decisions with owner-epoch compare-and-swap takeover;
* :mod:`repro.cluster.node` / :mod:`repro.cluster.anode` — depot
  workers (threaded and asyncio) that relay intermediate-hop sessions
  like ``lsd`` and *terminate* last-hop sessions against the store, so
  any worker can resume any session;
* :mod:`repro.cluster.pool` — the ``--workers N`` launcher: in-process
  :class:`LocalCluster` for the memory store, subprocess
  :class:`WorkerPool` (SO_REUSEPORT or inherited-FD listener sharing)
  for external stores;
* :mod:`repro.cluster.exposition` — aggregated ``/metrics`` +
  ``/healthz`` across the whole worker fleet.

The package exports lazily, so a worker process loads only its own
role: a threaded worker never imports asyncio, a memory-store cluster
no Redis client, and nothing loads the exposition until it is served.
"""

from repro import lazy_exports

#: public name -> the submodule defining it, imported on first use
_EXPORTS = {
    "StoredSession": "store",
    "SessionStore": "store",
    "InMemoryStore": "store",
    "open_store": "store",
    "SharedFileStore": "filestore",
    "RedisProtocolStore": "resp",
    "MiniRedis": "miniredis",
    "StoreSessionAcceptor": "acceptor",
    "StoreAcceptNew": "acceptor",
    "StoreAcceptResume": "acceptor",
    "StoreRestart": "acceptor",
    "ClusterNode": "node",
    "AsyncClusterNode": "anode",
    "LocalCluster": "pool",
    "WorkerPool": "pool",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
