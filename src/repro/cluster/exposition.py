"""Aggregated ``/metrics`` + ``/healthz`` for a whole worker fleet.

Each worker publishes its :class:`~repro.sockets.depot.DepotCounters`
snapshot into the session store (``publish_counters``); the cluster
launcher scrapes them back out here and serves one endpoint for the
fleet: every counter becomes a family with one ``worker``-labeled
sample per worker **plus** a ``worker="all"`` fleet total, so a
dashboard can plot either the totals or the per-worker breakdown from
the same scrape. ``lsl_cluster_worker_up`` says which workers are
currently publishing, and ``lsl_cluster_store_sessions`` exposes the
store's own view of live session state — the number a resume-anywhere
fleet actually cares about, since no single worker knows it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.sockets.obs import ExpositionServer, JsonEventLog
from repro.telemetry.exposition import MetricFamily
from repro.telemetry.tracing import TraceSpool

_CLUSTER_HELP = {
    "sessions_accepted": "Sublinks accepted, less ones closed with no byte, by worker.",
    "sessions_completed": "Sessions finished cleanly, by worker.",
    "sessions_failed": "Sessions that errored, by worker.",
    "sessions_refused": "Sublinks reset by the admission cap, by worker.",
    "sessions_suspended": "Terminal sessions parked for a rebind, by worker.",
    "sessions_expired": "Stored sessions dropped by the TTL sweep, by worker.",
    "bytes_relayed": "Payload bytes relayed, by worker.",
    "accept_errors": "Transient accept() failures survived, by worker.",
    "takeovers": "Rebinds that claimed a session owned by another worker.",
    "active_sessions": "Sessions open right now, by worker.",
}

#: Counter names rendered as gauges (point-in-time, not monotonic).
_GAUGES = frozenset({"active_sessions"})


def cluster_families(
    worker_counters: Dict[str, Dict[str, int]],
    *,
    workers_alive: Optional[Dict[str, bool]] = None,
    store_sessions: Optional[int] = None,
    prefix: str = "lsl_cluster_",
) -> List[MetricFamily]:
    """Fleet-level metric families from per-worker counter snapshots."""
    names = sorted({name for snap in worker_counters.values() for name in snap})
    families: List[MetricFamily] = []
    for name in names:
        fam = MetricFamily(
            name=prefix + name,
            type="gauge" if name in _GAUGES else "counter",
            help=_CLUSTER_HELP.get(name, ""),
        )
        total = 0
        for worker in sorted(worker_counters):
            value = worker_counters[worker].get(name, 0)
            total += value
            fam.add(value, worker=worker)
        fam.add(total, worker="all")
        families.append(fam)
    if workers_alive is not None:
        up = MetricFamily(
            name=prefix + "worker_up",
            type="gauge",
            help="1 when the worker process/loop is serving.",
        )
        for worker in sorted(workers_alive):
            up.add(1 if workers_alive[worker] else 0, worker=worker)
        families.append(up)
    if store_sessions is not None:
        families.append(
            MetricFamily(
                name=prefix + "store_sessions",
                type="gauge",
                help="Open sessions currently held by the shared store.",
            ).add(store_sessions)
        )
    return families


def expose_cluster(
    collect_counters: Callable[[], Dict[str, Dict[str, int]]],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers_alive: Optional[Callable[[], Dict[str, bool]]] = None,
    store_sessions: Optional[Callable[[], Optional[int]]] = None,
    health_extra: Optional[Callable[[], Dict[str, Any]]] = None,
    event_log: Optional[JsonEventLog] = None,
    trace_spool: Optional["TraceSpool"] = None,
) -> ExpositionServer:
    """Serve aggregated fleet metrics over the standard exposition.

    ``trace_spool``, when present, serves the *launcher's* spans on
    ``/spans`` (each worker serves its own via ``--expose-port``).
    """

    def collect() -> List[MetricFamily]:
        return cluster_families(
            collect_counters(),
            workers_alive=workers_alive() if workers_alive else None,
            store_sessions=store_sessions() if store_sessions else None,
        )

    def health() -> Dict[str, Any]:
        payload: Dict[str, Any] = {"status": "ok"}
        if workers_alive is not None:
            alive = workers_alive()
            payload["workers"] = len(alive)
            payload["workers_up"] = sum(1 for ok in alive.values() if ok)
            if payload["workers_up"] < payload["workers"]:
                payload["status"] = "degraded"
        if health_extra is not None:
            payload.update(health_extra())
        return payload

    return ExpositionServer(
        collect, host=host, port=port, health=health,
        event_log=event_log, trace_spool=trace_spool,
    )
