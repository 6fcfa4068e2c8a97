"""Live observability for the real-socket stack.

Three pieces, composable and all optional:

* :class:`JsonEventLog` — a thread-safe bounded ring of structured
  JSON events with an optional append-only JSONL file. Its
  :meth:`~JsonEventLog.protocol_observer` adapter lets the sans-I/O
  cores (``RelayCore``, ``SessionAcceptor``, receivers) feed it
  directly, and it keeps per-kind counters for exposition.
* :class:`ExpositionServer` — a stdlib ``ThreadingHTTPServer`` serving
  ``/metrics`` (Prometheus text, rendered from a collect callback),
  ``/healthz`` (liveness JSON), and ``/events?n=`` (the tail of the
  event ring).
* :func:`install_sigusr1_dump` — snapshot-on-signal: ``SIGUSR1`` on a
  live ``lsd`` writes the counter snapshot plus the event ring to a
  telemetry directory without stopping the daemon.

The depot's data path stays untouched when these are absent: the
observer hook costs one attribute load per event site, and the HTTP
server runs entirely on its own threads.
"""

from __future__ import annotations

import collections
import json
import os
import signal
import threading
import time
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, List, Optional, Tuple, Union,
)
from urllib.parse import parse_qs, urlparse

from repro.lsl.core.events import ProtocolEvent, ProtocolObserver
from repro.telemetry.exposition import (
    MetricFamily,
    counters_family,
    render_prometheus,
)
from repro.telemetry.tracing import TraceSpool

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler

_PROCESS_START = time.time()


def process_families() -> List[MetricFamily]:
    """Per-process resource gauges, readable from any exposed service.

    Sourced from ``/proc/self`` where available (Linux), degrading to
    ``resource.getrusage`` for RSS elsewhere; a family whose source is
    unavailable is simply omitted rather than reported as zero.
    """
    families: List[MetricFamily] = []
    rss: Optional[int] = None
    try:
        with open("/proc/self/statm") as fp:
            rss = int(fp.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        try:
            import resource

            # ru_maxrss is KiB on Linux; peak rather than current, but
            # an honest upper bound where /proc is unavailable
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        except (ImportError, OSError, ValueError):
            rss = None
    if rss is not None:
        families.append(
            MetricFamily(
                name="lsl_process_rss_bytes",
                type="gauge",
                help="Resident set size of this process.",
            ).add(rss)
        )
    try:
        open_fds = len(os.listdir("/proc/self/fd"))
    except OSError:
        open_fds = None
    if open_fds is not None:
        families.append(
            MetricFamily(
                name="lsl_process_open_fds",
                type="gauge",
                help="Open file descriptors in this process.",
            ).add(open_fds)
        )
    families.append(
        MetricFamily(
            name="lsl_process_uptime_seconds",
            type="gauge",
            help="Seconds since this process imported the obs module.",
        ).add(round(time.time() - _PROCESS_START, 3))
    )
    return families

_DEPOT_HELP = {
    "sessions_accepted": "Sublinks accepted, less those closed with no byte sent.",
    "sessions_completed": "Relay sessions that ended in both directions.",
    "sessions_failed": "Relay sessions that errored or were cut short.",
    "sessions_refused": "Sublinks reset by the admission cap, never accepted.",
    "sessions_suspended": "Terminal sessions parked mid-payload awaiting "
    "a rebind.",
    "sessions_expired": "Suspended sessions dropped by the TTL sweep.",
    "bytes_relayed": "Payload bytes copied through the depot.",
    "accept_errors": "Transient accept() failures survived by the "
    "accept loop (EMFILE, ECONNABORTED, ...).",
    "takeovers": "Rebinds that claimed a session owned by another "
    "cluster worker (owner-epoch CAS).",
}


class JsonEventLog:
    """Bounded ring of structured events, with optional JSONL spill.

    ``append`` is safe from any thread. Events are plain dicts with at
    least ``t`` (wall clock), ``seq``, and ``kind``; everything else is
    caller-provided and must be JSON-serializable.
    """

    def __init__(
        self,
        capacity: int = 1024,
        path: Optional[Union[str, os.PathLike]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._capacity = capacity
        self._ring: Deque[Dict[str, Any]] = collections.deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._kind_counts: Dict[str, int] = {}
        self._fp = open(path, "a", buffering=1) if path is not None else None

    def append(self, kind: str, **fields: Any) -> Dict[str, Any]:
        event = {"t": time.time(), "kind": kind, **fields}
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            if len(self._ring) == self._capacity:
                # the deque is about to evict its oldest event; scrapes
                # that trail the ring by more than `capacity` see a gap
                self._dropped += 1
            self._ring.append(event)
            self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
            if self._fp is not None:
                try:
                    self._fp.write(json.dumps(event, sort_keys=True) + "\n")
                except (OSError, ValueError):
                    pass  # never let logging break the data path
        return event

    def tail(
        self, n: Optional[int] = None, since: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """The ring's tail: events after cursor ``since``, at most ``n``.

        ``since`` is a previously seen ``seq``; a scraper passes its
        last cursor and receives only newer events (resumable tailing —
        the ``/events?since=`` contract).
        """
        with self._lock:
            events = list(self._ring)
        if since is not None:
            events = [e for e in events if e["seq"] > since]
        if n is not None and n >= 0:
            events = events[-n:] if n else []
        return events

    @property
    def total_events(self) -> int:
        with self._lock:
            return self._seq

    @property
    def dropped_events(self) -> int:
        """Events evicted from the ring before any scrape could see them."""
        with self._lock:
            return self._dropped

    def kind_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._kind_counts)

    def protocol_observer(self, role: str) -> ProtocolObserver:
        """An observer feeding core :class:`ProtocolEvent`\\ s into the log."""

        def observe(event: ProtocolEvent) -> None:
            self.append(event.kind, role=role, session=event.session,
                        **event.detail)

        return observe

    def close(self) -> None:
        with self._lock:
            if self._fp is not None:
                try:
                    self._fp.close()
                except OSError:
                    pass
                self._fp = None


def depot_families(
    counters_snapshot: Dict[str, int],
    event_log: Optional[JsonEventLog] = None,
    *,
    prefix: str = "lsd_",
) -> List[MetricFamily]:
    """Metric families for a depot: counters, gauge, per-kind events."""
    snap = dict(counters_snapshot)
    active = snap.pop("active_sessions", None)
    families = counters_family(snap, prefix=prefix, help_texts=_DEPOT_HELP)
    if active is not None:
        families.append(
            MetricFamily(
                name=prefix + "active_sessions",
                type="gauge",
                help="Relay sessions currently open.",
            ).add(active)
        )
    if event_log is not None:
        fam = MetricFamily(
            name=prefix + "proto_events",
            type="counter",
            help="Protocol events observed, by kind.",
        )
        for kind in sorted(event_log.kind_counts()):
            fam.add(event_log.kind_counts()[kind], kind=kind)
        families.append(fam)
        # unprefixed on purpose: the dropped-event budget is a property
        # of the process's ring, not of the service role exposing it
        families.append(
            MetricFamily(
                name="lsl_events_dropped",
                type="counter",
                help="Events evicted from the ring before being scraped.",
            ).add(event_log.dropped_events)
        )
    return families


class ExpositionServer:
    """``/metrics`` + ``/healthz`` + ``/events`` + ``/spans`` over HTTP.

    ``collect`` returns the metric families for ``/metrics`` (process
    gauges are appended automatically); ``health`` returns the JSON
    body for ``/healthz`` (defaults to ``{"status": "ok", "uptime_s":
    ...}``); ``trace_spool``, when present, backs ``/spans`` with the
    process's span ring (the fleet collector's scrape source). Runs on
    daemon threads; ``shutdown`` is idempotent.
    """

    def __init__(
        self,
        collect: Callable[[], List[MetricFamily]],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
        event_log: Optional[JsonEventLog] = None,
        trace_spool: Optional[TraceSpool] = None,
    ) -> None:
        # deferred: a service that never exposes never loads http.server
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._collect = collect
        self._health = health
        self._event_log = event_log
        self._trace_spool = trace_spool
        self._started = time.monotonic()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

            def do_GET(self) -> None:
                try:
                    outer._respond(self)
                except BrokenPipeError:  # client went away mid-reply
                    pass

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self.address: Tuple[str, int] = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"lsd-expose-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    def _respond(self, handler: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(handler.path)
        if parsed.path == "/metrics":
            try:
                families = list(self._collect()) + process_families()
                body = render_prometheus(families).encode()
            except Exception as exc:
                self._send(handler, 500, "text/plain",
                           f"collect failed: {exc}\n".encode())
                return
            self._send(
                handler, 200,
                "text/plain; version=0.0.4; charset=utf-8", body,
            )
        elif parsed.path == "/healthz":
            payload = (
                self._health()
                if self._health is not None
                else {
                    "status": "ok",
                    "uptime_s": round(time.monotonic() - self._started, 3),
                }
            )
            self._send(
                handler, 200, "application/json",
                (json.dumps(payload, sort_keys=True) + "\n").encode(),
            )
        elif parsed.path == "/events":
            if self._event_log is None:
                self._send(handler, 404, "text/plain", b"no event log\n")
                return
            params = self._tail_params(handler, parsed.query)
            if params is None:
                return
            n, since = params
            body = (
                json.dumps(self._event_log.tail(n, since), sort_keys=True)
                + "\n"
            ).encode()
            self._send(handler, 200, "application/json", body)
        elif parsed.path == "/spans":
            if self._trace_spool is None:
                self._send(handler, 404, "text/plain", b"no trace spool\n")
                return
            params = self._tail_params(handler, parsed.query)
            if params is None:
                return
            n, since = params
            payload = {
                "service": self._trace_spool.service,
                "pid": os.getpid(),
                "total": self._trace_spool.total_records,
                "dropped": self._trace_spool.dropped_records,
                "spans": self._trace_spool.tail(n, since=since),
            }
            self._send(
                handler, 200, "application/json",
                (json.dumps(payload, sort_keys=True) + "\n").encode(),
            )
        else:
            self._send(handler, 404, "text/plain", b"not found\n")

    def _tail_params(
        self, handler: BaseHTTPRequestHandler, raw_query: str
    ) -> Optional[Tuple[Optional[int], Optional[int]]]:
        """Parse shared ``?n=`` / ``?since=`` params; None after a 400."""
        query = parse_qs(raw_query)
        n: Optional[int] = None
        since: Optional[int] = None
        if "n" in query:
            try:
                n = max(0, int(query["n"][0]))
            except ValueError:
                self._send(handler, 400, "text/plain", b"bad n\n")
                return None
        if "since" in query:
            try:
                since = max(0, int(query["since"][0]))
            except ValueError:
                self._send(handler, 400, "text/plain", b"bad since\n")
                return None
        return n, since

    @staticmethod
    def _send(
        handler: BaseHTTPRequestHandler,
        status: int,
        content_type: str,
        body: bytes,
    ) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def shutdown(self) -> None:
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
        except OSError:
            pass
        self._thread.join(timeout=5)

    def __enter__(self) -> "ExpositionServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def dump_snapshot(
    outdir: Union[str, os.PathLike],
    counters_snapshot: Dict[str, int],
    event_log: Optional[JsonEventLog] = None,
    *,
    reason: str = "signal",
) -> str:
    """Write a ``lsd-dump-*.json`` snapshot; returns the path written."""
    os.makedirs(outdir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = f"lsd-dump-{stamp}"
    path = os.path.join(outdir, base + ".json")
    seq = 1
    while os.path.exists(path):
        path = os.path.join(outdir, f"{base}-{seq}.json")
        seq += 1
    payload: Dict[str, Any] = {
        "reason": reason,
        "wall_time": time.time(),
        "counters": dict(counters_snapshot),
        "events": event_log.tail() if event_log is not None else [],
        "event_kind_counts": (
            event_log.kind_counts() if event_log is not None else {}
        ),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, path)
    return path


def install_sigusr1_dump(
    snapshot: Callable[[], Dict[str, int]],
    outdir: Union[str, os.PathLike],
    event_log: Optional[JsonEventLog] = None,
) -> Callable[[], None]:
    """``SIGUSR1`` → :func:`dump_snapshot`; returns an uninstaller.

    Main-thread only (signal module restriction). The handler itself
    only sets paths up and writes JSON — no locks shared with the data
    path beyond the counter/ring snapshots, so it is safe to fire
    mid-transfer.
    """

    def _handler(signum: int, frame: Any) -> None:
        try:
            dump_snapshot(outdir, snapshot(), event_log, reason="SIGUSR1")
        except OSError:
            pass

    previous = signal.signal(signal.SIGUSR1, _handler)

    def uninstall() -> None:
        signal.signal(signal.SIGUSR1, previous)

    return uninstall
