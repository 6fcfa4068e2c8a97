"""``lsd`` — the real-socket depot daemon, once for both drivers.

"The daemon runs without privileges — it is a user-level process ...
the lsd process very simply establishes a transport to transport
binding based on the LSL header information."

That binding is :class:`RelaySession`: the upstream link's ``received``
drives :class:`~repro.lsl.core.RelayCore` until it decides (the same
header-phase machine the simulator depot runs), the depot's ``_dial``
hook connects the decided next hop, the onward header and the surplus
go down it, and from then on each link's bytes go to its peer, with a
FIN passed on as a half-close. :class:`DepotEngine` is the depot around
it — counters, observer, tracer, the accept hooks and the exposition —
and a driver adds only its chassis and its dial: :class:`ThreadedDepot`
here (two pooled workers per relay, one reading each direction, and
the blocking :func:`~repro.sockets.wire.dial`),
:class:`repro.asockets.depot.AsyncDepot` on the event loop.
Backpressure is the kernel's: a blocking ``send`` on a full downstream
socket stalls its reader, the upstream receive buffer fills, and the
sender's window closes — the same chain the simulator models
explicitly.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Callable, Dict, Optional

from repro.lsl.core import (
    Chunk,
    ProtocolObserver,
    RelayCore,
    RelayForward,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.wire import RouteHop
from repro.sockets.wire import ThreadedService, dial
from repro.telemetry.tracing import TraceSpool


class DepotCounters:
    """Thread-safe depot counters with an active-session gauge.

    All mutation goes through :meth:`add` / the session gauge helpers
    under one internal lock, and :meth:`snapshot` returns a consistent
    view — readers never see a torn update. Mirrors the simulator
    depot's outcome accounting: ``sessions_completed`` only when the
    relay drained cleanly in both directions, ``sessions_failed``
    otherwise; a connection that closes before its first byte is no
    session at all (:meth:`session_idle`).
    """

    _FIELDS = (
        "sessions_accepted",
        "sessions_completed",
        "sessions_failed",
        "sessions_suspended",
        "sessions_expired",
        "bytes_relayed",
        "accept_errors",
        "takeovers",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {name: 0 for name in self._FIELDS}
        self._active = 0

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._values:
                    raise AttributeError(f"unknown counter {name!r}")
                self._values[name] += delta

    def session_started(self) -> None:
        with self._lock:
            self._values["sessions_accepted"] += 1
            self._active += 1

    def session_ended(self, completed: bool) -> None:
        with self._lock:
            self._active -= 1
            key = "sessions_completed" if completed else "sessions_failed"
            self._values[key] += 1

    def session_idle(self) -> None:
        """A connection closed before its first byte (a TCP health
        check): not a session, so its accept is taken back."""
        with self._lock:
            self._active -= 1
            self._values["sessions_accepted"] -= 1

    def session_suspended(self) -> None:
        """A terminal session EOFed mid-payload and is parked for a
        rebind — neither completed nor failed yet."""
        with self._lock:
            self._active -= 1
            self._values["sessions_suspended"] += 1

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self._values)
            snap["active_sessions"] = self._active
            return snap

    def __getattr__(self, name: str) -> int:
        if name in DepotCounters._FIELDS:
            with self._lock:
                return self._values[name]
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DepotCounters({self.snapshot()})"


class RelaySession:
    """One relayed session: header phase, dial, two cross-wired links.

    The upstream link is the one its first callback names (a cluster
    node hands over a link it has read the header from by making a
    relay its owner and re-feeding the header). Upstream reads stay
    paused during the dial, so bytes (and a FIN) that arrive in that
    window wait in the kernel. On threads the two directions are read
    by two workers at once: each direction keeps its own byte count, so
    every count has one writer, and :meth:`end` takes the relay's lock
    — per call, never across a read — so the session is accounted
    exactly once. The per-chunk path takes no lock.
    """

    def __init__(self, depot: "DepotEngine") -> None:
        self.depot = depot
        self.core = RelayCore(observer=depot._observer)
        self.up: Any = None
        self.down: Any = None
        self.lock = threading.Lock()
        self.decision: Optional[RelayForward] = None
        #: set by a driver whose dial is waiting on the loop
        self.cancel_dial: Optional[Callable[[], None]] = None
        self.relay_span = self.dial_span = 0
        # posted to the counter when the session ends
        self.forwarded = self.returned = 0

    # -- link callbacks ----------------------------------------------------

    def received(self, link: Any, data: Any) -> None:
        peer = link.peer
        if peer is not None:
            try:
                peer.write(data)
            except OSError as exc:  # threads: a blocking send to a dead
                # peer raises here; an Endpoint reports its own to broken
                self.broken(peer, exc)
                return
            if link is self.up:
                self.forwarded += len(data)
            else:
                self.returned += len(data)
            return
        self.up = link
        decision = self.core.feed([Chunk.real(data)])
        if isinstance(decision, RelayReject):
            self.end(decision.error)
        elif decision is not None:
            try:
                self._dial(decision)
            except Exception as exc:  # unresolvable hop, refused, EMFILE, ...
                self.end(exc)

    def ended(self, link: Any) -> None:
        peer = link.peer
        if peer is None:
            idle, self.up = self.up is None, link  # idle: it sent no byte
            self.end(None if idle else (
                self.core.on_upstream_fin()
                or ProtocolError("upstream closed during header phase")
            ), idle)
            return
        peer.finish()
        if peer.eof:  # both directions have ended
            self.end()

    def broken(self, link: Any, exc: BaseException) -> None:
        if self.up is None:
            self.up = link  # reset before the first byte
        # once relaying, a reset is the pumps' business, not a failure:
        # both directions are over and whatever is queued still drains
        relaying = self.up.peer is not None and isinstance(exc, OSError)
        self.end(None if relaying else exc)

    # -- dial --------------------------------------------------------------

    def _dial(self, decision: RelayForward) -> None:
        self.decision = decision
        depot = self.depot
        tracer, tctx = depot._tracer, decision.header.trace
        nxt = decision.next_hop
        if tracer is not None and tctx is not None:
            self.relay_span = tracer.begin(
                "depot.relay",
                tctx.trace_id,
                tctx.parent_span,
                session=decision.header.short_id,
                depot=f"{depot.address[0]}:{depot.address[1]}",
                hop=tctx.hop,
            )
            self.dial_span = tracer.begin(
                "depot.dial", tctx.trace_id, self.relay_span, hop=str(nxt)
            )
        self.up.pause()
        depot._dial(self, nxt)

    def _dialed(self, sock: socket.socket) -> None:
        """The next hop is connected: onward header, then the surplus,
        then upstream reads resume — core outputs are never reordered."""
        depot, decision = self.depot, self.decision
        assert decision is not None
        onward = decision.onward_bytes
        with self.lock:
            if self.up.closed:  # ended during the dial: a crash
                sock.close()
                return
            self.down = down = depot._link(sock, self, peer=self.up)
            if self.relay_span:
                # traced depot: forward our relay span as the downstream
                # parent instead of the core's verbatim onward header
                depot._tracer.end(self.dial_span)
                self.dial_span = 0
                onward = decision.header.traced_onward(self.relay_span).encode()
        down.write(onward)
        for chunk in decision.surplus:  # payload that came with the header
            down.write(chunk.data)
            self.forwarded += chunk.length
        self.up.peer = down  # relaying from here on
        self.up.resume()

    # -- end ---------------------------------------------------------------

    def end(self, failure: Optional[BaseException] = None, idle: bool = False) -> None:
        """Close both links and account for the session, once (an
        ``idle`` one, closed before its first byte, was none)."""
        with self.lock:
            if self.up.closed:
                return
            self.up.close()
            down = self.down
        if self.cancel_dial is not None:
            self.cancel_dial()
        depot = self.depot
        if depot._tracer is not None:
            if self.dial_span:
                depot._tracer.end(self.dial_span, status="error")
            if self.relay_span:
                depot._tracer.end(
                    self.relay_span,
                    status="ok" if failure is None else "error",
                )
        if down is not None:
            down.close()
        relayed = self.forwarded + self.returned
        if relayed:
            depot.counters.add(bytes_relayed=relayed)
        if idle:
            depot.counters.session_idle()
            return
        if failure is not None:
            header = self.core.header
            emit(depot._observer, "relay-failed",
                 header.short_id if header is not None else "",
                 reason=f"{type(failure).__name__}: {failure}")
        depot.counters.session_ended(failure is None)


class DepotEngine:
    """The depot both drivers run (mix in before a chassis).

    ``connect_timeout`` bounds the *dial* of the downstream hop only;
    once the relay is up the sockets carry no timeout, so an idle
    mid-transfer gap of any length (a stalled sender, a long
    zero-window) never kills a healthy relay. The chassis supplies
    ``address``, ``_link`` and ``_driver``; the driver supplies
    ``_dial(relay, hop)``, which calls ``relay._dialed(sock)`` once the
    next hop is connected.
    """

    address: Any
    _driver: str
    _link: Callable[..., Any]

    def __init__(
        self,
        observer: Optional[ProtocolObserver],
        connect_timeout: float,
        tracer: Optional[TraceSpool],
    ) -> None:
        self.counters = DepotCounters()
        self._observer = observer
        self._tracer = tracer
        self._connect_timeout = connect_timeout

    def _dial(self, relay: RelaySession, hop: RouteHop) -> None:
        raise NotImplementedError

    # -- accept hooks ------------------------------------------------------

    def _open(self, sock: socket.socket) -> Any:
        self.counters.session_started()
        return self._link(sock, RelaySession(self))

    def _on_accept_error(self, exc: OSError) -> None:
        self.counters.add(accept_errors=1)
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    # -- observability -----------------------------------------------------

    def expose(self, host: str = "127.0.0.1", port: int = 0, event_log=None):
        """Serve ``/metrics`` + ``/healthz`` + ``/events`` for this depot.

        The same families and label set whichever driver runs the depot,
        so dashboards and the diagnosis tooling cannot tell. The
        returned server runs on its own daemon threads; callers own its
        lifecycle (it is *not* stopped by ``shutdown``, so one
        exposition endpoint can outlive a depot restart).
        """
        from repro.sockets.obs import ExpositionServer, depot_families

        def collect():
            return depot_families(self.counters.snapshot(), event_log)

        def health() -> Dict[str, object]:
            return {
                "status": "ok",
                "depot": f"{self.address[0]}:{self.address[1]}",
                "driver": self._driver,
                "active_sessions": self.counters.active_sessions,
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )


class ThreadedDepot(DepotEngine, ThreadedService):
    """A depot listening on ``(host, port)`` until :meth:`shutdown`."""

    _thread_prefix = "lsd-accept"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        DepotEngine.__init__(self, observer, connect_timeout, tracer)
        ThreadedService.__init__(
            self, host, port, reuse_port=reuse_port, listener=listener
        )

    def _dial(self, relay: RelaySession, hop: RouteHop) -> None:
        # blocks the upstream reader, which is what pauses it
        sock = dial(hop, self._connect_timeout)
        # the timeout was for the dial only: a relay must tolerate
        # arbitrarily long mid-transfer idle gaps without dying
        sock.settimeout(None)
        relay._dialed(sock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ThreadedDepot {self.address[0]}:{self.address[1]}>"
