"""``lsd`` on asyncio — the C10K depot driver.

Same protocol duties as :class:`repro.sockets.lsd.ThreadedDepot`
(both are thin drivers over :class:`~repro.lsl.core.RelayCore`), but
one event loop carries every session instead of three threads per
session, so concurrent-session count is bounded by file descriptors,
not threads. A session is a :class:`RelaySession` — no task, no
future: the header phase runs in the upstream endpoint's read
callback, the dial is ``connect_ex`` — plus a one-shot writer and a
``call_later`` deadline only when the kernel has not finished by then
(never on loopback) — and the relay is two cross-wired endpoints
reading into the loop's one shared buffer and sending straight from
it, copying out only what a partial ``send`` left behind.

Counter accounting, the :class:`~repro.lsl.core.ProtocolObserver`
event plane, and the ``/metrics`` + ``/healthz`` + ``/events``
exposition surface are shared with the threaded driver — a scrape
cannot tell which driver is behind the socket.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Any, Dict, Optional

from repro.lsl.core import (
    Chunk,
    ProtocolObserver,
    RelayCore,
    RelayForward,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.lsl.core.errors import ProtocolError
from repro.asockets.runtime import AsyncLoopService, Endpoint, dial
from repro.sockets.lsd import DepotCounters
from repro.telemetry.tracing import TraceSpool


class RelaySession:
    """One relayed session: header phase, dial, two cross-wired ends.

    Shared with the async cluster node, whose sessions enter at
    :meth:`received` after their own header phase. Upstream reads stay
    paused during the dial, so bytes (and a FIN) that arrive in that
    window simply wait in the kernel.
    """

    def __init__(self, depot: "AsyncDepot") -> None:
        self.depot = depot
        self.core = RelayCore(observer=depot._observer)
        self.up: Endpoint  # set by whoever accepted the sublink
        self.down: Optional[Endpoint] = None
        self.dialing: Optional[socket.socket] = None
        self.deadline: Optional[asyncio.TimerHandle] = None
        self.decision: Optional[RelayForward] = None
        self.relay_span = self.dial_span = 0
        self.copied = 0  # posted to the counter when the session ends

    # -- endpoint callbacks ------------------------------------------------

    def received(self, ep: Endpoint, data: Any) -> None:
        if ep.peer is not None:
            ep.peer.write(data)
            self.copied += len(data)
            return
        decision = self.core.feed([Chunk.real(data)])
        if isinstance(decision, RelayReject):
            self.end(decision.error)
        elif decision is not None:
            try:
                self._dial(decision)
            except Exception as exc:  # unresolvable hop, EMFILE, ...
                self.end(exc)

    def ended(self, ep: Endpoint) -> None:
        if ep.peer is None:
            self.end(self.core.on_upstream_fin() or ProtocolError(
                "upstream closed during header phase"
            ))
            return
        ep.peer.finish()
        if ep.peer.eof:  # both directions have ended
            self.end()

    def broken(self, ep: Endpoint, exc: BaseException) -> None:
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
        self.dialing = sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if dial(sock, (nxt.host, nxt.port)):
            self._dialed(sock)  # loopback: the kernel has already finished
            return
        loop = depot._loop
        loop.add_writer(sock.fileno(), self._writable, sock)
        self.deadline = loop.call_later(
            depot._connect_timeout, self.end,
            asyncio.TimeoutError(f"dial {nxt}"),
        )

    def _writable(self, sock: socket.socket) -> None:
        self.depot._loop.remove_writer(sock.fileno())
        err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
        if err:
            self.end(OSError(err, os.strerror(err)))
            return
        self.deadline.cancel()
        self._dialed(sock)

    def _dialed(self, sock: socket.socket) -> None:
        depot = self.depot
        self.dialing = None
        decision = self.decision
        onward = decision.onward_bytes
        if self.relay_span:
            # traced depot: forward our relay span as the downstream
            # parent instead of the core's verbatim onward header
            depot._tracer.end(self.dial_span)
            self.dial_span = 0
            onward = decision.header.traced_onward(self.relay_span).encode()
        self.down = down = Endpoint(depot, sock, self, peer=self.up)
        down.write(onward)
        self.up.peer = down  # relaying from here on
        for chunk in decision.surplus:  # payload that came with the header
            self.received(self.up, chunk.data)
        self.up.resume()

    # -- end ---------------------------------------------------------------

    def end(self, failure: Optional[BaseException] = None) -> None:
        """Close both ends and account for the session, once."""
        if self.up.closed:
            return
        depot = self.depot
        if self.deadline is not None:
            self.deadline.cancel()
        if self.dialing is not None:
            depot._loop.remove_writer(self.dialing.fileno())
            self.dialing.close()
        if depot._tracer is not None:
            if self.dial_span:
                depot._tracer.end(self.dial_span, status="error")
            if self.relay_span:
                depot._tracer.end(
                    self.relay_span,
                    status="ok" if failure is None else "error",
                )
        self.up.close()
        if self.down is not None:
            self.down.close()
        if self.copied:
            depot.counters.add(bytes_relayed=self.copied)
        if failure is not None:
            header = self.core.header
            emit(depot._observer, "relay-failed",
                 header.short_id if header is not None else "",
                 reason=f"{type(failure).__name__}: {failure}")
        depot.counters.session_ended(failure is None)


class AsyncDepot(AsyncLoopService):
    """A depot relaying sessions on one event loop until ``shutdown``.

    ``connect_timeout`` bounds the downstream dial only — established
    relays carry no timeout, so arbitrarily long mid-transfer idle gaps
    never kill a healthy session (the threaded stack's old 30 s
    idle-kill bug cannot exist here by construction).
    """

    _thread_prefix = "alsd"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        backlog: int = 4096,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.counters = DepotCounters()
        self._observer = observer
        self._tracer = tracer
        self._connect_timeout = connect_timeout
        super().__init__(
            host,
            port,
            drain_timeout=drain_timeout,
            backlog=backlog,
            reuse_port=reuse_port,
            listener=listener,
        )

    # -- accept hooks ------------------------------------------------------

    def _on_accept_error(self, exc: OSError) -> None:
        self.counters.add(accept_errors=1)
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    def _open(self, sock: socket.socket) -> Endpoint:
        self.counters.session_started()
        relay = RelaySession(self)
        relay.up = Endpoint(self, sock, relay)
        return relay.up

    # -- observability -----------------------------------------------------

    def expose(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        event_log=None,
    ):
        """Serve ``/metrics`` + ``/healthz`` + ``/events`` for this depot.

        Identical surface to the threaded depot's — same families, same
        label set — so dashboards and the diagnosis tooling work
        unchanged whichever driver runs the depot.
        """
        from repro.sockets.obs import ExpositionServer, depot_families

        def collect():
            return depot_families(self.counters.snapshot(), event_log)

        def health() -> Dict[str, object]:
            return {
                "status": "ok",
                "depot": f"{self.address[0]}:{self.address[1]}",
                "driver": "asyncio",
                "active_sessions": self.counters.active_sessions,
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncDepot {self.address[0]}:{self.address[1]}>"
