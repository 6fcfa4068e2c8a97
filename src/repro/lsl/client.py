"""LSL client: open a session over a loose source route.

The client dials the **first hop** of the route (a depot, or directly
the server for a route of length 1), transmits the LSL header as the
first bytes of the stream, and then treats the sublink exactly like a
socket. Everything past the first hop is the depots' business.

The protocol itself — option checks, handshake sequencing, payload
accounting, the digest trailer, the client spans — is the
:class:`~repro.sockets.client.ClientSession` every client driver runs;
this module is the simulator driver mapping it onto
:class:`~repro.tcp.sockets.SimSocket` events.

Example
-------
::

    conn = lsl_connect(
        stack,
        route=[("denver-depot", 4000), ("uiuc", 5000)],
        payload_length=64 << 20,
    )
    conn.on_writable = pump          # fill as buffer space opens
    ...
    conn.finish()                    # sends the MD5 trailer + FIN
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.lsl.core import ProtocolError, StreamDigest, virtual_digest_factory
from repro.lsl.core.errors import FailoverExhausted, LslError, RouteError
from repro.lsl.core.handshake import ClientHandshake
from repro.lsl.core.sender import PayloadSender
from repro.lsl.core.session import BackoffPolicy, SessionId, new_session_id
from repro.lsl.core.wire import LslHeader, RouteHop
from repro.sockets.client import ClientSession, plan_client_session
from repro.tcp.buffers import StreamChunk
from repro.tcp.sockets import SimSocket, TcpStack
from repro.tcp.trace import ConnectionTrace

HopLike = Union[RouteHop, Tuple[str, int]]

__all__ = [
    "LslClientConnection",
    "lsl_connect",
    "lsl_rebind",
    "virtual_digest_factory",
    "FailoverTransfer",
    "HopLike",
]


def _normalize_route(route: Sequence[HopLike]) -> Tuple[RouteHop, ...]:
    if not route:
        raise RouteError("empty route")
    return tuple(RouteHop(h[0], h[1]) for h in route)


class LslClientConnection(ClientSession):
    """Client endpoint of an LSL session (simulator driver)."""

    parks_digest = False

    def __init__(
        self,
        stack: TcpStack,
        header: LslHeader,
        on_connected: Optional[Callable[[], None]] = None,
        trace: Optional[ConnectionTrace] = None,
        digest_state: Optional[StreamDigest] = None,
        digest_factory: Optional[Callable[[int], StreamDigest]] = None,
        parent_span=None,
        tracer=None,
        trace_id: Optional[bytes] = None,
        trace_parent: int = 0,
    ) -> None:
        # distributed tracing (wall-clock TraceSpool, distinct from the
        # sim-time telemetry spans below) is the ClientSession's
        super().__init__(
            (
                header, ClientHandshake(header),
                PayloadSender(header, digest_state, digest_factory),
            ),
            tracer, trace_id, trace_parent,
            stack.net.rng.stream("lsl-trace-ids"),
        )
        self.stack = stack
        self._pending_trailer = b""
        self._user_on_connected = on_connected
        self.established = False

        # reverse-direction (server -> client) deliveries
        self.on_readable: Optional[Callable[[], None]] = None
        self.on_writable: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[Optional[Exception]], None]] = None

        self.sock: SimSocket = stack.socket()
        self.sock.on_readable = self._sock_readable
        self.sock.on_writable = self._sock_writable
        self.sock.on_peer_fin = self._sock_peer_fin
        self.sock.on_close = self._sock_closed
        first = self.dial()
        self.sock.connect(
            (first.host, first.port), on_connected=self._connected, trace=trace
        )
        # span: this sublink's lifetime, parenting any TCP recovery
        # epochs on the underlying connection. Grouped by session id so
        # client/depot/server lanes share one Perfetto process.
        self.telemetry = stack.net.telemetry
        self.span = None
        if self.telemetry.enabled:
            self.span = self.telemetry.spans.begin(
                f"sublink:{stack.host.name}->{first.host}",
                cat="lsl",
                parent=parent_span,
                group=None if parent_span is not None else header.short_id,
                new_track=parent_span is not None,
                args={
                    "session": header.short_id,
                    "rebind": header.rebind,
                    "resume_offset": header.resume_offset,
                },
            )
            if self.sock.conn is not None:
                self.sock.conn.telemetry_span = self.span
            from repro.telemetry.protocol import protocol_observer

            self._handshake._observer = protocol_observer(
                self.telemetry, "client", lambda: self.span
            )
            # the sender-side TCP conn reports congestion-state
            # transitions (cc-open at this same sim instant, so the
            # diagnosis engine's tiling matches the sublink span)
            cc_obs = protocol_observer(
                self.telemetry, "tcp-client", lambda: self.span
            )
            if cc_obs is not None and self.sock.conn is not None:
                self.sock.conn.attach_cc_observer(cc_obs, header.short_id)

    # -- connection events ------------------------------------------------

    def _connected(self) -> None:
        self.sock.send(self.initial_bytes())
        if not self.bytes_needed:
            self._established()

    def _established(self) -> None:
        self.established = True
        if self._user_on_connected:
            self._user_on_connected()

    def _fail(self, exc: Exception) -> None:
        """Establishment failed: the spans say why, the sublink goes."""
        self._end_trace("error", exc)
        self.sock.abort()

    def _sock_readable(self) -> None:
        while self.bytes_needed:
            chunks = self.sock.recv(self.bytes_needed)
            if not chunks:
                return
            for chunk in chunks:
                if chunk.data is None:
                    # ack/offset must travel as real bytes
                    self._fail(ProtocolError("virtual bytes in handshake"))
                    return
                try:
                    done = self.feed(chunk.data)
                except LslError as exc:
                    self._fail(exc)
                    return
                if done:
                    self._established()
            if self.sock.readable_bytes == 0:
                return
        if self.on_readable:
            self.on_readable()

    def _sock_peer_fin(self) -> None:
        if self.bytes_needed:
            self._fail(ProtocolError("EOF during session establishment"))

    def _sock_writable(self) -> None:
        if self._pending_trailer:
            self._flush_trailer()
            return
        if self._handshake.awaiting_offset:
            return  # payload base unknown until the server grants an offset
        if self.on_writable:
            self.on_writable()

    def _sock_closed(self, error: Optional[Exception]) -> None:
        self._end_trace(
            "ok" if error is None and self.trailer_delivered else (
                "error" if error is not None else "aborted"
            ),
            error,
        )
        if self.span is not None:
            self.telemetry.spans.end(
                self.span,
                args={
                    "bytes_sent": self.bytes_sent,
                    "error": str(error) if error is not None else None,
                },
            )
            self.span = None
        if self.on_close:
            self.on_close(error)

    # -- payload transmission ------------------------------------------------

    @property
    def session_id(self) -> SessionId:
        return self.header.session_id

    @property
    def send_space(self) -> int:
        return self.sock.send_space

    def send(self, data: bytes) -> int:
        """Queue payload bytes; returns how many were accepted."""
        self._check_room(len(data))
        accepted = self.sock.send(data)
        if accepted:
            self._sender.record(data[:accepted])
        return accepted

    def send_virtual(self, nbytes: int) -> int:
        """Queue virtual payload; returns how many bytes were accepted."""
        self._check_room(nbytes)
        accepted = self.sock.send_virtual(nbytes)
        if accepted:
            self._sender.record_virtual(accepted)
        return accepted

    def recv(self, max_bytes: Optional[int] = None) -> List[StreamChunk]:
        """Read reverse-direction (server to client) data."""
        return self.sock.recv(max_bytes)

    @property
    def readable_bytes(self) -> int:
        return self.sock.readable_bytes

    # -- completion --------------------------------------------------------------

    @property
    def trailer_delivered(self) -> bool:
        """True once finish() ran and the whole trailer left our buffer."""
        return self._sender.finished and not self._pending_trailer

    def finish(self) -> None:
        """Declare the payload complete: send the MD5 trailer (when the
        header requested one) and FIN the sublink."""
        if self._sender.finished:
            return
        trailer = self.trailer()
        if trailer:
            self._pending_trailer = trailer
            self._flush_trailer()
        else:
            self.sock.close()

    def _flush_trailer(self) -> None:
        """Queue the digest trailer, deferring on a full send buffer."""
        sent = self.sock.send(self._pending_trailer)
        self._pending_trailer = self._pending_trailer[sent:]
        if not self._pending_trailer:
            self.sock.close()

    def close(self) -> None:
        """Alias for :meth:`finish` when a digest is pending, else FIN."""
        if self.header.digest and not self._sender.finished:
            self.finish()
        else:
            self.sock.close()

    def abort(self) -> None:
        self.sock.abort()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LslClientConnection {self.session_id.hex()[:8]} "
            f"sent={self.bytes_sent}>"
        )


def lsl_connect(
    stack: TcpStack,
    route: Sequence[HopLike],
    payload_length: Optional[int] = None,
    digest: bool = True,
    sync: bool = True,
    on_connected: Optional[Callable[[], None]] = None,
    session_id: Optional[SessionId] = None,
    trace: Optional[ConnectionTrace] = None,
    parent_span=None,
    tracer=None,
    trace_id: Optional[bytes] = None,
    trace_parent: int = 0,
) -> LslClientConnection:
    """Open an LSL session along ``route`` (last hop = server).

    ``payload_length`` declares the client-to-server payload size; it
    is required when ``digest`` is on (the MD5 trailer needs a framing
    boundary). A route of length 1 degenerates to a direct session —
    LSL header but no depots.

    With ``sync=True`` (the paper's connection-oriented mode)
    ``on_connected`` fires only after the server's SESSION_ACK has
    travelled back through the whole cascade — so the end-to-end
    connection cost of each additional depot is *paid*, which is why
    the paper's smallest transfers lose with LSL. ``sync=False`` fires
    it as soon as the first sublink is up (optimistic streaming).
    """
    header = plan_client_session(
        route, payload_length, digest, sync,
        rng=stack.net.rng.stream("lsl-session-ids"), session_id=session_id,
    )[0]
    return LslClientConnection(
        stack, header, on_connected, trace, parent_span=parent_span,
        tracer=tracer, trace_id=trace_id, trace_parent=trace_parent,
    )


def lsl_rebind(
    stack: TcpStack,
    route: Sequence[HopLike],
    session_id: SessionId,
    resume_offset: int,
    payload_length: Optional[int] = None,
    digest: bool = True,
    sync: bool = True,
    digest_state: Optional[StreamDigest] = None,
    on_connected: Optional[Callable[[], None]] = None,
    trace: Optional[ConnectionTrace] = None,
    resume_query: bool = False,
    digest_factory: Optional[Callable[[int], StreamDigest]] = None,
    parent_span=None,
    tracer=None,
    trace_id: Optional[bytes] = None,
    trace_parent: int = 0,
) -> LslClientConnection:
    """Re-attach to an existing session over a (possibly different)
    route — the mobility case of Section III: transport connections may
    come and go without disrupting the session handle.

    ``digest_state`` carries the client's running MD5 across the
    transport change; required when ``digest`` is on and data was
    already sent.

    With ``resume_query=True`` the client does not assert an offset: the
    server replies SESSION_ACK + 8 bytes of its contiguously-received
    count, and ``on_connected`` fires once that is known (the failover
    path, where the client cannot know how much survived the old
    sublink). ``digest_factory(offset)`` must then rebuild the MD5 state
    for the logical stream prefix ``[0, offset)``.
    """
    header = plan_client_session(
        route, payload_length, digest, sync,
        session_id=session_id, rebind=True, resume_offset=resume_offset,
        resume_query=resume_query, digest_state=digest_state,
        digest_factory=digest_factory,
    )[0]
    return LslClientConnection(
        stack, header, on_connected, trace, digest_state, digest_factory,
        parent_span, tracer, trace_id, trace_parent,
    )


class FailoverTransfer:
    """Drive one payload to completion across failures.

    Owns the whole client side of a resilient transfer: opens the
    session on the best-ranked route, pumps (virtual) payload, and on a
    sublink failure retries with exponential backoff — failing over to
    the next candidate route and resuming from the server's
    authoritative offset (negotiated resume, see ``resume_query``).

    ``routes`` is a ranked candidate list (e.g. from
    :meth:`repro.logistics.planner.DepotPlanner.rank_routes`): attempt
    *k* after a failure uses route ``k mod len(routes)``. The list is
    a *plan-time snapshot*; pass ``route_provider`` to have the ladder
    re-queried before every retry, so an attempt made minutes into a
    transfer uses the forecast as it is then, not as it was when the
    transfer started (a depot that died mid-transfer drops out of the
    fresh ranking instead of being retried round-robin forever).

    Terminal states: ``done`` (server confirmed or the sublink closed
    cleanly after the trailer) or ``failed`` (``max_attempts``
    exhausted). In simulation the server runs in-process, so the runner
    normally wires the server's ``on_complete`` to
    :meth:`mark_complete` — the application-level ack that stops
    recovery even when the final clean close was lost with a depot.
    """

    def __init__(
        self,
        stack: TcpStack,
        routes: Sequence[Sequence[HopLike]],
        nbytes: int,
        digest: bool = True,
        backoff: Optional[BackoffPolicy] = None,
        max_attempts: int = 10,
        session_id: Optional[SessionId] = None,
        on_done: Optional[Callable[[Optional[Exception]], None]] = None,
        trace_factory: Optional[Callable[[int, Tuple[RouteHop, ...]], ConnectionTrace]] = None,
        route_provider: Optional[
            Callable[[], Sequence[Sequence[HopLike]]]
        ] = None,
    ) -> None:
        if not routes:
            raise RouteError("no candidate routes")
        if nbytes < 0:
            raise ValueError("negative payload size")
        self.stack = stack
        self.routes = [_normalize_route(r) for r in routes]
        self.nbytes = nbytes
        self.digest_enabled = digest
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.max_attempts = max_attempts
        self.on_done = on_done
        self.trace_factory = trace_factory
        self.route_provider = route_provider
        self.replans = 0  # retries whose fresh ranking differed
        self._rng = stack.net.rng.stream("lsl-failover")
        if session_id is None:
            session_id = new_session_id(stack.net.rng.stream("lsl-session-ids"))
        self.session_id = session_id

        self.conn: Optional[LslClientConnection] = None
        self.attempts = 0  # sublinks opened (first connect included)
        self.failovers = 0  # route switches
        self.route_index = 0
        self.done = False
        self.failed: Optional[Exception] = None
        self._ever_established = False
        self._consecutive_failures = 0
        self._retry_event = None
        self.telemetry = stack.net.telemetry
        self.session_span = None
        self._attempt_span = None
        if self.telemetry.enabled:
            sid = self.session_id.hex()[:8]
            self.session_span = self.telemetry.spans.begin(
                f"session:{sid}",
                cat="lsl",
                group=sid,
                args={"nbytes": nbytes, "routes": len(self.routes)},
            )
        self._start()

    # -- attempt lifecycle -------------------------------------------------

    @property
    def current_route(self) -> Tuple[RouteHop, ...]:
        return self.routes[self.route_index % len(self.routes)]

    def _start(self) -> None:
        self._retry_event = None
        if self.done or self.failed is not None:
            return
        if self.route_provider is not None and self.attempts > 0:
            # retry, not first attempt: re-query the ladder so this
            # attempt runs on the current forecast, not the snapshot
            # taken when the transfer was planned
            fresh = [_normalize_route(r) for r in self.route_provider()]
            if fresh and fresh != self.routes:
                self.replans += 1
                self.routes = fresh
        self.attempts += 1
        route = self.current_route
        trace = None
        if self.trace_factory is not None:
            trace = self.trace_factory(self.attempts, route)
        if self.session_span is not None:
            self._attempt_span = self.telemetry.spans.begin(
                f"attempt-{self.attempts}",
                cat="lsl",
                parent=self.session_span,
                args={"route": [h.host for h in route]},
            )
        if self._ever_established:
            # the server has the session: rebind and ask where to resume
            conn = lsl_rebind(
                self.stack,
                route,
                session_id=self.session_id,
                resume_offset=0,
                payload_length=self.nbytes,
                digest=self.digest_enabled,
                resume_query=True,
                digest_factory=virtual_digest_factory,
                on_connected=self._on_established,
                trace=trace,
                parent_span=self._attempt_span,
            )
        else:
            conn = lsl_connect(
                self.stack,
                route,
                payload_length=self.nbytes,
                digest=self.digest_enabled,
                session_id=self.session_id,
                on_connected=self._on_established,
                trace=trace,
                parent_span=self._attempt_span,
            )
        self.conn = conn
        conn.on_writable = self._pump
        conn.on_close = self._on_close

    def _on_established(self) -> None:
        self._ever_established = True
        self._consecutive_failures = 0
        self._pump()

    def _pump(self) -> None:
        conn = self.conn
        if conn is None or not conn.established or self.done or self.failed:
            return
        rem = conn.remaining
        if rem is not None and rem > 0:
            conn.send_virtual(rem)
        if conn.remaining == 0:
            conn.finish()

    def _on_close(self, error: Optional[Exception]) -> None:
        if self.done or self.failed is not None:
            return
        conn = self.conn
        if error is None and conn is not None and conn.trailer_delivered:
            # clean close after payload + trailer: the server's FIN made
            # it back through the cascade, the transfer is complete
            self._settle(None)
            return
        self._schedule_retry(error)

    def _tel_end_attempt(self, outcome: str) -> None:
        if self._attempt_span is not None:
            self.telemetry.spans.end(
                self._attempt_span, args={"outcome": outcome}
            )
            self._attempt_span = None

    def _schedule_retry(self, error: Optional[Exception]) -> None:
        self.conn = None
        self._tel_end_attempt("failed")
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("lsl.failover_retries").inc()
            self.telemetry.flight_dump(
                "failover",
                detail={
                    "session": self.session_id.hex()[:8],
                    "attempt": self.attempts,
                    "error": str(error),
                },
            )
        if self.attempts >= self.max_attempts:
            self._settle(
                error
                if error is not None
                else FailoverExhausted(f"gave up after {self.attempts} attempts")
            )
            return
        if len(self.routes) > 1:
            # fail over: next-ranked candidate (round robin over ranks)
            self.route_index += 1
            self.failovers += 1
        delay = self.backoff.delay(self._consecutive_failures, self._rng)
        self._consecutive_failures += 1
        self.stack.net.logger.log(
            "lsl-failover",
            "retry-scheduled",
            (self.attempts, round(delay, 4), str(error)),
        )
        self._retry_event = self.stack.net.sim.schedule(delay, self._start)

    def _settle(self, error: Optional[Exception]) -> None:
        if self.done or self.failed is not None:
            return
        if error is None:
            self.done = True
        else:
            self.failed = error
        if self._retry_event is not None:
            self._retry_event.cancel()
            self._retry_event = None
        self._tel_end_attempt("done" if error is None else "failed")
        if self.session_span is not None:
            self.telemetry.spans.end(
                self.session_span,
                args={
                    "attempts": self.attempts,
                    "failovers": self.failovers,
                    "error": str(error) if error is not None else None,
                },
            )
            self.session_span = None
        if error is not None and self.telemetry.enabled:
            self.telemetry.flight_dump(
                "transfer-abort",
                detail={
                    "session": self.session_id.hex()[:8],
                    "error": str(error),
                },
            )
        if self.on_done:
            self.on_done(error)

    def mark_complete(self) -> None:
        """Application-level ack: the receiver verified the session."""
        self._settle(None)
