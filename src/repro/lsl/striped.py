"""Striped sessions: parallel and multi-path LSL over SimSocket.

Section VII: "we believe that this abstraction is also useful for
other approaches such as multi-path performance optimizations and
parallel TCP streams. To facilitate this generalization ... we will
investigate session-layer framing." The protocol logic lives in the
sans-I/O machines of :mod:`repro.lsl.core.striping`; this module is
the simulator driver over them (the real-socket drivers are
:mod:`repro.sockets.striped` and :mod:`repro.asockets.striped`):

- :class:`StripedClient` opens one sublink per *route* (all carrying
  the same 128-bit session id, FLAG_FRAMED set) and pumps whatever the
  :class:`~repro.lsl.core.striping.StripeScheduler` deals it — so fast
  paths naturally carry more, redundant copies ride distinct paths,
  and a dead path degrades the session instead of aborting it;
- :class:`StripedLslServer` accepts framed sublinks, groups them by
  session id, and feeds a per-session
  :class:`~repro.lsl.core.striping.StripeAssembler` (bounded
  reassembly buffer: a stalled path eventually backpressures the
  others; duplicate stripes and duplicate trailers are discarded).

Two classic configurations fall out for free:

- **parallel TCP (PSockets-style)**: N identical direct routes;
- **multi-path**: routes through *different* depots.

``StripedClient.migrate`` abandons one sublink for a new route
mid-transfer — the hook the online re-planner
(:mod:`repro.logistics.replan`) uses when a forecast flips.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.lsl.client import HopLike, _normalize_route
from repro.lsl.core import (
    Completed,
    Deliver,
    Failed,
    LslHeader,
    ProtocolObserver,
    Redundancy,
    RouteHop,
    StripeAssembler,
    StripeScheduler,
    parse_redundancy,
)
from repro.lsl.core.striping import DEFAULT_STRIPE, KIND_DATA, Assignment
from repro.lsl.core.errors import LslError, ProtocolError, RouteError
from repro.lsl.core.session import SessionId, SessionRegistry, new_session_id
from repro.lsl.core.wire import STREAM_UNTIL_FIN, HeaderAccumulator
from repro.tcp.buffers import StreamChunk
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack

DIGEST_LEN = 16

__all__ = [
    "DEFAULT_STRIPE",
    "DIGEST_LEN",
    "StripedClient",
    "StripedLslServer",
]


class _SublinkSender:
    """Client-side pump for one sublink of a striped session."""

    def __init__(
        self, client: "StripedClient", key: str, route: Tuple[RouteHop, ...]
    ) -> None:
        self.client = client
        self.key = key
        self.route = route
        self.current: Optional[Assignment] = None
        self.closed = False
        self.bytes_sent = 0
        self._greeted = False  # LSL header sent (nothing may precede it)

        header = LslHeader(
            session_id=client.session_id,
            route=route,
            hop_index=0,
            payload_length=client.payload_length,
            digest=client.use_digest,
            sync=False,  # framed joins are asynchronous by design
            framed=True,
        )
        self.header = header
        self.sock: SimSocket = client.stack.socket()
        self.sock.on_writable = self.pump
        self.sock.on_close = self._on_close
        first = route[0]
        self.sock.connect((first.host, first.port), on_connected=self._connected)

    def _connected(self) -> None:
        self._greeted = True
        self.sock.send(self.header.encode())
        self.pump()

    # -- the stripe pump ----------------------------------------------------

    def pump(self) -> None:
        # `sock.conn` exists from the moment connect() is called, so a
        # pump while the handshake is still in flight (e.g. migrate()
        # nudging every live sublink) must not queue stripe frames
        # ahead of the LSL header
        if self.closed or not self._greeted or self.sock.conn is None:
            return
        while True:
            if self.current is None:
                # demand pacing: only take more work once this
                # sublink's TCP has drained its backlog, otherwise the
                # first-connected sublink swallows every stripe into
                # its send buffer and no striping happens
                conn = self.sock.conn
                if (
                    conn is not None
                    and conn.send_buffer.used >= self.client.inflight_limit
                ):
                    return
                self.current = self.client.scheduler.next_assignment(self.key)
                if self.current is None:
                    # everything this sublink will ever carry is queued
                    self.closed = True
                    self.client.scheduler.sublink_finished(self.key)
                    self.sock.close()
                    return
            a = self.current
            if not a.header_sent:
                hdr = a.frame_header()
                if self.sock.send_space < len(hdr):
                    return
                self.sock.send(hdr)
                a.header_sent = True
            if a.sent < a.length:
                if a.payload is None:
                    sent = self.sock.send_virtual(a.length - a.sent)
                else:
                    sent = self.sock.send(a.payload[a.sent :])
                if sent > 0:
                    a.sent += sent
                    if a.kind == KIND_DATA:
                        self.bytes_sent += sent
            if not a.done:
                return  # out of send space
            self.current = None

    def _on_close(self, error: Optional[Exception]) -> None:
        if error is not None and not self.closed:
            self.closed = True
            self.client._sublink_failed(self, error)


class StripedClient:
    """Send one payload over several routes at once."""

    def __init__(
        self,
        stack: TcpStack,
        routes: Sequence[Sequence[HopLike]],
        payload_length: int,
        data: Optional[bytes] = None,
        stripe_bytes: int = DEFAULT_STRIPE,
        inflight_limit: Optional[int] = None,
        digest: bool = True,
        session_id: Optional[SessionId] = None,
        on_error: Optional[Callable[[Exception], None]] = None,
        redundancy: Union[str, Redundancy] = "none",
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        if not routes:
            raise RouteError("need at least one route")
        self.stack = stack
        self.payload_length = payload_length
        self.data = data
        self.use_digest = digest
        self.on_error = on_error
        self.session_id = (
            session_id
            if session_id is not None
            else new_session_id(stack.net.rng.stream("lsl-session-ids"))
        )
        if isinstance(redundancy, str):
            redundancy = parse_redundancy(redundancy)
        self.scheduler = StripeScheduler(
            payload_length,
            data=data,
            stripe_bytes=stripe_bytes,
            redundancy=redundancy,
            use_digest=digest,
            observer=observer,
            session=self.session_id.hex()[:8],
        )
        #: Per-sublink unsent backlog above which no new stripes are
        #: dealt to it (keeps dealing demand-paced).
        self.inflight_limit = (
            inflight_limit
            if inflight_limit is not None
            else max(2 * stripe_bytes, 64 * 1024)
        )
        self.failed: Optional[Exception] = None
        self.sublinks: List[_SublinkSender] = []
        for r in routes:
            self._open_sublink(_normalize_route(r))

    def _open_sublink(self, route: Tuple[RouteHop, ...]) -> _SublinkSender:
        key = f"sub{len(self.sublinks)}"
        self.scheduler.add_sublink(key)
        sender = _SublinkSender(self, key, route)
        self.sublinks.append(sender)
        return sender

    # -- failure and migration ----------------------------------------------

    def _sublink_failed(self, sublink: _SublinkSender, error: Exception) -> None:
        if self.failed is not None:
            return
        self.scheduler.sublink_lost(sublink.key, error)
        if self.scheduler.failed is not None:
            # nothing left to degrade onto: the session is dead
            self.failed = self.scheduler.failed
            for s in self.sublinks:
                if not s.closed:
                    s.closed = True
                    s.sock.abort()
            if self.on_error:
                self.on_error(self.failed)
            return
        # degrade: survivors pick up the re-dealt work
        for s in self.sublinks:
            if not s.closed:
                s.pump()

    def migrate(self, index: int, new_route: Sequence[HopLike]) -> _SublinkSender:
        """Abandon sublink ``index`` for ``new_route`` (re-planner hook).

        The old path's unsent and uncovered stripes move to the pool;
        a fresh sublink over ``new_route`` joins the session and starts
        pumping. Returns the new sublink.
        """
        old = self.sublinks[index]
        route = _normalize_route(new_route)
        key = f"sub{len(self.sublinks)}"
        self.scheduler.migrate(old.key, key)
        if not old.closed:
            old.closed = True
            old.sock.abort()
        sender = _SublinkSender(self, key, route)
        self.sublinks.append(sender)
        for s in self.sublinks:
            if not s.closed:
                s.pump()
        return sender

    # -- progress -----------------------------------------------------------

    @property
    def bytes_dealt(self) -> int:
        return self.scheduler.bytes_dealt

    def per_sublink_bytes(self) -> List[int]:
        return [s.bytes_sent for s in self.sublinks]


class _FramedServerSession:
    """Server-side state for one striped session (many sublinks)."""

    def __init__(self, server: "StripedLslServer", header: LslHeader) -> None:
        self.server = server
        self.header = header
        self.session_id = header.session_id
        if header.payload_length == STREAM_UNTIL_FIN:
            raise ProtocolError("framed sessions require a declared length")
        self.payload_length = header.payload_length
        self.assembler = StripeAssembler(
            header.payload_length,
            use_digest=header.digest,
            observer=server.observer,
            session=header.short_id,
        )
        self.sublinks: List[SimSocket] = []
        self._blocked: List[int] = []
        self._closed = False

        self.on_complete: Optional[Callable[["_FramedServerSession"], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None
        self.on_data: Optional[Callable[[StreamChunk], None]] = None

    # -- assembler proxies ---------------------------------------------------

    @property
    def payload_received(self) -> int:
        return self.assembler.payload_received

    @property
    def digest_ok(self) -> Optional[bool]:
        return self.assembler.digest_ok

    @property
    def complete(self) -> bool:
        return self.assembler.complete

    @property
    def failed(self) -> Optional[Exception]:
        return self.assembler.failed

    # -- sublink attachment ------------------------------------------------

    def attach(self, sock: SimSocket, surplus: List[StreamChunk]) -> None:
        index = len(self.sublinks)
        self.sublinks.append(sock)
        self.assembler.attach(str(index))
        sock.on_readable = lambda: self._drain(index)
        sock.on_peer_fin = lambda: self._drain(index)
        if surplus:
            self._feed(index, surplus)
        if sock.readable_bytes:
            self._drain(index)

    def _drain(self, index: int) -> None:
        if self.assembler.finished:
            return
        sock = self.sublinks[index]
        # bounded reassembly: a stalled prefix stops us consuming more
        if self.assembler.ooo_bytes >= self.server.reassembly_capacity:
            if index not in self._blocked:
                self._blocked.append(index)
            return
        self._feed(index, sock.recv())

    def _feed(self, index: int, chunks: List[StreamChunk]) -> None:
        events = self.assembler.feed(str(index), chunks)
        delivered = False
        for event in events:
            if isinstance(event, Deliver):
                delivered = True
                if self.on_data is not None:
                    self.on_data(
                        StreamChunk(event.chunk.length, event.chunk.data)
                    )
            elif isinstance(event, Completed):
                self._completed()
            elif isinstance(event, Failed):
                self._fail(event.error)
        if delivered and not self.assembler.finished:
            record = self.server.registry.get(self.session_id)
            if record is not None:
                record.bytes_received = self.assembler.payload_received
            if self._blocked:
                blocked, self._blocked = self._blocked, []
                for idx in blocked:
                    self._drain(idx)

    def _completed(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.server.registry.close(self.session_id)
        for sock in self.sublinks:
            if not sock.closed:
                sock.close()
        if self.on_complete:
            self.on_complete(self)

    def _fail(self, error: Exception) -> None:
        if self._closed:
            return
        self._closed = True
        self.server.registry.close(self.session_id)
        for sock in self.sublinks:
            sock.abort()
        if self.on_error:
            self.on_error(error)
        self.server.errors.append(error)


class _PendingAccept:
    """Reads the header off a freshly accepted sublink."""

    def __init__(self, server: "StripedLslServer", sock: SimSocket) -> None:
        self.server = server
        self.sock = sock
        self._accumulator = HeaderAccumulator()
        sock.on_readable = self._on_bytes
        sock.on_peer_fin = self._on_fin
        if sock.readable_bytes > 0:
            self._on_bytes()

    def _on_bytes(self) -> None:
        chunks = self.sock.recv()
        header = None
        tail_index = len(chunks)
        for i, chunk in enumerate(chunks):
            if chunk.data is None:
                self.sock.abort()
                self.server._pending_failed(
                    self, ProtocolError("virtual bytes before LSL header")
                )
                return
            try:
                header = self._accumulator.feed(chunk.data)
            except ProtocolError as exc:
                self.sock.abort()
                self.server._pending_failed(self, exc)
                return
            if header is not None:
                tail_index = i + 1
                break
        if header is None:
            return
        surplus: List[StreamChunk] = []
        if self._accumulator.surplus:
            surplus.append(
                StreamChunk(len(self._accumulator.surplus), self._accumulator.surplus)
            )
        surplus.extend(chunks[tail_index:])
        self.server._header_ready(self, header, surplus)

    def _on_fin(self) -> None:
        self.sock.close()
        self.server._pending_failed(
            self, ProtocolError("sublink closed before header complete")
        )


class StripedLslServer:
    """Accepts framed (striped/multi-path) LSL sessions."""

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        on_session: Callable[[_FramedServerSession], None],
        reassembly_capacity: int = 8 * 1024 * 1024,
        tcp_options: Optional[TcpOptions] = None,
        registry: Optional[SessionRegistry] = None,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.stack = stack
        self.port = port
        self.on_session = on_session
        self.reassembly_capacity = reassembly_capacity
        self.registry = registry if registry is not None else SessionRegistry()
        self.observer = observer
        self.sessions: Dict[SessionId, _FramedServerSession] = {}
        self.errors: List[Exception] = []
        self._pending: List[_PendingAccept] = []

        self._listener = stack.socket(tcp_options or stack.default_options)
        self._listener.listen(port, self._on_accept)

    def _on_accept(self, sock: SimSocket) -> None:
        self._pending.append(_PendingAccept(self, sock))

    def _pending_failed(self, pending: _PendingAccept, error: Exception) -> None:
        if pending in self._pending:
            self._pending.remove(pending)
        self.errors.append(error)

    def _header_ready(
        self,
        pending: _PendingAccept,
        header: LslHeader,
        surplus: List[StreamChunk],
    ) -> None:
        if pending in self._pending:
            self._pending.remove(pending)
        sock = pending.sock
        if not header.is_last_hop:
            sock.abort()
            self.errors.append(RouteError("server addressed as intermediate hop"))
            return
        if not header.framed:
            sock.abort()
            self.errors.append(
                ProtocolError("unframed sublink on a striped server")
            )
            return
        session = self.sessions.get(header.session_id)
        if session is None:
            try:
                session = _FramedServerSession(self, header)
            except ProtocolError as exc:
                sock.abort()
                self.errors.append(exc)
                return
            self.sessions[header.session_id] = session
            self.registry.create(header.session_id, self.stack.net.sim.now)
            session.attach(sock, surplus)
            self.on_session(session)
        else:
            if session.payload_length != header.payload_length:
                sock.abort()
                self.errors.append(
                    ProtocolError("sublink disagrees on payload length")
                )
                return
            session.attach(sock, surplus)

    def shutdown(self) -> None:
        self._listener.close_listener()
