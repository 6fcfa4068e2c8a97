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
- :class:`StripedLslServer` is the striped terminal engine of the
  real-socket servers (:class:`repro.sockets.striped.StripedTerminalEngine`)
  on the simulator's chassis (:class:`repro.lsl.server.SimService`):
  framed sublinks join their session's
  :class:`~repro.lsl.core.striping.StripeAssembler`, duplicate stripes
  and trailers are discarded, and reassembly is bounded by the
  assembler's hold rule — a sublink running ahead of a hole stops
  being read, the one carrying the hole never does.

Two classic configurations fall out for free:

- **parallel TCP (PSockets-style)**: N identical direct routes;
- **multi-path**: routes through *different* depots.

``StripedClient.migrate`` abandons one sublink for a new route
mid-transfer — the hook the online re-planner
(:mod:`repro.logistics.replan`) uses when a forecast flips.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.lsl.client import HopLike
from repro.lsl.core import (
    Chunk,
    LslHeader,
    ProtocolObserver,
    Redundancy,
    RouteHop,
    StripeAssembler,
    StripeScheduler,
    parse_redundancy,
)
from repro.lsl.core.striping import DEFAULT_STRIPE, KIND_DATA, Assignment
from repro.lsl.core.errors import RouteError
from repro.lsl.core.session import SessionId, new_session_id
from repro.lsl.core.wire import route_hops
from repro.lsl.server import SimService
from repro.sockets.striped import StripedTerminalEngine, _StripedLiveSession
from repro.sockets.terminal import TerminalEngine, TerminalSublink
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
            self._open_sublink(route_hops(r))

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
        route = route_hops(new_route)
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


class StripedServerSession(_StripedLiveSession):
    """Server endpoint of one striped session: the striped engine's
    session, with the application API on it — ``on_data`` gets each
    in-order chunk as it is delivered, then ``on_complete(session)`` or
    ``on_error(exc)``."""

    __slots__ = ("on_data", "on_complete", "on_error")

    def __init__(self, engine: TerminalEngine, header: LslHeader, link: Any) -> None:
        _StripedLiveSession.__init__(self, engine, header, link)
        self.on_data: Optional[Callable[[Chunk], None]] = None
        self.on_complete: Optional[Callable[["StripedServerSession"], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None

    def delivered(self) -> None:
        on_data = self.on_data
        if on_data is not None:
            for chunk in self.chunks:
                on_data(chunk)
        self.chunks.clear()

    @property
    def assembler(self) -> StripeAssembler:
        return self.receiver

    @property
    def payload_received(self) -> int:
        return self.receiver.payload_received

    @property
    def digest_ok(self) -> Optional[bool]:
        return self.receiver.digest_ok


class StripedLslServer(SimService, StripedTerminalEngine):
    """Accepts framed (striped/multi-path) LSL sessions: the striped
    terminal engine of the live servers on the simulator's chassis.

    ``sessions`` maps each session id to its :class:`StripedServerSession`
    (``on_session`` gets it when its first sublink joins); ``errors``
    lists every failed sublink and session.
    """

    _session_cls = StripedServerSession

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        on_session: Callable[[StripedServerSession], None],
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        StripedTerminalEngine.__init__(self, on_session, observer=observer)
        self.sessions: Dict[SessionId, StripedServerSession] = {}
        SimService.__init__(self, stack, port)

    def _attach(self, sublink: TerminalSublink, link: Any, header: LslHeader) -> None:
        StripedTerminalEngine._attach(self, sublink, link, header)
        if header.session_id not in self.sessions:
            self.sessions[header.session_id] = sublink.live
            self.on_session(sublink.live)

    def _completed(self, live: StripedServerSession, digest_ok) -> None:
        if live.on_complete is not None:
            live.on_complete(live)

    def _failed(self, live: StripedServerSession, error: Exception) -> None:
        StripedTerminalEngine._failed(self, live, error)
        if live.on_error is not None:
            live.on_error(error)
