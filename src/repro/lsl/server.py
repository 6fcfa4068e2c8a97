"""LSL server on the simulator: the shared terminal engine over SimSocket.

The server is the final hop of the loose source route. What it decides
— the header phase, accept/rebind/restart arbitration, negotiated
resume, payload accounting, the end-to-end MD5, suspend on a FIN or a
reset mid-payload, the ``server.session`` trace spans — is
:class:`repro.sockets.terminal.TerminalEngine`, the engine the threaded
and asyncio servers run. This module is its simulator chassis: a
listener on a :class:`~repro.tcp.sockets.TcpStack`, a :class:`SimLink`
per accepted socket, the simulated clock, and no sweeper. What is left
is the application API the experiments drive — ``on_session(conn)``
when a session opens, its payload through ``on_readable`` / ``recv``,
then ``on_complete`` or ``on_error`` — and the sim-time telemetry: a
``server@host`` span per session with the receiver's events inside
it, the ``rebind`` instant, the flight dump of a failed session, and
the net-logger lines.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.lsl.core import AcceptRebind, RestartSession
from repro.lsl.core.chunks import Chunk, split_chunk
from repro.lsl.core.wire import LslHeader
from repro.sockets.terminal import TerminalEngine, TerminalSublink, _LiveSession
from repro.tcp.connection import ConnectionReset, ConnectionTimeout
from repro.tcp.sockets import SimSocket, TcpStack
from repro.telemetry.protocol import protocol_observer

#: The ``OSError`` a kernel socket raises where the simulated TCP
#: reports these.
KERNEL_ERRORS = {
    ConnectionReset: ConnectionResetError,
    ConnectionTimeout: TimeoutError,
}


class SimLink:
    """A :class:`~repro.tcp.sockets.SimSocket` behind the link protocol
    of the session objects (``write`` / ``close`` / ``closed`` /
    ``pause`` / ``resume``).

    Each readable event's ``recv()`` batch — real and virtual chunks
    alike — goes to the owner as one ``received_batch``; the peer's FIN
    is ``ended``, and a connection the simulated TCP tore down is
    ``broken`` with the ``OSError`` a kernel socket would raise.
    ``close`` is a FIN once the session completed or the peer finished,
    and a reset otherwise (a refusal, a failure, a displaced sublink).
    While paused nothing is read, so the simulated receive window
    closes; ``resume`` reads what waited (and a FIN behind it) in an
    event of its own, never from inside the caller.
    """

    __slots__ = ("sock", "owner", "closed", "eof", "paused")

    def __init__(self, sock: SimSocket, owner: TerminalSublink) -> None:
        self.sock = sock
        self.owner = owner
        self.closed = self.eof = self.paused = False
        sock.on_readable = self._readable
        sock.on_peer_fin = self._peer_fin
        sock.on_close = self._closed
        if sock.readable_bytes > 0:
            self._readable()

    def write(self, data: bytes) -> None:
        if not self.closed:
            self.sock.send(data)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.sock.closed:
            return
        live = self.owner.live
        if self.eof or (live is not None and live.receiver.complete):
            self.sock.close()
        else:
            self.sock.abort()

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        if self.paused:
            self.paused = False
            self.sock.stack.net.sim.schedule(0.0, self._resumed)

    def _resumed(self) -> None:
        if self.paused or self.closed or self.sock.closed:
            return
        if self.sock.peer_closed:
            self._peer_fin()
        elif self.sock.readable_bytes > 0:
            self._readable()

    def _readable(self) -> None:
        if not (self.closed or self.paused):
            self.owner.received_batch(self, self.sock.recv())

    def _peer_fin(self) -> None:
        if self.sock.readable_bytes > 0:
            self._readable()  # drain anything left
        if not (self.closed or self.paused):
            self.eof = True
            self.owner.ended(self)

    def _closed(self, error: Optional[Exception]) -> None:
        owner = self.owner
        if error is not None and not self.closed:
            owner.engine.net_logger_log("sublink-error", str(error))
            owner.broken(self, KERNEL_ERRORS.get(type(error), OSError)(str(error)))
        on_close = getattr(owner.live, "on_close", None)
        if on_close is not None:
            on_close(error)


class SimService:
    """The simulator's chassis of a terminal engine: a listener on a
    port of a :class:`~repro.tcp.sockets.TcpStack` handing each
    accepted socket to the engine's ``_open``, a :class:`SimLink` per
    socket, the simulated clock, and no sweeper — what
    :class:`~repro.sockets.wire.ThreadedService` and
    :class:`~repro.asockets.runtime.AsyncLoopService` are to the live
    servers. Mix it in *before* the engine, so that its clock is the
    engine's."""

    def __init__(self, stack: TcpStack, port: int) -> None:
        self.stack = stack
        self.port = port
        self._sim = stack.net.sim
        self._listener = stack.socket(stack.default_options)
        self._listener.listen(port, self._open)

    @property
    def telemetry(self) -> Any:
        # looked up per session: a run may attach telemetry after this
        # server was built
        return self.stack.net.telemetry

    def _now(self) -> float:
        return self._sim.now

    def _link(self, sock: SimSocket, owner: TerminalSublink) -> SimLink:
        return SimLink(sock, owner)

    def net_logger_log(self, event: str, detail) -> None:
        self.stack.net.logger.log(f"lsl-server:{self.stack.host.name}", event, detail)

    def shutdown(self) -> None:
        self._listener.close_listener()


class LslServerConnection(_LiveSession):
    """Server endpoint of one LSL session (survives rebinds): the
    engine's session, with the application API on it.

    Reverse-direction ``send`` / ``send_virtual`` go over the sublink now
    attached, and only until ``on_complete`` returns: the engine closes
    that sublink (a FIN) as soon as the session completes. A session a
    restart displaced has no sublink left; ``close`` on it does nothing.
    """

    __slots__ = (
        "server", "tel_span", "on_readable", "on_complete", "on_error",
        "on_close",
    )

    def __init__(self, server: "LslServer", header: LslHeader, link: SimLink) -> None:
        self.server = server
        self.tel_span = None
        if server.telemetry.enabled:
            self.tel_span = server.telemetry.spans.begin(
                f"server@{server.stack.host.name}",
                cat="lsl",
                group=header.short_id,
                args={"declared_length": header.payload_length},
            )
        self.on_readable: Optional[Callable[[], None]] = None
        self.on_complete: Optional[Callable[["LslServerConnection"], None]] = None
        self.on_error: Optional[Callable[[Exception], None]] = None
        self.on_close: Optional[Callable[[Optional[Exception]], None]] = None
        _LiveSession.__init__(self, server, header, link)

    def _observer(self, engine: Any) -> Any:
        # the receiver's events are instants inside this session's span
        return protocol_observer(engine.telemetry, "server", lambda: self.tel_span)

    def delivered(self) -> None:
        if self.chunks and self.on_readable is not None:
            self.on_readable()

    def _tel_end(self, outcome: str) -> None:
        if self.tel_span is not None:
            self.server.telemetry.spans.end(
                self.tel_span,
                args={
                    "outcome": outcome,
                    "payload_received": self.payload_received,
                },
            )
            self.tel_span = None

    # -- protocol state (the engine's receiver) ----------------------------

    @property
    def payload_received(self) -> int:
        return self.receiver.payload_received

    @property
    def digest_ok(self) -> Optional[bool]:
        return self.receiver.digest_ok

    # -- application API ---------------------------------------------------

    def recv(self, max_bytes: Optional[int] = None) -> List[Chunk]:
        """Consume received payload (session-layer framed, trailer
        excluded)."""
        chunks = self.chunks
        if max_bytes is None:
            out = list(chunks)
            chunks.clear()
            return out
        out = []
        while chunks and max_bytes > 0:
            head = chunks.popleft()
            if head.length > max_bytes:
                head, rest = split_chunk(head, max_bytes)
                chunks.appendleft(rest)
            out.append(head)
            max_bytes -= head.length
        return out

    def send(self, data: bytes) -> int:
        """Reverse-direction (server to client) bytes."""
        return self.link.sock.send(data)

    def send_virtual(self, nbytes: int) -> int:
        return self.link.sock.send_virtual(nbytes)

    def close(self) -> None:
        if self.link is not None:
            self.link.sock.close()


class LslServer(SimService, TerminalEngine):
    """Accept LSL sessions on a port of a simulated host.

    ``tracer`` is an optional :class:`~repro.telemetry.tracing.TraceSpool`
    for distributed tracing (``server.session`` spans, on the simulated
    clock if the spool's is).
    """

    _session_cls = LslServerConnection

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        on_session: Callable[[LslServerConnection], None],
        tracer=None,
    ) -> None:
        TerminalEngine.__init__(
            self, on_session, None,
            protocol_observer(stack.net.telemetry, "server"), None, tracer,
        )
        #: every session opened, in order (a restart opens a new one)
        self.sessions: List[LslServerConnection] = []
        SimService.__init__(self, stack, port)

    # -- engine hooks --------------------------------------------------------

    def _attached(
        self, conn: LslServerConnection, header: LslHeader, decision: Any
    ) -> None:
        tcp = conn.link.sock.conn
        if conn.tel_span is not None and tcp is not None:
            tcp.telemetry_span = conn.tel_span
        if isinstance(decision, AcceptRebind):
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("lsl.rebinds").inc()
                self.telemetry.spans.instant(
                    "rebind",
                    cat="lsl",
                    parent=conn.tel_span,
                    args={
                        "session": header.short_id,
                        "resume_query": header.resume_query,
                        "granted_offset": conn.payload_received,
                    },
                )
            return
        if isinstance(decision, RestartSession):
            self.net_logger_log("session-restarted", header.short_id)
        self.sessions.append(conn)
        self.on_session(conn)

    def _note_suspended(self, conn: LslServerConnection) -> None:
        TerminalEngine._note_suspended(self, conn)
        # could be a mobility event: the session waits for a rebind
        self.net_logger_log("session-suspended", conn.session_id.hex()[:8])

    def _completed(self, conn: LslServerConnection, digest_ok) -> None:
        conn._tel_end("complete")
        if conn.on_complete is not None:
            conn.on_complete(conn)

    def _failed(self, conn: LslServerConnection, error: Exception) -> None:
        TerminalEngine._failed(self, conn, error)
        conn._tel_end("failed")
        if self.telemetry.enabled:
            self.telemetry.flight_dump(
                "server-session-failed",
                detail={
                    "session": conn.session_id.hex()[:8],
                    "error": str(error),
                },
            )
        if conn.on_error is not None:
            conn.on_error(error)

    def _fail(
        self, conn: Optional[LslServerConnection], exc: BaseException
    ) -> None:
        TerminalEngine._fail(self, conn, exc)
        if conn is None:
            self.net_logger_log("accept-failed", str(exc))
