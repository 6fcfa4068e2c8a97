"""Blocking LSL server over real sockets.

Each accepted sublink is driven by the same sans-I/O machines as the
simulator server: :class:`~repro.lsl.core.SessionAcceptor` arbitrates
fresh/rebind/restart, :class:`~repro.lsl.core.PayloadReceiver` (or
:class:`~repro.lsl.core.FramedReceiver` for FLAG_FRAMED streams) owns
payload accounting and the end-to-end MD5, and
:func:`~repro.lsl.core.negotiate_resume` answers resume queries with
the authoritative received count. Sessions therefore survive transport
rebinds exactly like their simulated counterparts: a suspended session
(EOF mid-payload) keeps its receiver state until a REBIND sublink
re-attaches and resumes from the granted offset.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.lsl.core import (
    AcceptRebind,
    Chunk,
    Completed,
    Deliver,
    EOF_COMPLETE,
    EOF_SUSPEND,
    Failed,
    FramedReceiver,
    PayloadReceiver,
    ProtocolObserver,
    RejectSession,
    RestartSession,
    SessionAcceptor,
    SessionRegistry,
    negotiate_resume,
)
from repro.lsl.core.events import emit
from repro.lsl.errors import ProtocolError
from repro.lsl.header import LslHeader
from repro.sockets import workers
from repro.sockets.lsd import (
    _ACCEPT_RETRY_DELAY_S,
    _FATAL_ACCEPT_ERRNOS,
    LISTEN_BACKLOG,
)
from repro.sockets.wire import CHUNK, read_header
from repro.telemetry.tracing import TraceSpool

DIGEST_LEN = 16


@dataclass
class SessionResult:
    """Outcome of one completed real-socket session."""

    session_id: bytes
    payload: bytes
    digest_ok: Optional[bool]
    route_len: int
    rebinds: int = 0


class _LiveSession:
    """Receiver state that outlives individual sublinks (rebinds)."""

    def __init__(
        self, receiver: Union[PayloadReceiver, FramedReceiver]
    ) -> None:
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.sock: Optional[socket.socket] = None
        self.lock = threading.Lock()
        # distributed tracing: the active server.session span (one per
        # sublink attachment — a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None


class ThreadedLslServer:
    """Accepts LSL sessions; collects payloads and verifies digests.

    ``on_session(result)`` runs on the session's worker thread after the stream
    completes. Payloads are buffered in memory — the real-socket path
    is for demonstrations and tests, not bulk measurement (see the
    package docstring for the GIL caveat).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(LISTEN_BACKLOG)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self.on_session = on_session
        self.reply = reply
        self._observer = observer
        self._tracer = tracer
        self.registry = SessionRegistry()
        self._acceptor = SessionAcceptor(self.registry, observer)
        self.results: List[SessionResult] = []
        self.errors: List[Exception] = []
        self.accept_errors = 0
        self.sessions_expired = 0
        self._session_ttl = session_ttl
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._shutdown = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"lsl-srv-{self.address[1]}", daemon=True
        )
        self._accept_thread.start()
        if session_ttl is not None:
            threading.Thread(
                target=self._sweep_loop,
                name=f"lsl-srv-sweep-{self.address[1]}",
                daemon=True,
            ).start()

    def _sweep_loop(self) -> None:
        """Expire suspended sessions that never rebound (the long-
        running server's leak: every suspend parked receiver state in
        the registry forever). Runs at a quarter of the TTL so an idle
        session lives at most ~1.25 × ttl."""
        ttl = self._session_ttl
        assert ttl is not None
        while not self._shutdown.wait(min(ttl / 4.0, 1.0)):
            with self._lock:
                expired = self.registry.expire(time.monotonic(), ttl)
                self.sessions_expired += len(expired)
            for record in expired:
                emit(self._observer, "session-expired",
                     record.session_id.hex()[:8],
                     bytes_received=record.bytes_received)
                live = record.attachment
                sock = getattr(live, "sock", None)
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError as exc:
                if (
                    self._shutdown.is_set()
                    or exc.errno in _FATAL_ACCEPT_ERRNOS
                ):
                    return
                # transient (EMFILE/ECONNABORTED/...): keep accepting
                self.accept_errors += 1
                emit(self._observer, "accept-error", "",
                     error=type(exc).__name__, detail=str(exc))
                self._shutdown.wait(_ACCEPT_RETRY_DELAY_S)
                continue
            workers.run(self._session, sock)

    # -- session threads ---------------------------------------------------

    def _session(self, sock: socket.socket) -> None:
        try:
            header, surplus = read_header(sock)
            live = self._attach(sock, header)
            self._drive(sock, live, surplus)
        except Exception as exc:
            with self._lock:
                self.errors.append(exc)
                self._done.notify_all()
            try:
                sock.close()
            except OSError:
                pass

    def _attach(self, sock: socket.socket, header: LslHeader) -> _LiveSession:
        """Run the accept decision (serialized) and wire up the sublink."""
        with self._lock:
            decision = self._acceptor.decide(header, time.monotonic())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, AcceptRebind):
            live: _LiveSession = decision.record.attachment
            old = live.sock
            if old is not None and old is not sock:
                try:
                    # kick any thread still blocked on the dead sublink;
                    # it exits (releasing live.lock) before we proceed
                    old.close()
                except OSError:
                    pass
            with live.lock:
                reply = negotiate_resume(
                    header, live.receiver.payload_received, self._observer
                )
                granted = live.receiver.payload_received
                live.receiver.rebind(header)
                live.sock = sock
            self._begin_span(live, header, granted=granted)
        else:  # AcceptNew | RestartSession
            if isinstance(decision, RestartSession) and isinstance(
                decision.stale, _LiveSession
            ):
                stale_sock = decision.stale.sock
                if stale_sock is not None:
                    try:
                        stale_sock.close()
                    except OSError:
                        pass
            receiver: Union[PayloadReceiver, FramedReceiver]
            if header.framed:
                receiver = FramedReceiver(header, self._observer)
            else:
                receiver = PayloadReceiver(header, self._observer)
            live = _LiveSession(receiver)
            live.sock = sock
            decision.record.attachment = live
            reply = decision.reply
            self._begin_span(live, header)
        if reply:
            sock.sendall(reply)
        return live

    def _drive(
        self, sock: socket.socket, live: _LiveSession, surplus: bytes
    ) -> None:
        """Feed the receiver from the sublink until it finishes or EOFs."""
        with live.lock:
            if surplus:
                if self._handle(live, live.receiver.feed([Chunk.real(surplus)])):
                    sock.close()
                    return
            while not live.receiver.finished:
                try:
                    data = sock.recv(CHUNK)
                except OSError:
                    return  # sublink died (or was replaced by a rebind)
                if not data:
                    disposition = live.receiver.feed_eof()
                    if disposition == EOF_SUSPEND:
                        # keep receiver state; a rebind may resume us.
                        # The dead sublink itself is done for.
                        self._note_suspended(live)
                        try:
                            sock.close()
                        except OSError:
                            pass
                        return
                    if disposition == EOF_COMPLETE:
                        # stream-until-FIN: EOF is the completion signal
                        self._finalize(live, live.receiver.digest_ok)
                    break
                if self._handle(live, live.receiver.feed([Chunk.real(data)])):
                    break
        try:
            sock.close()
        except OSError:
            pass

    def _handle(self, live: _LiveSession, events) -> bool:
        """Apply receiver events; True once the session is finished."""
        for event in events:
            if isinstance(event, Deliver):
                if event.chunk.data is None:
                    raise ProtocolError("virtual bytes over a real socket")
                live.chunks.append(event.chunk.data)
            elif isinstance(event, Completed):
                self._finalize(live, event.digest_ok)
                return True
            elif isinstance(event, Failed):
                self.registry.close(live.receiver.session_id)
                raise event.error
        return live.receiver.finished

    # -- tracing -------------------------------------------------------------

    def _begin_span(
        self,
        live: _LiveSession,
        header: LslHeader,
        granted: Optional[int] = None,
    ) -> None:
        """Open a ``server.session`` span for this sublink attachment.

        A rebind closes the previous attachment's span (status
        ``rebound`` — it neither completed nor suspended cleanly) and
        emits a ``server.resume-grant`` instant carrying the granted
        offset, then opens a fresh span parented to the *new* sublink's
        trace context, so the collector sees the resumed attempt as its
        own leg of the same trace.
        """
        tracer = self._tracer
        if tracer is None or header.trace is None:
            return
        if live.span:
            tracer.end(live.span, status="rebound")
        tctx = header.trace
        live.trace = tctx.trace_id
        live.span = tracer.begin(
            "server.session",
            tctx.trace_id,
            tctx.parent_span,
            session=header.short_id,
            rebind=header.rebind,
            hop=tctx.hop,
        )
        if granted is not None:
            tracer.instant(
                "server.resume-grant", tctx.trace_id, live.span,
                granted=granted,
            )

    def _end_span(self, live: _LiveSession, status: str) -> None:
        if self._tracer is None or not live.span:
            return
        if status == "suspended" and live.trace is not None:
            self._tracer.instant(
                "server.suspend", live.trace, live.span,
                bytes_received=live.receiver.payload_received,
            )
        self._tracer.end(
            live.span, status=status,
            bytes_received=live.receiver.payload_received,
        )
        live.span = 0

    def _note_suspended(self, live: _LiveSession) -> None:
        """Mirror the received count into the registry record (the
        sim server keeps it continuously; here the suspend point is
        the only moment it matters — it is the resumable offset)."""
        record = self.registry.get(live.receiver.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        self._end_span(live, "suspended")

    def _finalize(self, live: _LiveSession, digest_ok: Optional[bool]) -> None:
        session_id = live.receiver.session_id
        self._end_span(live, "ok" if digest_ok in (None, True) else "digest-failed")
        self.registry.close(session_id)
        record = self.registry.get(session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        header = live.receiver.header
        if live.sock is not None and self.reply is not None:
            live.sock.sendall(self.reply)
        result = SessionResult(
            session_id=session_id,
            payload=b"".join(live.chunks),
            digest_ok=digest_ok,
            route_len=len(header.route),
            rebinds=record.rebinds if record is not None else 0,
        )
        live.chunks.clear()  # delivered: nothing reads them again
        with self._lock:
            self.results.append(result)
            self._done.notify_all()
        if self.on_session is not None:
            self.on_session(result)

    # -- observability -------------------------------------------------------

    def expose(self, host: str = "127.0.0.1", port: int = 0, event_log=None):
        """Serve ``/metrics`` + ``/healthz`` (+ ``/events``) for this server."""
        from repro.sockets.obs import ExpositionServer, depot_families

        def collect():
            with self._lock:
                snap = {
                    "sessions_completed": len(self.results),
                    "sessions_failed": len(self.errors),
                    "sessions_expired": self.sessions_expired,
                }
            return depot_families(snap, event_log, prefix="lsl_server_")

        def health():
            return {
                "status": "ok",
                "server": f"{self.address[0]}:{self.address[1]}",
                "driver": "threads",
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    # -- lifecycle ----------------------------------------------------------

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` sessions completed (or errored)."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) + len(self.errors) >= count,
                timeout=timeout,
            )

    def shutdown(self) -> None:
        self._shutdown.set()
        # wake a kernel-blocked accept() (see ThreadedDepot.shutdown)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ThreadedLslServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
