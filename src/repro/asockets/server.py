"""Asyncio LSL server over real sockets.

The same sans-I/O machines as the threaded server —
:class:`~repro.lsl.core.SessionAcceptor` arbitrates
fresh/rebind/restart, :class:`~repro.lsl.core.PayloadReceiver` /
:class:`~repro.lsl.core.FramedReceiver` own payload accounting and the
end-to-end MD5, :func:`~repro.lsl.core.negotiate_resume` answers
resume queries — fed straight from each sublink's readiness callback
(:class:`_Sublink`; no task per session). Because all session logic
runs single-threaded in that loop, the threaded server's per-session
locks disappear: a rebind simply closes the endpoint of the dead
sublink (nothing of it is read again) and re-attaches the receiver
state to the new one.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Callable, List, Optional, Union

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
from repro.lsl.header import HeaderAccumulator, LslHeader
from repro.asockets.runtime import AsyncLoopService, Endpoint
from repro.sockets.server import SessionResult
from repro.telemetry.tracing import TraceSpool


class _LiveAsyncSession:
    """Receiver state that outlives individual sublinks (rebinds)."""

    __slots__ = ("receiver", "chunks", "ep", "span", "trace")

    def __init__(
        self, receiver: Union[PayloadReceiver, FramedReceiver]
    ) -> None:
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.ep: Optional[Endpoint] = None  # the sublink now attached
        # distributed tracing: active server.session span per sublink
        # attachment (a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None


class _Sublink:
    """One accepted sublink: header phase, then its session's receiver."""

    __slots__ = ("server", "acc", "live")

    def __init__(self, server: "AsyncLslServer") -> None:
        self.server = server
        self.acc = HeaderAccumulator()
        self.live: Optional[_LiveAsyncSession] = None

    def received(self, ep: Endpoint, data: bytes) -> None:
        server = self.server
        try:
            if self.live is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self.live, reply = server._attach(ep, header)
                if reply:
                    ep.write(reply)
                data = self.acc.surplus
            if data and server._apply(
                self.live, self.live.receiver.feed([Chunk.real(data)])
            ):
                ep.close()
        except Exception as exc:
            server._fail(ep, exc)

    def ended(self, ep: Endpoint) -> None:
        server, live = self.server, self.live
        try:
            if live is None:
                raise ProtocolError("EOF before LSL header complete")
            disposition = live.receiver.feed_eof()
            if disposition == EOF_SUSPEND:
                # keep receiver state; a rebind may resume us
                server._note_suspended(live)
            elif disposition == EOF_COMPLETE:
                server._finalize(live, live.receiver.digest_ok)
            ep.close()
        except Exception as exc:
            server._fail(ep, exc)

    def broken(self, ep: Endpoint, exc: BaseException) -> None:
        if self.live is None and isinstance(exc, OSError):
            self.server._fail(ep, exc)  # reset before any header
        else:
            # sublink died, or shutdown: only this sublink is finished
            # — the receiver state lives on
            ep.close()


class AsyncLslServer(AsyncLoopService):
    """Accepts LSL sessions on one event loop; verifies digests.

    Public surface mirrors :class:`~repro.sockets.server.ThreadedLslServer`
    (``results``, ``errors``, ``wait_for_sessions``, ``expose``,
    context-manager lifecycle) so callers can switch drivers without
    touching their code.
    """

    _thread_prefix = "alsl-srv"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
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
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        self._session_ttl = session_ttl
        self._lock = threading.Lock()  # results/errors cross-thread reads
        self._done = threading.Condition(self._lock)
        super().__init__(host, port, drain_timeout=drain_timeout)
        if session_ttl is not None:
            # keeps the task referenced; the loop's shutdown cancels it
            self._sweeper = asyncio.run_coroutine_threadsafe(
                self._sweep_loop(), self._loop
            )

    async def _sweep_loop(self) -> None:
        """Expire suspended sessions that never rebound (single-loop
        twin of the threaded server's sweeper thread)."""
        ttl = self._session_ttl
        assert ttl is not None
        while True:
            await asyncio.sleep(min(ttl / 4.0, 1.0))
            expired = self.registry.expire(time.monotonic(), ttl)
            with self._lock:
                self.sessions_expired += len(expired)
            for record in expired:
                emit(self._observer, "session-expired",
                     record.session_id.hex()[:8],
                     bytes_received=record.bytes_received)
                ep = getattr(record.attachment, "ep", None)
                if ep is not None:
                    ep.close()

    def _on_accept_error(self, exc: OSError) -> None:
        self.accept_errors += 1

    # -- sublinks ----------------------------------------------------------

    def _open(self, sock: socket.socket) -> None:
        Endpoint(self, sock, _Sublink(self))

    def _fail(self, ep: Endpoint, exc: BaseException) -> None:
        with self._lock:
            self.errors.append(exc)
            self._done.notify_all()
        ep.close()

    def _attach(self, ep: Endpoint, header: LslHeader):
        """Run the accept decision and wire up the sublink.

        Runs inside one loop callback, so nothing else can touch the
        registry meanwhile — all the serialization the single-loop
        driver needs.
        """
        decision = self._acceptor.decide(header, time.monotonic())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, AcceptRebind):
            live: _LiveAsyncSession = decision.record.attachment
            if live.ep is not None and live.ep is not ep:
                # drop the dead sublink: only its own socket closes,
                # and nothing still in flight on it is read
                live.ep.close()
            reply = negotiate_resume(
                header, live.receiver.payload_received, self._observer
            )
            granted = live.receiver.payload_received
            live.receiver.rebind(header)
            live.ep = ep
            self._begin_span(live, header, granted=granted)
            return live, reply
        if isinstance(decision, RestartSession) and isinstance(
            decision.stale, _LiveAsyncSession
        ):
            stale = decision.stale.ep
            if stale is not None and stale is not ep:
                stale.close()
        receiver: Union[PayloadReceiver, FramedReceiver]
        if header.framed:
            receiver = FramedReceiver(header, self._observer)
        else:
            receiver = PayloadReceiver(header, self._observer)
        live = _LiveAsyncSession(receiver)
        live.ep = ep
        decision.record.attachment = live
        self._begin_span(live, header)
        return live, decision.reply

    # -- tracing -----------------------------------------------------------

    def _begin_span(
        self,
        live: _LiveAsyncSession,
        header: LslHeader,
        granted: Optional[int] = None,
    ) -> None:
        """Open a ``server.session`` span for this sublink attachment
        (same semantics as the threaded server: a rebind closes the old
        span as ``rebound``, emits ``server.resume-grant``, and opens a
        fresh span parented to the new sublink's trace context)."""
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

    def _end_span(self, live: _LiveAsyncSession, status: str) -> None:
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

    def _apply(self, live: _LiveAsyncSession, events) -> bool:
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

    def _note_suspended(self, live: _LiveAsyncSession) -> None:
        record = self.registry.get(live.receiver.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        self._end_span(live, "suspended")

    def _finalize(
        self, live: _LiveAsyncSession, digest_ok: Optional[bool]
    ) -> None:
        session_id = live.receiver.session_id
        self._end_span(
            live, "ok" if digest_ok in (None, True) else "digest-failed"
        )
        self.registry.close(session_id)
        record = self.registry.get(session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        header = live.receiver.header
        if live.ep is not None and self.reply is not None:
            live.ep.write(self.reply)
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

    # -- observability -----------------------------------------------------

    def expose(self, host: str = "127.0.0.1", port: int = 0, event_log=None):
        """Serve ``/metrics`` + ``/healthz`` (+ ``/events``)."""
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
                "driver": "asyncio",
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    # -- lifecycle ---------------------------------------------------------

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` sessions finished."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) + len(self.errors) >= count,
                timeout=timeout,
            )
