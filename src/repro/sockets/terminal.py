"""The terminal session, once, for both real-socket drivers.

What a server does with a sublink is protocol, not driver:
:class:`~repro.lsl.core.SessionAcceptor` arbitrates fresh / rebind /
restart, :class:`~repro.lsl.core.PayloadReceiver` (or
:class:`~repro.lsl.core.FramedReceiver` for FLAG_FRAMED streams) owns
payload accounting and the end-to-end MD5, and
:func:`~repro.lsl.core.negotiate_resume` answers resume queries with the
authoritative received count. A suspended session (EOF mid-payload)
keeps its receiver until a REBIND sublink re-attaches and resumes from
the granted offset.

:class:`TerminalSublink` is one accepted sublink and
:class:`TerminalEngine` the server state behind it. They reach the
transport only through the sublink's *link* — ``write``, ``close``,
``closed`` — so ``ThreadedLslServer`` runs them from a ``recv`` loop
(:func:`repro.sockets.wire.run_blocking`) and ``AsyncLslServer`` from a
readiness callback (:class:`repro.asockets.runtime.Endpoint`); each
driver adds only its chassis and a constructor.

**The contract a driver must keep.** Two locks, each held for one call
and never across a read: the engine lock around the accept decision,
the registry sweep and the result lists; each live session's lock
around one ``feed`` / ``feed_eof`` / rebind. And one rule: a sublink
whose link is no longer ``live.link`` is *stale* — whatever it still
delivers, bytes or EOF, is dropped under the session lock and its link
closed — so a rebind never waits for the reader it displaces. On the
event loop both locks are simply never contended.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple, Union

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
    SessionRecord,
    SessionRegistry,
    negotiate_resume,
)
from repro.lsl.core.events import emit
from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.wire import HeaderAccumulator, LslHeader
from repro.telemetry.tracing import TraceSpool


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

    __slots__ = ("receiver", "chunks", "link", "lock", "span", "trace")

    def __init__(
        self, receiver: Union[PayloadReceiver, FramedReceiver], link: Any
    ) -> None:
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.link: Any = link  # the sublink now attached; None once restarted
        self.lock = threading.Lock()
        # distributed tracing: the active server.session span (one per
        # sublink attachment — a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None


class TerminalSublink:
    """One accepted sublink: header phase, then its session's receiver."""

    __slots__ = ("engine", "acc", "live")

    def __init__(self, engine: "TerminalEngine") -> None:
        self.engine = engine
        self.acc = HeaderAccumulator()
        self.live: Optional[_LiveSession] = None

    def received(self, link: Any, data: bytes) -> None:
        engine, live = self.engine, self.live
        try:
            if live is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self.live = live = engine._attach(link, header)
                data = self.acc.surplus
                if not data:
                    return
            with live.lock:
                # a displaced sublink's bytes are dropped, never fed
                if live.link is not link or engine._apply(
                    live, live.receiver.feed([Chunk.real(data)])
                ):
                    link.close()  # stale, or the session is finished
        except Exception as exc:
            engine._fail(link, exc)

    def ended(self, link: Any) -> None:
        engine, live = self.engine, self.live
        try:
            if live is None:
                raise ProtocolError("EOF before LSL header complete")
            with live.lock:
                if live.link is link:
                    disposition = live.receiver.feed_eof()
                    if disposition == EOF_SUSPEND:
                        # keep receiver state; a rebind may resume us
                        engine._note_suspended(live)
                    elif disposition == EOF_COMPLETE:
                        # stream-until-FIN: EOF is the completion signal
                        engine._finalize(live, live.receiver.digest_ok)
            link.close()
        except Exception as exc:
            engine._fail(link, exc)

    def broken(self, link: Any, exc: BaseException) -> None:
        if self.live is None and isinstance(exc, OSError):
            self.engine._fail(link, exc)  # reset before any header
        else:
            # sublink died, or shutdown: only this sublink is finished
            # — the receiver state lives on for a rebind
            link.close()


class TerminalEngine:
    """Server-side session state and bookkeeping (mix in before a
    chassis).

    The chassis owns the listener, accept, the sweeper's timer and
    shutdown; it hands every accepted socket to :meth:`_open`, which
    puts a :class:`TerminalSublink` behind the chassis's kind of link,
    and calls :meth:`_sweep` on its timer.
    """

    address: Tuple[str, int]
    _driver: str  # ``/healthz`` names the driver behind the socket
    _link: Callable[..., Any]

    def __init__(
        self,
        on_session: Optional[Callable[[SessionResult], None]],
        reply: Optional[bytes],
        observer: Optional[ProtocolObserver],
        session_ttl: Optional[float],
        tracer: Optional[TraceSpool],
    ) -> None:
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        self.on_session = on_session
        self.reply = reply
        self._observer = observer
        self._tracer = tracer
        self._session_ttl = session_ttl
        # the sweeper's period: an idle session lives at most ~1.25 × ttl
        self._sweep_every = min((session_ttl or 0.0) / 4.0, 1.0)
        self.registry = SessionRegistry()
        self._acceptor = SessionAcceptor(self.registry, observer)
        self.results: List[SessionResult] = []
        self.errors: List[Exception] = []
        self.accept_errors = 0
        self.sessions_expired = 0
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)

    # -- accept hooks ------------------------------------------------------

    def _open(self, sock: Any) -> Any:
        return self._link(sock, TerminalSublink(self))

    def _on_accept_error(self, exc: OSError) -> None:
        self.accept_errors += 1
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    # -- sublinks ----------------------------------------------------------

    def _fail(self, link: Any, exc: BaseException) -> None:
        with self._lock:
            self.errors.append(exc)
            self._done.notify_all()
        link.close()

    def _attach(self, link: Any, header: LslHeader) -> _LiveSession:
        """Run the accept decision, wire up the sublink and answer it."""
        with self._lock:
            decision = self._acceptor.decide(header, time.monotonic())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, AcceptRebind):
            live: _LiveSession = decision.record.attachment
            with live.lock:
                reply = negotiate_resume(
                    header, live.receiver.payload_received, self._observer
                )
                granted = live.receiver.payload_received
                live.receiver.rebind(header)
                displaced, live.link = live.link, link
                self._begin_span(live, header, granted=granted)
        else:  # AcceptNew | RestartSession
            displaced = None
            if isinstance(decision, RestartSession) and isinstance(
                decision.stale, _LiveSession
            ):
                stale = decision.stale
                with stale.lock:
                    displaced, stale.link = stale.link, None
            receiver: Union[PayloadReceiver, FramedReceiver]
            if header.framed:
                receiver = FramedReceiver(header, self._observer)
            else:
                receiver = PayloadReceiver(header, self._observer)
            live = _LiveSession(receiver, link)
            decision.record.attachment = live
            reply = decision.reply
            self._begin_span(live, header)
        if displaced is not None:
            # only the displaced sublink's own socket closes; its reader
            # is not waited for — whatever it still delivers is stale
            displaced.close()
        if reply:
            link.write(reply)
        return live

    def _apply(self, live: _LiveSession, events: Any) -> bool:
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

    # -- tracing -----------------------------------------------------------

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

    def _mirror(self, live: _LiveSession) -> Optional[SessionRecord]:
        """Copy the received count into the registry record (the sim
        server keeps it continuously; here it matters at a suspend —
        it is the resumable offset — and at completion)."""
        record = self.registry.get(live.receiver.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = time.monotonic()
        return record

    def _note_suspended(self, live: _LiveSession) -> None:
        self._mirror(live)
        self._end_span(live, "suspended")

    def _finalize(self, live: _LiveSession, digest_ok: Optional[bool]) -> None:
        session_id = live.receiver.session_id
        self._end_span(live, "ok" if digest_ok in (None, True) else "digest-failed")
        self.registry.close(session_id)
        record = self._mirror(live)
        if self.reply is not None:
            live.link.write(self.reply)
        result = SessionResult(
            session_id=session_id,
            payload=b"".join(live.chunks),
            digest_ok=digest_ok,
            route_len=len(live.receiver.header.route),
            rebinds=record.rebinds if record is not None else 0,
        )
        live.chunks.clear()  # delivered: nothing reads them again
        with self._lock:
            self.results.append(result)
            self._done.notify_all()
        if self.on_session is not None:
            self.on_session(result)

    def _sweep(self) -> None:
        """Expire suspended sessions that never rebound (the long-
        running server's leak: every suspend parked receiver state in
        the registry forever). The driver calls this every
        ``_sweep_every`` seconds."""
        assert self._session_ttl is not None
        with self._lock:
            expired = self.registry.expire(time.monotonic(), self._session_ttl)
            self.sessions_expired += len(expired)
        for record in expired:
            emit(self._observer, "session-expired",
                 record.session_id.hex()[:8],
                 bytes_received=record.bytes_received)
            link = getattr(record.attachment, "link", None)
            if link is not None:
                link.close()

    # -- observability -----------------------------------------------------

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
                "driver": self._driver,
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block the caller until ``count`` sessions completed (or
        errored)."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) + len(self.errors) >= count,
                timeout=timeout,
            )
