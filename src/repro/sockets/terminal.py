"""The terminal session, once, for all three drivers.

What a server does with a sublink is protocol, not driver:
:class:`~repro.lsl.core.SessionAcceptor` arbitrates fresh / rebind /
restart, :class:`~repro.lsl.core.PayloadReceiver` (or
:class:`~repro.lsl.core.FramedReceiver` for FLAG_FRAMED streams) owns
payload accounting and the end-to-end MD5, and
:func:`~repro.lsl.core.negotiate_resume` answers resume queries with the
authoritative received count. A suspended session (EOF or a reset
mid-payload) keeps its receiver until a REBIND sublink re-attaches and
resumes from the granted offset.

:class:`TerminalSublink` is one accepted sublink and
:class:`TerminalEngine` the server state behind it. They reach the
transport only through the sublink's *link* — ``write``, ``close``,
``closed`` — so ``ThreadedLslServer`` runs them from a ``recv`` loop
(:func:`repro.sockets.wire.run_blocking`), ``AsyncLslServer`` from a
readiness callback (:class:`repro.asockets.runtime.Endpoint`) and the
simulator's :class:`repro.lsl.server.LslServer` from ``SimSocket``
events (its ``SimLink``, which alone delivers chunk batches and virtual
bytes); each driver adds only its chassis, its clock and a constructor.

**The contract a driver must keep.** Two locks, each held for one call
and never across a read or a write: the engine lock around the accept
decision, the registry sweep and the result lists; each live session's
lock around one ``feed`` / ``feed_eof`` / rebind (a link's ``write``
may call ``broken`` back, which takes it). And one rule: a sublink
whose link is no longer ``live.link`` is *stale* — whatever it still
delivers, bytes or EOF, is dropped under the session lock and its link
closed — so a rebind never waits for the reader it displaces. On the
event loop and in the simulator both locks are simply never contended.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple, Union

from repro.lsl.core import (
    AcceptRebind,
    Chunk,
    ChunkLike,
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
    """Receiver state that outlives individual sublinks (rebinds).

    It is also the session's consumer: ``Deliver`` chunks queue in
    ``chunks``, and :meth:`delivered` runs once per batch that queued
    some. Here they wait for :meth:`TerminalEngine._completed` to join
    them into the result's payload; a driver that hands them to its
    application as they arrive subclasses this.
    """

    __slots__ = ("receiver", "chunks", "link", "lock", "span", "trace")

    def __init__(self, engine: "TerminalEngine", header: LslHeader, link: Any) -> None:
        observer = self._observer(engine)
        self.receiver: Union[PayloadReceiver, FramedReceiver] = (
            FramedReceiver(header, observer) if header.framed
            else PayloadReceiver(header, observer)
        )
        self.chunks: Deque[Chunk] = deque()
        self.link: Any = link  # the sublink now attached; None once restarted
        self.lock = threading.Lock()
        # distributed tracing: the active server.session span (one per
        # sublink attachment — a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None

    def _observer(self, engine: "TerminalEngine") -> Optional[ProtocolObserver]:
        """Where the receiver reports (a driver may scope it per session)."""
        return engine._observer

    def delivered(self) -> None:
        """A batch of payload was queued in ``chunks``."""


class TerminalSublink:
    """One accepted sublink: header phase, then its session's receiver."""

    __slots__ = ("engine", "acc", "live")

    def __init__(self, engine: "TerminalEngine") -> None:
        self.engine = engine
        self.acc = HeaderAccumulator()
        self.live: Optional[_LiveSession] = None

    def received(self, link: Any, data: bytes) -> None:
        """One read off a socket."""
        self.received_batch(link, [Chunk.real(data)])

    def received_batch(self, link: Any, chunks: List[ChunkLike]) -> None:
        """One read's worth of stream chunks, fed to the receiver at once."""
        engine, live = self.engine, self.live
        try:
            if live is None:
                chunks = self._header(link, chunks)
                live = self.live
                if live is None or not chunks:
                    return
            with live.lock:
                if live.link is not link:
                    link.close()  # stale: its bytes are dropped, never fed
                    return
                completed = engine._apply(live, live.receiver.feed(chunks))
            if completed is not None:
                engine._complete(live, link, completed.digest_ok)
        except Exception as exc:
            engine._fail(link, exc)

    def _header(self, link: Any, chunks: List[ChunkLike]) -> List[ChunkLike]:
        """Header phase: attach once the header is complete, and return
        the chunks that followed it."""
        acc = self.acc
        for i, chunk in enumerate(chunks):
            if chunk.data is None:
                raise ProtocolError("virtual bytes before LSL header")
            header = acc.feed(chunk.data)
            if header is not None:
                self.live = self.engine._attach(link, header)
                rest = chunks[i + 1:]
                if acc.surplus:
                    rest.insert(0, Chunk.real(acc.surplus))
                return rest
        return []

    def ended(self, link: Any) -> None:
        engine, live = self.engine, self.live
        try:
            if live is None:
                raise ProtocolError("EOF before LSL header complete")
            with live.lock:
                disposition = live.receiver.feed_eof() if live.link is link else None
                if disposition == EOF_SUSPEND:
                    # keep receiver state; a rebind may resume us
                    engine._note_suspended(live)
                elif disposition == EOF_COMPLETE:
                    # stream-until-FIN: EOF is the completion signal
                    engine._finalize(live, live.receiver.digest_ok)
            if disposition == EOF_COMPLETE:
                engine._complete(live, link, live.receiver.digest_ok)
            else:
                link.close()
        except Exception as exc:
            engine._fail(link, exc)

    def broken(self, link: Any, exc: BaseException) -> None:
        live = self.live
        if isinstance(exc, OSError):  # not a shutdown: the sublink died
            if live is None:
                self.engine._fail(link, exc)  # reset before any header
                return
            # a reset mid-payload suspends the session as a FIN does:
            # the receiver waits for a rebind at the mirrored offset
            with live.lock:
                if live.link is link and not live.receiver.finished:
                    self.engine._note_suspended(live)
        link.close()


class TerminalEngine:
    """Server-side session state and bookkeeping (mix in before a
    chassis).

    The chassis owns the listener, accept, the sweeper's timer and
    shutdown; it hands every accepted socket to :meth:`_open`, which
    puts a :class:`TerminalSublink` behind the chassis's kind of link,
    and calls :meth:`_sweep` on its timer. A driver whose application
    takes the payload as it arrives sets ``_session_cls`` and overrides
    the hooks :meth:`_attached`, :meth:`_completed` and
    :meth:`_failed`.
    """

    address: Tuple[str, int]
    _driver: str  # ``/healthz`` names the driver behind the socket
    _link: Callable[..., Any]
    _session_cls = _LiveSession
    #: The driver's clock: acceptor decisions, ``last_active``, the sweep.
    _now: Callable[[], float] = staticmethod(time.monotonic)

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
            decision = self._acceptor.decide(header, self._now())
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
            live = self._session_cls(self, header, link)
            decision.record.attachment = live
            reply = decision.reply
            self._begin_span(live, header)
        if displaced is not None:
            # only the displaced sublink's own socket closes; its reader
            # is not waited for — whatever it still delivers is stale
            displaced.close()
        if reply:
            link.write(reply)
        self._attached(live, header, decision)
        return live

    def _attached(
        self, live: _LiveSession, header: LslHeader, decision: Any
    ) -> None:
        """A sublink joined ``live`` (new, restarted or rebound)."""

    def _apply(
        self, live: _LiveSession, events: List[Any]
    ) -> Optional[Completed]:
        """Apply one batch's receiver events under the session lock; the
        ``Completed`` event once the session completed (the caller ends
        it with :meth:`_complete` after the lock), else None.
        ``Completed``/``Failed`` is always the last event."""
        if not events:
            return None
        append = live.chunks.append
        for event in events:
            if type(event) is Deliver:  # events are exact, leaf types
                append(event.chunk)
        last = events[-1]
        if type(last) is Completed:
            live.delivered()
            self._finalize(live, last.digest_ok)
            return last
        if type(last) is Failed:
            self._failed(live, last.error)
            raise last.error
        # once per batch: the resumable offset, and the sweep's idle clock
        self._mirror(live)
        live.delivered()
        return None

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

    def _mirror(self, live: _LiveSession) -> None:
        """Copy the received count into the registry record — the
        resumable offset — and stamp it active on the driver's clock."""
        record = self.registry.get(live.receiver.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = self._now()

    def _note_suspended(self, live: _LiveSession) -> None:
        self._mirror(live)
        self._end_span(live, "suspended")

    def _failed(self, live: _LiveSession, error: Exception) -> None:
        """The receiver failed the session (the sublink closes next)."""
        self.registry.close(live.receiver.session_id)
        self._end_span(live, "error")

    def _finalize(self, live: _LiveSession, digest_ok: Optional[bool]) -> None:
        """The session completed (under its lock): close its record."""
        self._end_span(live, "ok" if digest_ok in (None, True) else "digest-failed")
        self.registry.close(live.receiver.session_id)
        self._mirror(live)

    def _complete(
        self, live: _LiveSession, link: Any, digest_ok: Optional[bool]
    ) -> None:
        """Answer, hand the session over and close its sublink: after
        :meth:`_finalize`, outside the session lock (on the event loop a
        reply the peer no longer takes calls ``broken`` back, which
        takes that lock)."""
        if self.reply is not None:
            link.write(self.reply)
        self._completed(live, digest_ok)
        link.close()

    def _completed(self, live: _LiveSession, digest_ok: Optional[bool]) -> None:
        """Hand the finished session to the application: its result."""
        record = self.registry.get(live.receiver.session_id)
        result = SessionResult(
            session_id=live.receiver.session_id,
            payload=b"".join([chunk.data for chunk in live.chunks]),
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
            expired = self.registry.expire(self._now(), self._session_ttl)
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
