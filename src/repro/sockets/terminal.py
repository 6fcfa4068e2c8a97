"""The terminal session, once, for every live terminal endpoint.

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
A cluster worker (:class:`repro.cluster.node.StoreNode`) is this engine
with its hooks backed by a shared store, and a striped server
(:class:`repro.sockets.striped.StripedTerminalEngine`) one whose
sessions share an assembler among their sublinks. Every sublink that
ends its session ends once (:meth:`TerminalSublink._finish`):
``completed``, ``suspended``, ``failed``, or ``idle`` when it closed
without sending a byte.

**The contract a driver must keep.** Two locks, each held for one call
and never across a read or a write: the engine lock around the accept
decision, the registry and the result lists; each live session's lock
around one ``feed`` / ``feed_eof`` / rebind (a link's ``write`` may
call ``broken`` back, which takes it). A link's ``pause`` and
``resume`` may run under the session lock, so they must never call
back into their owner (a striped session holds links with them). And
one rule: a sublink whose
link is no longer ``live.link`` is *stale* — whatever it still
delivers, bytes or EOF, is dropped under the session lock and its link
closed — so a rebind never waits for the reader it displaces. On the
event loop and in the simulator both locks are simply never contended.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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


#: How a sublink ends (:meth:`TerminalSublink._finish`); ``idle`` is a
#: connection that closed without sending a byte (a TCP health check).
COMPLETED, SUSPENDED, FAILED, IDLE = "completed", "suspended", "failed", "idle"


class _LiveSession:
    """Receiver state that outlives individual sublinks (rebinds).

    It is also the session's consumer: ``Deliver`` chunks queue in
    ``chunks``, and :meth:`delivered` runs once per batch that queued
    some. Here they wait for :meth:`TerminalEngine._completed` to join
    them into :meth:`result`'s payload; a driver that hands them to its
    application as they arrive subclasses this, and so does one whose
    sublinks share a receiver (:meth:`feed`, :meth:`feed_eof`, :meth:`reset`).
    """

    __slots__ = (
        "session_id", "receiver", "chunks", "link", "lock", "span", "trace",
        "rebinds",
    )

    #: Whether a sublink reads on to its own EOF after the session ended.
    drain = False

    def __init__(self, engine: "TerminalEngine", header: LslHeader, link: Any) -> None:
        self.session_id = header.session_id
        self.receiver = self._receiver(header, self._observer(engine))
        self.chunks: Deque[Chunk] = deque()
        self.link: Any = link  # the sublink now attached; None once displaced
        self.lock = threading.Lock()
        # distributed tracing: the active server.session span (one per
        # sublink attachment — a rebind closes it and opens a new one)
        self.span = 0
        self.trace: Optional[bytes] = None
        self.rebinds = 0  # as of the accept decision that attached ``link``

    def _observer(self, engine: "TerminalEngine") -> Optional[ProtocolObserver]:
        """Where the receiver reports (a driver may scope it per session)."""
        return engine._observer

    def _receiver(self, header: LslHeader, observer: Any) -> Any:
        if header.framed:
            return FramedReceiver(header, observer)
        return PayloadReceiver(header, observer)

    def delivered(self) -> None:
        """A batch of payload was queued in ``chunks``."""

    def feed(self, link: Any, chunks: List[ChunkLike]) -> Optional[List[Any]]:
        """The receiver's events; None for a stale ``link``, whose bytes
        are dropped, never fed."""
        return self.receiver.feed(chunks) if self.link is link else None

    def feed_eof(self, link: Any) -> Optional[str]:
        """An ``EOF_*`` disposition; None for a stale ``link``."""
        return self.receiver.feed_eof() if self.link is link else None

    def reset(self, link: Any) -> bool:
        """Whether a reset on ``link`` suspends the session: mid-payload
        on the attached sublink, a rebind may resume it."""
        return self.link is link and not self.receiver.finished

    def result(self, payload: bytes, digest_ok: Optional[bool]) -> SessionResult:
        return SessionResult(
            self.session_id, payload, digest_ok,
            len(self.receiver.header.route), self.rebinds,
        )


class TerminalSublink:
    """One accepted sublink: header phase, then its session's receiver."""

    __slots__ = ("engine", "acc", "live", "done")

    def __init__(self, engine: "TerminalEngine") -> None:
        self.engine = engine
        self.acc = HeaderAccumulator()
        self.live: Optional[_LiveSession] = None
        self.done = False

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
                events = live.feed(link, chunks)
                if events is None:
                    link.close()  # stale
                    return
                status = engine._apply(live, events)
            if status is not None:
                self._finish(link, status)
        except Exception as exc:
            self._finish(link, FAILED, exc)

    def _header(self, link: Any, chunks: List[ChunkLike]) -> List[ChunkLike]:
        """Header phase: attach once the header is complete, and return
        the chunks that followed it (none when the link went on to
        another owner)."""
        acc = self.acc
        for i, chunk in enumerate(chunks):
            if chunk.data is None:
                raise ProtocolError("virtual bytes before LSL header")
            header = acc.feed(chunk.data)
            if header is not None:
                rest = chunks[i + 1:]
                if acc.surplus:
                    rest.insert(0, Chunk.real(acc.surplus))
                if self.engine._forward(link, header, rest):
                    return []
                self.engine._attach(self, link, header)
                return rest
        return []

    def ended(self, link: Any) -> None:
        engine, live = self.engine, self.live
        if live is None:
            self._finish(
                link, FAILED if self.acc.started else IDLE,
                ProtocolError("EOF before LSL header complete"),
            )
            return
        try:
            with live.lock:
                disposition = live.feed_eof(link)
                status = None  # stale, or one of the session's sublinks
                if disposition == EOF_SUSPEND:
                    # keep receiver state; a rebind may resume us
                    engine._note_suspended(live)
                    status = SUSPENDED
                elif disposition == EOF_COMPLETE:
                    # stream-until-FIN: EOF is the completion signal
                    status = engine._finalize(live, live.receiver.digest_ok)
                elif disposition is not None:
                    raise ProtocolError("EOF inside the trailer")
            self._finish(link, status)
        except Exception as exc:
            self._finish(link, FAILED, exc)

    def broken(self, link: Any, exc: BaseException) -> None:
        # a reset before any header, or the service shut down under a
        # session that has not ended; a reset mid-payload suspends the
        # session as a FIN does, to wait for a rebind at the mirrored offset
        live, status = self.live, FAILED
        if live is not None and (isinstance(exc, OSError) or live.receiver.finished):
            with live.lock:
                status = None  # stale, already ending, or one of several
                if live.reset(link):
                    self.engine._note_suspended(live)
                    status = SUSPENDED
        self._finish(link, status, exc)

    def _finish(
        self, link: Any, status: Optional[str],
        failure: Optional[BaseException] = None,
    ) -> None:
        """End this sublink with ``status``, once (a crash's ``broken``
        may race its reader's own end), outside the session lock: answer
        and hand over a completed session, record a failed one (not an
        idle one), close the link unless its session's sublinks
        ``drain``, then the engine's :meth:`~TerminalEngine._ended`. A
        sublink that does not end its session (``status`` None) is only
        closed."""
        engine, live = self.engine, self.live
        if status is None:
            link.close()
            return
        with engine._lock:
            if self.done:
                return
            self.done = True
        if status == COMPLETED:
            try:
                # on the event loop a reply the peer no longer takes
                # calls ``broken`` back, which takes the session lock
                if engine.reply is not None:
                    link.write(engine.reply)
                engine._completed(live, live.receiver.digest_ok)
            except Exception as exc:
                status, failure = FAILED, exc
        if status == FAILED:
            engine._fail(live, failure)
        if live is None or not live.drain:
            link.close()
        engine._ended(self, status, failure)


class TerminalEngine:
    """Server-side session state and bookkeeping (mix in before a
    chassis).

    The chassis owns the listener, accept, the sweeper's timer and
    shutdown; it hands every accepted socket to :meth:`_open`, which
    puts a :class:`TerminalSublink` behind the chassis's kind of link,
    and calls :meth:`_sweep` on its timer. A driver whose application
    takes the payload as it arrives sets ``_session_cls`` and overrides
    the hooks :meth:`_attached`, :meth:`_completed` and
    :meth:`_failed`; one that keeps its sessions in a store, the session
    hooks and :meth:`_ended`; one whose sublinks join a shared session,
    ``_session_cls`` and :meth:`_attach`.
    """

    address: Tuple[str, int]
    _driver: str  # ``/healthz`` names the driver behind the socket
    _link: Callable[..., Any]
    _session_cls = _LiveSession
    #: The driver's clock: acceptor decisions, ``last_active``, the sweep.
    _now: Callable[[], float] = staticmethod(time.monotonic)
    #: Attributes every ``server.session`` span carries.
    _span_attrs: Dict[str, object] = {}

    def __init__(
        self,
        on_session: Optional[Callable[[SessionResult], None]],
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
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
        self.results: List[SessionResult] = []
        self.errors: List[BaseException] = []
        self.accept_errors = 0
        self.sessions_expired = 0
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._accepting()

    def _accepting(self) -> None:
        """Set up what the accept decision runs on: a process-local
        registry."""
        self.registry = SessionRegistry()
        self._acceptor = SessionAcceptor(self.registry, self._observer)

    # -- accept hooks ------------------------------------------------------

    def _open(self, sock: Any) -> Any:
        return self._link(sock, TerminalSublink(self))

    def _on_accept_error(self, exc: OSError) -> None:
        self.accept_errors += 1
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    # -- sublinks ----------------------------------------------------------

    def _forward(self, link: Any, header: LslHeader, rest: List[ChunkLike]) -> bool:
        """Whether ``link`` went on to another hop with ``header`` and
        ``rest``; a server keeps it (its acceptor refuses a header that
        is not for it)."""
        return False

    def _attach(self, sublink: TerminalSublink, link: Any, header: LslHeader) -> None:
        """Run the accept decision, wire up the sublink and answer it
        (its session is ``sublink.live`` before the answer is written,
        so a write that fails ends the session's sublink)."""
        with self._lock:
            decision = self._acceptor.decide(header, self._now())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, AcceptRebind):
            live: _LiveSession = decision.record.attachment
            with live.lock:
                granted = live.receiver.payload_received
                reply = negotiate_resume(header, granted, self._observer)
                displaced = self._reattach(live, link, header, granted=granted)
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
        live.rebinds = decision.record.rebinds
        if displaced is not None:
            # only the displaced sublink's own socket closes; its reader
            # is not waited for — whatever it still delivers is stale
            displaced.close()
        sublink.live = live
        if reply:
            link.write(reply)
        self._attached(live, header, decision)

    def _reattach(
        self, live: _LiveSession, link: Any, header: LslHeader, **grant: Any
    ) -> Any:
        """Move ``live`` (under its lock) to the rebind on ``link``,
        receiver and MD5 as they stand; returns the displaced link."""
        live.receiver.rebind(header)
        displaced, live.link = live.link, link
        self._begin_span(live, header, **grant)
        return displaced

    def _attached(
        self, live: _LiveSession, header: LslHeader, decision: Any
    ) -> None:
        """A sublink joined ``live`` (new, restarted or rebound)."""

    def _apply(self, live: _LiveSession, events: List[Any]) -> Optional[str]:
        """Apply one batch's receiver events under the session lock; the
        status the batch ends the sublink with (``completed``, or what
        :meth:`_mirror` says), else None. ``Completed``/``Failed`` is
        always the last event."""
        if not events:
            return None
        append = live.chunks.append
        for event in events:
            if type(event) is Deliver:  # events are exact, leaf types
                append(event.chunk)
        last = events[-1]
        if type(last) is Completed:
            live.delivered()
            return self._finalize(live, last.digest_ok)
        if type(last) is Failed:
            self._failed(live, last.error)
            raise last.error
        # once per batch: the resumable offset, and the sweep's idle clock
        status = self._mirror(live)
        live.delivered()
        return status

    # -- tracing -----------------------------------------------------------

    def _begin_span(
        self,
        live: _LiveSession,
        header: LslHeader,
        granted: Optional[int] = None,
        **grant: Any,
    ) -> None:
        """Open a ``server.session`` span for this sublink attachment.

        A rebind closes the previous attachment's span (status
        ``rebound`` — it neither completed nor suspended cleanly) and
        emits a ``server.resume-grant`` instant carrying the granted
        offset (and ``grant``), then opens a fresh span parented to the
        *new* sublink's trace context, so the collector sees the resumed
        attempt as its own leg of the same trace.
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
            **self._span_attrs,
            rebind=header.rebind,
            hop=tctx.hop,
        )
        if granted is not None:
            tracer.instant(
                "server.resume-grant", tctx.trace_id, live.span,
                granted=granted, **grant,
            )

    def _end_span(self, live: _LiveSession, status: str, **attrs: Any) -> None:
        if self._tracer is None or not live.span:
            return
        if status == SUSPENDED and live.trace is not None:
            self._tracer.instant(
                "server.suspend", live.trace, live.span,
                bytes_received=live.receiver.payload_received,
            )
        self._tracer.end(
            live.span, status=status,
            bytes_received=live.receiver.payload_received, **attrs,
        )
        live.span = 0

    # -- session hooks (under the session lock) -----------------------------

    def _mirror(self, live: _LiveSession) -> Optional[str]:
        """Copy the received count into the registry record — the
        resumable offset — and stamp it active on the driver's clock.
        Run once per batch that leaves the session streaming; a status
        returned ends the sublink with it."""
        record = self.registry.get(live.session_id)
        if record is not None:
            record.bytes_received = live.receiver.payload_received
            record.last_active = self._now()
        return None

    def _note_suspended(self, live: _LiveSession) -> None:
        self._mirror(live)
        self._end_span(live, SUSPENDED)

    def _failed(self, live: _LiveSession, error: Exception) -> None:
        """The receiver failed the session (the sublink ends next)."""
        with self._lock:  # closing may forget the oldest closed record
            self.registry.close(live.session_id)
        self._end_span(live, "error")

    def _finalize(self, live: _LiveSession, digest_ok: Optional[bool]) -> str:
        """The session completed: close its record. Returns the status
        its sublink ends with."""
        self._end_span(live, "ok" if digest_ok in (None, True) else "digest-failed")
        with self._lock:
            self.registry.close(live.session_id)
        self._mirror(live)
        return COMPLETED

    # -- sublink ends (outside the session lock) ----------------------------

    def _completed(self, live: _LiveSession, digest_ok: Optional[bool]) -> None:
        """Hand the finished session to the application: its result."""
        result = live.result(
            b"".join([chunk.data for chunk in live.chunks]), digest_ok
        )
        live.chunks.clear()  # delivered: nothing reads them again
        with self._lock:
            self.results.append(result)
            self._done.notify_all()
        if self.on_session is not None:
            self.on_session(result)

    def _fail(self, live: Optional[_LiveSession], exc: BaseException) -> None:
        """Record a failed sublink; the session's span, if it is still
        open, ends ``error``."""
        if live is not None:
            with live.lock:
                self._end_span(live, "error")
        with self._lock:
            self.errors.append(exc)
            self._done.notify_all()

    def _ended(
        self, sublink: TerminalSublink, status: str,
        failure: Optional[BaseException],
    ) -> None:
        """A sublink ended with ``status``, its link closed."""

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
