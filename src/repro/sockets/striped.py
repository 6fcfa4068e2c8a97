"""Striped multipath LSL over real sockets.

The same sans-I/O machines that power the simulator's striped sessions
(:mod:`repro.lsl.core.striping`), once for both real-socket drivers.

**Server side.** :class:`StripedSublink` is one accepted framed sublink
and :class:`StripedEngine` the table that groups sublinks by session id
into a shared :class:`~repro.lsl.core.StripeAssembler`. Like the
terminal session (:mod:`repro.sockets.terminal`) they reach the
transport only through the sublink's link, so
:class:`StripedThreadedServer` runs them on a pooled worker per sublink
(the :class:`~repro.sockets.wire.ThreadedService` chassis) and
:class:`repro.asockets.striped.AsyncStripedServer` from the loop's
read callbacks, under the same locking rule: the engine lock around the
table and the result lists, each session's lock around one assembler
call, never across a read.

**Client side.** :class:`_StripedSend` is everything a striped send is
apart from moving bytes — ids, trace spans, the lock-guarded
:class:`~repro.lsl.core.StripeScheduler`, each sublink's header, the
report. :func:`send_striped` here is the threaded dial-and-write loop,
one pooled worker (:mod:`repro.sockets.workers`) per sublink: blocking
``sendall`` is the demand pacing, so fast paths naturally pull more
stripes.

A sublink that dies (depot crash, connection reset) degrades the
transfer: its uncovered stripes are re-dealt to the survivors, and
under ``duplicate-k`` redundancy the survivors already carry full
coverage — the session completes with zero resume round-trips.
"""

from __future__ import annotations

import random
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence
from typing import Tuple, Union

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
from repro.lsl.core import TraceContext
from repro.lsl.core.striping import DEFAULT_STRIPE, Assignment
from repro.lsl.core.errors import LslError, ProtocolError, RouteError
from repro.lsl.core.session import new_session_id
from repro.lsl.core.wire import HeaderAccumulator
from repro.telemetry.tracing import TraceSpool, new_trace_id
from repro.lsl.core.events import emit
from repro.sockets import workers
from repro.sockets.wire import ThreadedService

#: Finished striped sessions a server keeps findable. Sublinks of one
#: session arrive with arbitrary skew, so a late one must still find
#: the finished entry (and drain into it); past this many the oldest
#: is dropped.
FINISHED_KEPT = 1024


@dataclass
class StripedResult:
    """Outcome of one completed striped session (server side)."""

    session_id: bytes
    payload: bytes
    digest_ok: Optional[bool]
    sublinks: int
    duplicate_bytes: int
    reconstructed_blocks: int


@dataclass
class StripedSendReport:
    """Outcome of a striped send (client side)."""

    session_id: bytes
    per_sublink_bytes: List[int]
    redundant_stripes: int
    redeals: int
    sublink_errors: List[Exception] = field(default_factory=list)


# -- client side ---------------------------------------------------------------


class _StripedSend:
    """One striped send, minus the sockets.

    Holds the session id, the ``client.session`` span and a
    ``client.dial`` span per sublink, and the scheduler behind one
    lock. A driver runs one dial-and-write loop per route against it:
    :meth:`begin`, dial, :meth:`dialed`, then :meth:`next_assignment` /
    :meth:`sent` until ``None``; :meth:`lost` on a socket error and
    :meth:`end` in any case; :meth:`report` once every loop is done.
    """

    def __init__(
        self,
        routes: Sequence[Sequence[Tuple[str, int]]],
        payload: bytes,
        session_id: Optional[bytes],
        stripe_bytes: int,
        redundancy: Union[str, Redundancy],
        digest: bool,
        observer: Optional[ProtocolObserver],
        rng: Optional[random.Random],
        tracer: Optional[TraceSpool],
        trace_id: Optional[bytes],
        trace_parent: int,
    ) -> None:
        if not routes:
            raise RouteError("need at least one route")
        self.routes: List[Tuple[RouteHop, ...]] = [
            tuple(RouteHop(h, p) for h, p in route) for route in routes
        ]
        if isinstance(redundancy, str):
            redundancy = parse_redundancy(redundancy)
        self.session_id = session_id if session_id is not None else (
            new_session_id(rng or random.Random())
        )
        self._payload_length = len(payload)
        self._digest = digest
        self._tracer = tracer
        self._span = 0
        if tracer is not None:
            if trace_id is None:
                trace_id = new_trace_id(rng)
            self._span = tracer.begin(
                "client.session",
                trace_id,
                parent=trace_parent,
                session=self.session_id.hex()[:8],
                routes=[[str(hop) for hop in r] for r in self.routes],
                striped=True,
            )
        self._trace_id = trace_id
        self._keys = [f"sub{i}" for i in range(len(self.routes))]
        self._dial_spans = [0] * len(self.routes)
        self._scheduler = StripeScheduler(
            len(payload),
            data=payload,
            stripe_bytes=stripe_bytes,
            redundancy=redundancy,
            use_digest=digest,
            observer=observer,
            session=self.session_id.hex()[:8],
        )
        # every sublink is known before any dials: one lost early still
        # finds its siblings alive to take over
        for key in self._keys:
            self._scheduler.add_sublink(key)
        self._lock = threading.Lock()
        self._errors: List[Exception] = []
        self._sent_bytes = [0] * len(self.routes)

    def begin(self, index: int) -> bytes:
        """Open sublink ``index``'s ``client.dial`` span; returns its
        encoded header, which carries the trace context parented to it."""
        route = self.routes[index]
        trace = None
        if self._tracer is not None and self._trace_id is not None:
            self._dial_spans[index] = self._tracer.begin(
                "client.dial", self._trace_id, self._span,
                hop=str(route[0]), sublink=self._keys[index],
            )
            trace = TraceContext(self._trace_id, self._dial_spans[index], 0)
        return LslHeader(
            session_id=self.session_id,
            route=route,
            hop_index=0,
            payload_length=self._payload_length,
            digest=self._digest,
            sync=False,  # framed joins are asynchronous by design
            framed=True,
            trace=trace,
        ).encode()

    def dialed(self, index: int) -> None:
        if self._dial_spans[index]:
            assert self._tracer is not None
            self._tracer.end(self._dial_spans[index])

    def end(self, index: int) -> None:
        """The sublink is over: its ``client.dial`` span ends in error
        unless :meth:`dialed` ended it (a span ends only once)."""
        if self._dial_spans[index]:
            assert self._tracer is not None
            self._tracer.end(self._dial_spans[index], status="error")

    def next_assignment(self, index: int) -> Optional[Assignment]:
        """What sublink ``index`` sends next; ``None`` ends its share
        (the caller half-closes)."""
        key = self._keys[index]
        with self._lock:
            assignment = self._scheduler.next_assignment(key)
            if assignment is None:
                self._scheduler.sublink_finished(key)
        return assignment

    def sent(self, index: int, assignment: Assignment) -> None:
        assignment.header_sent = True
        assignment.sent = assignment.length
        if assignment.kind == "data":
            self._sent_bytes[index] += assignment.length

    def lost(self, index: int, exc: Exception) -> None:
        with self._lock:
            self._scheduler.sublink_lost(self._keys[index], exc)
            self._errors.append(exc)

    def report(self) -> StripedSendReport:
        scheduler = self._scheduler
        if self._tracer is not None and self._span:
            self._tracer.end(
                self._span,
                status="error" if scheduler.failed is not None else "ok",
                bytes=sum(self._sent_bytes),
                redeals=scheduler.redeals,
            )
        if scheduler.failed is not None:
            raise LslError(f"striped send failed: {scheduler.failed}")
        return StripedSendReport(
            session_id=self.session_id,
            per_sublink_bytes=self._sent_bytes,
            redundant_stripes=scheduler.redundant_stripes,
            redeals=scheduler.redeals,
            sublink_errors=self._errors,
        )


def _frame_of(assignment: Assignment) -> bytes:
    """The wire bytes of one assignment: frame header, then its body."""
    body = assignment.payload if assignment.payload is not None else b""
    return assignment.frame_header() + body


def send_striped(
    routes: Sequence[Sequence[Tuple[str, int]]],
    payload: bytes,
    session_id: Optional[bytes] = None,
    stripe_bytes: int = DEFAULT_STRIPE,
    redundancy: Union[str, Redundancy] = "none",
    digest: bool = True,
    timeout: float = 30.0,
    observer: Optional[ProtocolObserver] = None,
    rng: Optional[random.Random] = None,
    sndbuf: Optional[int] = None,
    tracer: Optional[TraceSpool] = None,
    trace_id: Optional[bytes] = None,
    trace_parent: int = 0,
) -> StripedSendReport:
    """Send ``payload`` striped across ``routes`` (one thread each).

    Raises :class:`LslError` only when *no* route can complete
    coverage; individual sublink failures degrade the transfer and are
    reported in ``sublink_errors``.

    With ``tracer`` set, the whole striped send is one
    ``client.session`` span and each sublink carries the trace context
    on its header, parented to a per-sublink ``client.dial`` span.
    """
    send = _StripedSend(
        routes, payload, session_id, stripe_bytes, redundancy, digest,
        observer, rng, tracer, trace_id, trace_parent,
    )

    def run_sublink(index: int) -> None:
        header = send.begin(index)
        hop = send.routes[index][0]
        sock: Optional[socket.socket] = None
        try:
            sock = socket.create_connection((hop.host, hop.port), timeout=timeout)
            send.dialed(index)
            if sndbuf is not None:
                # shrink the send buffer so demand pacing engages even
                # on loopback (kernel memory otherwise swallows whole
                # payloads before slower sublinks pull their share)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
            sock.sendall(header)
            while True:
                assignment = send.next_assignment(index)
                if assignment is None:
                    sock.shutdown(socket.SHUT_WR)
                    return
                # blocking sendall is the demand pacing: while this
                # thread drains into a slow path, the other sublinks
                # pull the remaining stripes
                sock.sendall(_frame_of(assignment))
                send.sent(index, assignment)
        except OSError as exc:
            send.lost(index, exc)
        finally:
            send.end(index)
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    sublinks = [workers.run(run_sublink, i) for i in range(len(send.routes))]
    for done in sublinks:
        done.wait()
    return send.report()


# -- server side ---------------------------------------------------------------


class _StripedSession:
    """Server-side shared state for one striped session."""

    __slots__ = ("header", "lock", "assembler", "chunks", "sublinks", "span")

    def __init__(
        self,
        header: LslHeader,
        observer: Optional[ProtocolObserver],
    ) -> None:
        self.header = header
        self.lock = threading.Lock()
        self.assembler = StripeAssembler(
            header.payload_length,
            use_digest=header.digest,
            observer=observer,
            session=header.short_id,
        )
        self.chunks: List[bytes] = []
        self.sublinks = 0
        self.span = 0  # server.session trace span, when traced


class StripedSublink:
    """One accepted sublink: header phase, then the shared assembler."""

    __slots__ = ("engine", "acc", "session", "key")

    def __init__(self, engine: "StripedEngine") -> None:
        self.engine = engine
        self.acc = HeaderAccumulator()
        self.session: Optional[_StripedSession] = None
        self.key = ""

    def received(self, link: Any, data: bytes) -> None:
        engine = self.engine
        try:
            if self.session is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self.session, self.key = engine._join(header)
                data = self.acc.surplus
            if self.session.assembler.failed is not None:
                self.ended(link)
            elif data:
                # once completed this only drains to EOF: closing with
                # unread redundant copies in the buffer would RST a
                # peer still mid-send, and the sender would count a
                # healthy sublink as lost
                engine._feed(self.session, self.key, data)
        except Exception as exc:
            with engine._lock:
                engine.errors.append(exc)
            self.ended(link)

    def ended(self, link: Any) -> None:
        session = self.session
        if session is not None:
            with session.lock:
                session.assembler.sublink_closed(self.key)
        link.close()

    def broken(self, link: Any, exc: BaseException) -> None:
        self.ended(link)  # a dead sublink degrades, it doesn't fail


class StripedEngine:
    """The striped-session table and its results (mix in before a
    chassis)."""

    _link: Callable[..., Any]

    def __init__(
        self,
        on_session: Optional[Callable[[StripedResult], None]],
        observer: Optional[ProtocolObserver],
        tracer: Optional[TraceSpool],
    ) -> None:
        self.on_session = on_session
        self._observer = observer
        self._tracer = tracer
        self.results: List[StripedResult] = []
        self.errors: List[Exception] = []
        self.accept_errors = 0
        self._sessions: Dict[bytes, _StripedSession] = {}
        self._finished: Deque[bytes] = deque()  # ids, oldest first
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)

    def _open(self, sock: Any) -> Any:
        return self._link(sock, StripedSublink(self))

    def _on_accept_error(self, exc: OSError) -> None:
        self.accept_errors += 1
        emit(self._observer, "accept-error", "",
             error=type(exc).__name__, detail=str(exc))

    def _join(self, header: LslHeader) -> Tuple[_StripedSession, str]:
        """Find or create the session of a sublink's header and attach
        the sublink to its assembler; returns the session and the
        sublink's key."""
        if not header.is_last_hop or not header.framed:
            raise ProtocolError("unframed or mis-routed striped sublink")
        with self._lock:
            session = self._sessions.get(header.session_id)
            if session is None:
                session = _StripedSession(header, self._observer)
                if self._tracer is not None and header.trace is not None:
                    session.span = self._tracer.begin(
                        "server.session",
                        header.trace.trace_id,
                        header.trace.parent_span,
                        session=header.short_id,
                        striped=True,
                        hop=header.trace.hop,
                    )
                self._sessions[header.session_id] = session
            elif session.header.payload_length != header.payload_length:
                raise ProtocolError("sublink disagrees on payload length")
        with session.lock:
            key = f"sub{session.sublinks}"
            session.sublinks += 1
            session.assembler.attach(key)
        return session, key

    def _feed(self, session: _StripedSession, key: str, data: bytes) -> None:
        result: Optional[StripedResult] = None
        error: Optional[Exception] = None
        with session.lock:
            if session.assembler.finished:
                return
            for event in session.assembler.feed_bytes(key, data):
                if isinstance(event, Deliver):
                    assert event.chunk.data is not None
                    session.chunks.append(event.chunk.data)
                elif isinstance(event, Completed):
                    result = StripedResult(
                        session_id=session.header.session_id,
                        payload=b"".join(session.chunks),
                        digest_ok=event.digest_ok,
                        sublinks=session.sublinks,
                        duplicate_bytes=session.assembler.duplicate_bytes,
                        reconstructed_blocks=(
                            session.assembler.reconstructed_blocks
                        ),
                    )
                    session.chunks.clear()  # delivered: nothing reads them again
                elif isinstance(event, Failed):
                    error = event.error
        if result is None and error is None:
            return
        if self._tracer is not None and session.span:
            if result is not None:
                self._tracer.end(
                    session.span, status="ok",
                    bytes_received=len(result.payload),
                    sublinks=result.sublinks,
                )
            else:
                self._tracer.end(session.span, status="error")
            session.span = 0
        with self._lock:
            if result is not None:
                self.results.append(result)
            else:
                assert error is not None
                self.errors.append(error)
            # the entry stays findable for the session's late sublinks;
            # only the oldest finished one is dropped
            self._finished.append(session.header.session_id)
            if len(self._finished) > FINISHED_KEPT:
                self._sessions.pop(self._finished.popleft(), None)
            self._done.notify_all()
        if result is not None and self.on_session is not None:
            self.on_session(result)

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block the caller until ``count`` sessions completed."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count, timeout=timeout
            )


class StripedThreadedServer(StripedEngine, ThreadedService):
    """Accepts framed striped sessions; reassembles and verifies.

    Sublinks carrying the same session id feed one shared
    :class:`~repro.lsl.core.StripeAssembler` under a per-session lock;
    ``on_session(result)`` runs on whichever sublink thread completes
    the stream.
    """

    _thread_prefix = "lsl-striped-srv"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[StripedResult], None]] = None,
        observer: Optional[ProtocolObserver] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        StripedEngine.__init__(self, on_session, observer, tracer)
        ThreadedService.__init__(self, host, port)
