"""Striped multipath LSL over real sockets.

The same sans-I/O machines that power the simulator's striped sessions
(:mod:`repro.lsl.core.striping`), once for both real-socket drivers.

**Server side.** :class:`StripedTerminalEngine` is the terminal engine
(:mod:`repro.sockets.terminal`) whose sessions hold a shared
:class:`~repro.lsl.core.StripeAssembler`: each accepted socket gets the
shared ``TerminalSublink``, and a framed header *joins* its session
under a key of its own instead of displacing the sublink attached to
it. The header phase, ``errors`` and the ``wait_for_sessions`` that
wakes for a failure, the ``server.session`` span, the result, the
bounded session table and ``expose`` are the engine's.
:class:`StripedThreadedServer` adds the
:class:`~repro.sockets.wire.ThreadedService` chassis and
:class:`repro.asockets.striped.AsyncStripedServer` the event loop's.

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
from dataclasses import dataclass, field
from queue import SimpleQueue
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.lsl.core import (
    ChunkLike,
    LslHeader,
    ProtocolObserver,
    Redundancy,
    RouteHop,
    SessionRegistry,
    StripeAssembler,
    StripeScheduler,
    TraceContext,
    parse_redundancy,
)
from repro.lsl.core.striping import DEFAULT_STRIPE, Assignment
from repro.lsl.core.errors import LslError, ProtocolError, RouteError
from repro.lsl.core.session import new_session_id
from repro.telemetry.tracing import TraceSpool, new_trace_id
from repro.sockets import workers
from repro.sockets.terminal import SessionResult, TerminalEngine, TerminalSublink
from repro.sockets.terminal import _LiveSession
from repro.sockets.wire import ThreadedService, dial


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

    ``timeout`` bounds each sublink's dial only: a sublink that drains
    slowly but steadily is paced, not failed.

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
            sock = dial(hop, timeout)
            sock.settimeout(None)  # bounds the dial, not each stripe's send
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

    # the pool keeps no completion signal: each sublink posts its own
    ended: "SimpleQueue[int]" = SimpleQueue()

    def sublink(index: int) -> None:
        try:
            run_sublink(index)
        finally:
            ended.put(index)

    for index in range(len(send.routes)):
        workers.run(sublink, index)
    for _ in send.routes:
        ended.get()
    return send.report()


# -- server side ---------------------------------------------------------------


@dataclass
class StripedResult(SessionResult):
    """Outcome of one completed striped session (server side)."""

    sublinks: int = 0
    duplicate_bytes: int = 0
    reconstructed_blocks: int = 0


class _StripedLiveSession(_LiveSession):
    """A session whose sublinks all feed one assembler, each under its
    link as key. A sublink that ends degrades the session and never
    suspends it; every one drains to its own EOF, since closing one with
    redundant copies unread would reset a peer still mid-send.

    Reassembly is bounded by pausing the links the assembler says are
    :meth:`~repro.lsl.core.StripeAssembler.held` (``held`` lists them)
    and resuming each once it no longer is; a link's ``pause`` and
    ``resume`` never call back into its owner."""

    __slots__ = ("header", "sublinks", "held")

    drain = True

    def __init__(self, engine: TerminalEngine, header: LslHeader, link: Any) -> None:
        _LiveSession.__init__(self, engine, header, None)
        self.header = header
        self.sublinks = 0  # joined before the session ended
        self.held: List[Any] = []

    def _receiver(self, header: LslHeader, observer: Any) -> StripeAssembler:
        return StripeAssembler(
            header.payload_length, use_digest=header.digest,
            observer=observer, session=header.short_id,
        )

    def feed(self, link: Any, chunks: List[ChunkLike]) -> List[Any]:
        receiver = self.receiver
        events = receiver.feed(link, chunks)  # nothing once ended
        if self.held:
            self._release()
        if receiver.held(link):
            link.pause()
            self.held.append(link)
        return events

    def _release(self) -> None:
        """Resume every held link the assembler no longer holds."""
        held, self.held = self.held, []
        for link in held:
            if self.receiver.held(link):
                self.held.append(link)
            else:
                link.resume()

    def feed_eof(self, link: Any) -> None:
        # a torn frame is fine: redundancy or a re-deal covers the range
        self.receiver.sublink_closed(link)
        self._release()

    def reset(self, link: Any) -> bool:
        self.receiver.sublink_closed(link)
        self._release()
        return False

    def result(self, payload: bytes, digest_ok: Optional[bool]) -> StripedResult:
        return StripedResult(
            self.session_id, payload, digest_ok, len(self.header.route),
            sublinks=self.sublinks,
            duplicate_bytes=self.receiver.duplicate_bytes,
            reconstructed_blocks=self.receiver.reconstructed_blocks,
        )


class StripedTerminalEngine(TerminalEngine):
    """The terminal engine of striped sessions (mix in before a
    chassis, with no reply and no TTL): a header joins its session."""

    _session_cls = _StripedLiveSession
    _span_attrs = {"striped": True}

    def _accepting(self) -> None:
        self.registry = SessionRegistry()  # joined by id: no acceptor

    def _attach(self, sublink: TerminalSublink, link: Any, header: LslHeader) -> None:
        if not header.is_last_hop or not header.framed:
            raise ProtocolError("unframed or mis-routed striped sublink")
        with self._lock:
            record = self.registry.get(header.session_id)
            if record is None:
                live = self._session_cls(self, header, link)
                self.registry.create(header.session_id, self._now()).attachment = live
                self._begin_span(live, header)
            else:
                live = record.attachment
                if live.header.payload_length != header.payload_length:
                    raise ProtocolError("sublink disagrees on payload length")
        with live.lock:
            live.receiver.attach(link)
            if not live.receiver.finished:
                live.sublinks += 1
        sublink.live = live

    def _end_span(self, live: Any, status: str, **attrs: Any) -> None:
        TerminalEngine._end_span(self, live, status, sublinks=live.sublinks, **attrs)


class StripedThreadedServer(StripedTerminalEngine, ThreadedService):
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
        StripedTerminalEngine.__init__(
            self, on_session, observer=observer, tracer=tracer
        )
        ThreadedService.__init__(self, host, port)
