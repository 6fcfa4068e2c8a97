"""Striped multipath LSL over real sockets (threaded driver).

The same sans-I/O machines that power the simulator's striped
sessions (:mod:`repro.lsl.core.striping`) driven by one pooled worker
(:mod:`repro.sockets.workers`) per sublink: the client workers pull assignments from a shared, lock-
guarded :class:`~repro.lsl.core.StripeScheduler` — blocking
``sendall`` is the demand pacing, so fast paths naturally pull more
stripes — and the server groups framed sublinks by session id into a
shared :class:`~repro.lsl.core.StripeAssembler`.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.lsl.core.striping import DEFAULT_STRIPE
from repro.lsl.errors import LslError, ProtocolError, RouteError
from repro.lsl.session import new_session_id
from repro.telemetry.tracing import TraceSpool, new_trace_id
from repro.sockets import workers
from repro.sockets.lsd import (
    _ACCEPT_RETRY_DELAY_S,
    _FATAL_ACCEPT_ERRNOS,
    LISTEN_BACKLOG,
)
from repro.sockets.wire import CHUNK, read_header


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


class _StripedSession:
    """Server-side shared state for one striped session."""

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
        self.socks: List[socket.socket] = []
        self.span = 0  # server.session trace span, when traced


def _normalize_routes(
    routes: Sequence[Sequence[Tuple[str, int]]],
) -> List[Tuple[RouteHop, ...]]:
    if not routes:
        raise RouteError("need at least one route")
    return [tuple(RouteHop(h, p) for h, p in route) for route in routes]


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
    hop_routes = _normalize_routes(routes)
    if isinstance(redundancy, str):
        redundancy = parse_redundancy(redundancy)
    sid = session_id if session_id is not None else new_session_id(
        rng or random.Random()
    )
    session_span = 0
    if tracer is not None:
        if trace_id is None:
            trace_id = new_trace_id(rng)
        session_span = tracer.begin(
            "client.session",
            trace_id,
            parent=trace_parent,
            session=sid.hex()[:8],
            routes=[[str(RouteHop(h, p)) for h, p in r] for r in routes],
            striped=True,
        )
    scheduler = StripeScheduler(
        len(payload),
        data=payload,
        stripe_bytes=stripe_bytes,
        redundancy=redundancy,
        use_digest=digest,
        observer=observer,
        session=sid.hex()[:8],
    )
    lock = threading.Lock()
    errors: List[Exception] = []
    sent_bytes = [0] * len(hop_routes)

    def run_sublink(index: int, route: Tuple[RouteHop, ...]) -> None:
        key = f"sub{index}"
        dial_span = 0
        if tracer is not None:
            assert trace_id is not None
            dial_span = tracer.begin(
                "client.dial", trace_id, session_span,
                hop=str(route[0]), sublink=key,
            )
        header = LslHeader(
            session_id=sid,
            route=route,
            hop_index=0,
            payload_length=len(payload),
            digest=digest,
            sync=False,  # framed joins are asynchronous by design
            framed=True,
            trace=(
                TraceContext(trace_id, dial_span, 0)
                if tracer is not None and trace_id is not None
                else None
            ),
        )
        with lock:
            scheduler.add_sublink(key)
        sock: Optional[socket.socket] = None
        try:
            sock = socket.create_connection(
                (route[0].host, route[0].port), timeout=timeout
            )
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span)
                dial_span = 0
            if sndbuf is not None:
                # shrink the send buffer so demand pacing engages even
                # on loopback (kernel memory otherwise swallows whole
                # payloads before slower sublinks pull their share)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
            sock.sendall(header.encode())
            while True:
                with lock:
                    assignment = scheduler.next_assignment(key)
                if assignment is None:
                    with lock:
                        scheduler.sublink_finished(key)
                    sock.shutdown(socket.SHUT_WR)
                    return
                body = assignment.payload if assignment.payload is not None else b""
                # blocking sendall is the demand pacing: while this
                # thread drains into a slow path, the other sublinks
                # pull the remaining stripes
                sock.sendall(assignment.frame_header() + body)
                assignment.header_sent = True
                assignment.sent = assignment.length
                if assignment.kind == "data":
                    sent_bytes[index] += assignment.length
        except OSError as exc:
            with lock:
                scheduler.sublink_lost(key, exc)
                errors.append(exc)
        finally:
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span, status="error")
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass

    sublinks = [
        workers.run(run_sublink, i, route)
        for i, route in enumerate(hop_routes)
    ]
    for done in sublinks:
        done.wait()
    if tracer is not None and session_span:
        tracer.end(
            session_span,
            status="error" if scheduler.failed is not None else "ok",
            bytes=sum(sent_bytes),
            redeals=scheduler.redeals,
        )
    if scheduler.failed is not None:
        raise LslError(f"striped send failed: {scheduler.failed}")
    return StripedSendReport(
        session_id=sid,
        per_sublink_bytes=sent_bytes,
        redundant_stripes=scheduler.redundant_stripes,
        redeals=scheduler.redeals,
        sublink_errors=errors,
    )


class StripedThreadedServer:
    """Accepts framed striped sessions; reassembles and verifies.

    Sublinks carrying the same session id feed one shared
    :class:`~repro.lsl.core.StripeAssembler` under a per-session lock;
    ``on_session(result)`` runs on whichever sublink thread completes
    the stream.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[StripedResult], None]] = None,
        observer: Optional[ProtocolObserver] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self._tracer = tracer
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(LISTEN_BACKLOG)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self.on_session = on_session
        self._observer = observer
        self.results: List[StripedResult] = []
        self.errors: List[Exception] = []
        self._sessions: Dict[bytes, _StripedSession] = {}
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._shutdown = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"lsl-striped-srv-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()

    # -- accept loop -----------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError as exc:
                if self._shutdown.is_set():
                    return
                if exc.errno in _FATAL_ACCEPT_ERRNOS:
                    return
                self._shutdown.wait(_ACCEPT_RETRY_DELAY_S)
                continue
            workers.run(self._drive, conn)

    def _drive(self, conn: socket.socket) -> None:
        try:
            header, surplus = read_header(conn)
        except ProtocolError as exc:
            with self._lock:
                self.errors.append(exc)
            conn.close()
            return
        if not header.is_last_hop or not header.framed:
            with self._lock:
                self.errors.append(
                    ProtocolError("unframed or mis-routed striped sublink")
                )
            conn.close()
            return
        with self._lock:
            session = self._sessions.get(header.session_id)
            if session is None:
                try:
                    session = _StripedSession(header, self._observer)
                except ProtocolError as exc:
                    self.errors.append(exc)
                    conn.close()
                    return
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
                self.errors.append(
                    ProtocolError("sublink disagrees on payload length")
                )
                conn.close()
                return
        with session.lock:
            key = f"sub{session.sublinks}"
            session.sublinks += 1
            session.assembler.attach(key)
            session.socks.append(conn)
        try:
            if surplus:
                self._feed(session, key, surplus)
            while True:
                data = conn.recv(CHUNK)
                if not data:
                    break
                if session.assembler.finished:
                    if session.assembler.failed is not None:
                        break
                    # completed: drain to EOF instead of closing with
                    # unread redundant copies in the buffer — that
                    # close would RST a peer still mid-send, and the
                    # sender would count a healthy sublink as lost
                    continue
                self._feed(session, key, data)
        except OSError:
            pass  # a dead sublink is a degradation, not a failure
        finally:
            with session.lock:
                session.assembler.sublink_closed(key)
            try:
                conn.close()
            except OSError:
                pass

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
        if result is not None:
            if self._tracer is not None and session.span:
                self._tracer.end(
                    session.span, status="ok",
                    bytes_received=len(result.payload),
                    sublinks=result.sublinks,
                )
                session.span = 0
            with self._lock:
                self.results.append(result)
                self._done.notify_all()
            if self.on_session is not None:
                self.on_session(result)
        if error is not None:
            if self._tracer is not None and session.span:
                self._tracer.end(session.span, status="error")
                session.span = 0
            with self._lock:
                self.errors.append(error)
                self._done.notify_all()

    # -- public surface --------------------------------------------------

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count
                or self._shutdown.is_set(),
                timeout=timeout,
            ) and len(self.results) >= count

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._lock:
            sessions = list(self._sessions.values())
            self._done.notify_all()
        for session in sessions:
            for sock in session.socks:
                try:
                    sock.close()
                except OSError:
                    pass
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "StripedThreadedServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
