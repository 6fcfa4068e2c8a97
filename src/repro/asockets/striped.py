"""Striped multipath LSL over asyncio sockets.

The asyncio twin of :mod:`repro.sockets.striped`: the same
:class:`~repro.lsl.core.StripeScheduler` /
:class:`~repro.lsl.core.StripeAssembler` machines on one event loop —
the sender as one task per sublink, the server as one read callback
per sublink (no task). Because everything runs on that loop, the
threaded driver's scheduler/assembler locks disappear — nothing else
can touch the shared machine meanwhile — and the sender's demand
pacing falls out of ``sock_sendall``: a task awaiting a slow path's
send buffer simply yields the loop to the sublinks that can still
make progress.
"""

from __future__ import annotations

import random
import socket
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import asyncio

from repro.lsl.core import (
    Completed,
    Deliver,
    Failed,
    ProtocolObserver,
    Redundancy,
    StripeAssembler,
    StripeScheduler,
    parse_redundancy,
)
from repro.lsl.core import TraceContext
from repro.lsl.core.striping import DEFAULT_STRIPE
from repro.lsl.errors import LslError, ProtocolError
from repro.lsl.header import HeaderAccumulator, LslHeader
from repro.lsl.session import new_session_id
from repro.telemetry.tracing import TraceSpool, new_trace_id
from repro.asockets.runtime import AsyncLoopService, Endpoint, connect_by
from repro.sockets.striped import (
    StripedResult,
    StripedSendReport,
    _normalize_routes,
)


async def send_striped(
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
    """Send ``payload`` striped across ``routes`` (one task each).

    Same contract as the threaded
    :func:`repro.sockets.striped.send_striped`: raises
    :class:`LslError` only when no surviving sublink can complete
    coverage; individual failures degrade and land in
    ``sublink_errors``. With ``tracer`` set, the whole send is one
    ``client.session`` span and each sublink header carries the trace
    context parented to its ``client.dial`` span.
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
            routes=[[f"{h.host}:{h.port}" for h in r] for r in hop_routes],
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
    loop = asyncio.get_running_loop()
    errors: List[Exception] = []
    sent_bytes = [0] * len(hop_routes)

    async def run_sublink(index: int, route) -> None:
        key = f"sub{index}"
        scheduler.add_sublink(key)
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
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if sndbuf is not None:
            # shrink the send buffer so demand pacing engages even on
            # loopback (otherwise the first task can drain the whole
            # scheduler into kernel memory before the others connect)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        try:
            await connect_by(sock, (route[0].host, route[0].port), timeout)
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span)
                dial_span = 0
            await loop.sock_sendall(sock, header.encode())
            while True:
                assignment = scheduler.next_assignment(key)
                if assignment is None:
                    scheduler.sublink_finished(key)
                    sock.shutdown(socket.SHUT_WR)
                    return
                body = (
                    assignment.payload
                    if assignment.payload is not None
                    else b""
                )
                # awaiting the send buffer IS the demand pacing: a
                # task stuck on a slow path yields to the sublinks
                # that can still pull stripes
                await loop.sock_sendall(
                    sock, assignment.frame_header() + body
                )
                assignment.header_sent = True
                assignment.sent = assignment.length
                if assignment.kind == "data":
                    sent_bytes[index] += assignment.length
        except (OSError, asyncio.TimeoutError) as exc:
            scheduler.sublink_lost(key, exc)
            errors.append(exc)
        finally:
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span, status="error")
            try:
                sock.close()
            except OSError:
                pass

    await asyncio.gather(
        *(run_sublink(i, route) for i, route in enumerate(hop_routes))
    )
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


class _AsyncStripedSession:
    """Loop-confined shared state for one striped session."""

    __slots__ = ("header", "assembler", "chunks", "sublinks", "span")

    def __init__(
        self, header: LslHeader, observer: Optional[ProtocolObserver]
    ) -> None:
        self.span = 0  # server.session trace span, when traced
        self.header = header
        self.assembler = StripeAssembler(
            header.payload_length,
            use_digest=header.digest,
            observer=observer,
            session=header.short_id,
        )
        self.chunks: List[bytes] = []
        self.sublinks = 0


class _StripedSublink:
    """One accepted sublink: header phase, then the shared assembler."""

    __slots__ = ("server", "acc", "session", "key")

    def __init__(self, server: "AsyncStripedServer") -> None:
        self.server = server
        self.acc = HeaderAccumulator()
        self.session: Optional[_AsyncStripedSession] = None
        self.key = ""

    def received(self, ep: Endpoint, data: bytes) -> None:
        try:
            if self.session is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self._join(header)
                data = self.acc.surplus
            assembler = self.session.assembler
            if assembler.failed is not None:
                self.ended(ep)
            elif data:
                # once completed this only drains to EOF: closing with
                # unread redundant copies in the buffer would RST a
                # peer still mid-send, and the sender would count a
                # healthy sublink as lost
                self.server._feed(self.session, self.key, data)
        except Exception as exc:
            with self.server._lock:
                self.server.errors.append(exc)
            self.ended(ep)

    def _join(self, header: LslHeader) -> None:
        server = self.server
        if not header.is_last_hop or not header.framed:
            raise ProtocolError("unframed or mis-routed striped sublink")
        session = server._striped.get(header.session_id)
        if session is None:
            session = _AsyncStripedSession(header, server._observer)
            if server._tracer is not None and header.trace is not None:
                session.span = server._tracer.begin(
                    "server.session",
                    header.trace.trace_id,
                    header.trace.parent_span,
                    session=header.short_id,
                    striped=True,
                    hop=header.trace.hop,
                )
            server._striped[header.session_id] = session
        elif session.header.payload_length != header.payload_length:
            raise ProtocolError("sublink disagrees on payload length")
        self.session = session
        self.key = f"sub{session.sublinks}"
        session.sublinks += 1
        session.assembler.attach(self.key)

    def ended(self, ep: Endpoint) -> None:
        if self.session is not None:
            self.session.assembler.sublink_closed(self.key)
        ep.close()

    def broken(self, ep: Endpoint, exc: BaseException) -> None:
        self.ended(ep)  # a dead sublink degrades, it doesn't fail


class AsyncStripedServer(AsyncLoopService):
    """Accepts framed striped sessions on one event loop.

    Sublinks carrying the same session id feed one shared
    :class:`~repro.lsl.core.StripeAssembler`; no per-session lock is
    needed because every sublink callback runs on the loop. Public surface
    (``results``, ``errors``, ``wait_for_sessions``, context manager)
    mirrors :class:`~repro.sockets.striped.StripedThreadedServer`.
    """

    _thread_prefix = "alsl-striped"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[StripedResult], None]] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.on_session = on_session
        self._observer = observer
        self._tracer = tracer
        self.results: List[StripedResult] = []
        self.errors: List[Exception] = []
        self._striped: Dict[bytes, _AsyncStripedSession] = {}
        self._lock = threading.Lock()  # results/errors cross-thread reads
        self._done = threading.Condition(self._lock)
        super().__init__(host, port, drain_timeout=drain_timeout)

    def _open(self, sock: socket.socket) -> None:
        Endpoint(self, sock, _StripedSublink(self))

    def _feed(
        self, session: _AsyncStripedSession, key: str, data: bytes
    ) -> None:
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
            elif isinstance(event, Failed):
                if self._tracer is not None and session.span:
                    self._tracer.end(session.span, status="error")
                    session.span = 0
                with self._lock:
                    self.errors.append(event.error)

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` sessions finished."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count, timeout=timeout
            )
