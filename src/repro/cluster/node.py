"""A depot worker that terminates last-hop sessions against the store.

``lsd`` proper is a stateless relay: header in, next hop dialed, pumps
until EOF. A :class:`ClusterNode` does exactly that for intermediate-
hop sublinks — but when the header addresses *it* as the final hop, it
terminates the session the way an LSL server would (receiver state,
negotiated resume, end-to-end MD5), with one difference that makes the
cluster work: the durable half of the session lives in the shared
:class:`~repro.cluster.store.SessionStore`, not in this process.

Received payload is checkpointed to the store's spool every
``checkpoint_bytes`` (and fully on suspend), so after this worker is
SIGKILLed a rebind landing on *any* worker can grant the spooled
length and rebuild the receiver — running MD5 included — by re-feeding
the spool. The digest is never serialized; the spooled bytes are its
only portable representation.

:class:`_TerminalSession` is the driver-agnostic bookkeeping shared
with the asyncio worker (:mod:`repro.cluster.anode`): everything but
the socket reads. Store calls inside it are short blocking operations
(bounded by checkpoint batching); the asyncio driver accepts them
in-loop for the same reason it accepts blocking DNS in tests —
micro-milliseconds against a 64 KiB read cadence.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, List, Optional, Union

from repro.lsl.core import (
    Chunk,
    Completed,
    Deliver,
    EOF_COMPLETE,
    EOF_SUSPEND,
    Failed,
    FramedReceiver,
    HeaderAccumulator,
    PayloadReceiver,
    ProtocolObserver,
    RejectSession,
    RelayCore,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.lsl.core.wire import LslHeader
from repro.lsl.errors import ProtocolError
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreDecision,
    StoreSessionAcceptor,
)
from repro.cluster.store import SessionStore
from repro.sockets.lsd import ThreadedDepot
from repro.sockets.server import SessionResult
from repro.sockets.wire import CHUNK
from repro.telemetry.tracing import TraceSpool

#: Spool checkpoint granularity: how much received payload a worker
#: may hold un-checkpointed. Smaller = finer resume offsets after a
#: crash but more store round-trips; 256 KiB keeps the store off the
#: per-read hot path while bounding client re-send after failover.
DEFAULT_CHECKPOINT_BYTES = 256 * 1024


class _TerminalSession:
    """Driver-agnostic state for one store-backed terminal session."""

    def __init__(
        self,
        store: SessionStore,
        worker: str,
        header: LslHeader,
        decision: StoreDecision,
        observer: Optional[ProtocolObserver],
        checkpoint_bytes: int,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        self.store = store
        self.worker = worker
        self.header = header
        self.session_id = header.session_id
        self.epoch = decision.record.epoch
        self.reply = decision.reply
        self.checkpoint_bytes = checkpoint_bytes
        self.takeover = (
            isinstance(decision, StoreAcceptResume) and decision.takeover
        )
        self.tracer = tracer if header.trace is not None else None
        self.span = 0
        if self.tracer is not None:
            tctx = header.trace
            assert tctx is not None
            self.span = self.tracer.begin(
                "server.session",
                tctx.trace_id,
                tctx.parent_span,
                session=header.short_id,
                worker=worker,
                rebind=header.rebind,
                hop=tctx.hop,
            )
            if isinstance(decision, StoreAcceptResume):
                self.tracer.instant(
                    "server.resume-grant", tctx.trace_id, self.span,
                    granted=decision.prefix_length,
                    takeover=decision.takeover,
                )
        receiver: Union[PayloadReceiver, FramedReceiver]
        if header.framed:
            receiver = FramedReceiver(header, observer)
        else:
            receiver = PayloadReceiver(header, observer)
        self.receiver = receiver
        self.chunks: List[bytes] = []
        self.pending = bytearray()
        self.digest_ok: Optional[bool] = None
        self.completed = False
        self.ownership_lost = False
        if isinstance(decision, StoreAcceptResume) and decision.prefix_length:
            self._prime(store.payload(self.session_id))

    def _prime(self, prefix: bytes) -> None:
        """Rebuild receiver state (offset + MD5) from the spool.

        Framed sessions prime the *inner* payload receiver directly:
        the spool holds decoded payload, not frames, and the new
        sublink starts a fresh frame stream at the granted offset.
        """
        inner = (
            self.receiver.inner
            if isinstance(self.receiver, FramedReceiver)
            else self.receiver
        )
        for event in inner.feed([Chunk.real(prefix)]):
            if isinstance(event, Deliver):
                assert event.chunk.data is not None
                self.chunks.append(event.chunk.data)

    @property
    def finished(self) -> bool:
        return self.receiver.finished or self.ownership_lost

    # -- live bytes --------------------------------------------------------

    def ingest(self, data: bytes) -> None:
        """Feed sublink bytes; checkpoints and completes as it goes.

        Raises the receiver's error on protocol/digest failure (the
        store record is closed first so the id cannot be resumed).
        """
        for event in self.receiver.feed([Chunk.real(data)]):
            if isinstance(event, Deliver):
                if event.chunk.data is None:
                    raise ProtocolError("virtual bytes over a real socket")
                self.chunks.append(event.chunk.data)
                self.pending.extend(event.chunk.data)
            elif isinstance(event, Completed):
                self._complete(event.digest_ok)
            elif isinstance(event, Failed):
                self.store.finish(
                    self.session_id, self.worker, self.epoch, time.time()
                )
                raise event.error
        if (
            not self.receiver.finished
            and len(self.pending) >= self.checkpoint_bytes
        ):
            self.flush()

    def flush(self) -> bool:
        """Checkpoint pending payload; False when ownership was lost."""
        if self.ownership_lost:
            return False
        if not self.pending:
            return True
        cas_span = self._begin_cas("append", bytes=len(self.pending))
        total = self.store.append_payload(
            self.session_id,
            self.worker,
            self.epoch,
            bytes(self.pending),
            time.time(),
        )
        self.pending.clear()
        if total is None:
            # a takeover claimed the session away from us: abandon the
            # sublink; the new owner serves the session from the spool
            self._end_cas(cas_span, "lost")
            self.ownership_lost = True
            return False
        self._end_cas(cas_span, "ok")
        return True

    def on_eof(self) -> str:
        """Classify a clean FIN; returns the session status."""
        disposition = self.receiver.feed_eof()
        if disposition == EOF_SUSPEND:
            # park the session in the store for a rebind — on this
            # worker or any other
            if not self.flush():
                return "suspended"
            self.store.touch(
                self.session_id, self.worker, self.epoch, time.time()
            )
            return "suspended"
        if disposition == EOF_COMPLETE:
            # stream-until-FIN: EOF is the completion signal
            self._complete(self.receiver.digest_ok)
        return "completed" if self.completed else "failed"

    def _complete(self, digest_ok: Optional[bool]) -> None:
        cas_span = self._begin_cas("finish")
        if not self.store.finish(
            self.session_id, self.worker, self.epoch, time.time()
        ):
            self._end_cas(cas_span, "lost")
            self.ownership_lost = True
            return
        self._end_cas(cas_span, "ok")
        self.digest_ok = digest_ok
        self.completed = True

    # -- tracing -----------------------------------------------------------

    def _begin_cas(self, op: str, **attrs: object) -> int:
        """Open a ``store.cas`` span around an owner-epoch store call."""
        if self.tracer is None:
            return 0
        assert self.header.trace is not None
        return self.tracer.begin(
            "store.cas", self.header.trace.trace_id, self.span,
            op=op, **attrs,
        )

    def _end_cas(self, cas_span: int, status: str) -> None:
        if cas_span and self.tracer is not None:
            self.tracer.end(cas_span, status=status)

    def finish_trace(self, status: str) -> None:
        """Close the ``server.session`` span with the driver's final
        session status (``completed`` / ``suspended`` / anything else =
        error); safe to call untraced or twice."""
        if self.tracer is None or not self.span:
            return
        assert self.header.trace is not None
        trace_id = self.header.trace.trace_id
        received = self.receiver.payload_received
        if status == "completed":
            trace_status = (
                "ok" if self.digest_ok in (None, True) else "digest-failed"
            )
        elif status == "suspended":
            self.tracer.instant(
                "server.suspend", trace_id, self.span,
                bytes_received=received,
            )
            trace_status = "suspended"
        else:
            trace_status = "error"
        self.tracer.end(
            self.span, status=trace_status, bytes_received=received,
        )
        self.span = 0

    def result(self, rebinds: int) -> SessionResult:
        return SessionResult(
            session_id=self.session_id,
            payload=b"".join(self.chunks),
            digest_ok=self.digest_ok,
            route_len=len(self.header.route),
            rebinds=rebinds,
        )


class ClusterNode(ThreadedDepot):
    """Thread-per-connection depot worker with terminal sessions.

    Intermediate-hop sublinks are relayed exactly like the base depot;
    last-hop sublinks are terminated against ``store``. ``worker`` is
    the node's identity in the store (ownership stamps, counter
    publication). With ``session_ttl`` set, a sweeper thread expires
    idle stored sessions — the sweep is store-global and safe to run
    on every worker; each expired session is reported by exactly one.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: SessionStore,
        worker: str,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        session_ttl: Optional[float] = None,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        reply: Optional[bytes] = None,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        if checkpoint_bytes <= 0:
            raise ValueError("checkpoint_bytes must be positive")
        # subclass state first: the accept thread super().__init__
        # starts may deliver a session before this frame returns
        self._store = store
        self.worker = worker
        self._acceptor = StoreSessionAcceptor(store, worker, observer)
        self._session_ttl = session_ttl
        self._checkpoint_bytes = checkpoint_bytes
        self.reply = reply
        self.on_session = on_session
        self.results: List[SessionResult] = []
        self._results_lock = threading.Lock()
        self._done = threading.Condition(self._results_lock)
        super().__init__(
            host,
            port,
            observer=observer,
            connect_timeout=connect_timeout,
            reuse_port=reuse_port,
            listener=listener,
            tracer=tracer,
        )
        if session_ttl is not None:
            threading.Thread(
                target=self._sweep_loop,
                name=f"cluster-sweep-{self.address[1]}",
                daemon=True,
            ).start()

    # -- TTL sweep ---------------------------------------------------------

    def _sweep_loop(self) -> None:
        ttl = self._session_ttl
        assert ttl is not None
        while not self._shutdown.wait(min(ttl / 4.0, 1.0)):
            try:
                expired = self._store.sweep(time.time(), ttl)
            except (OSError, ValueError, TimeoutError):
                continue  # store hiccup; retry next tick
            if expired:
                self.counters.add(sessions_expired=len(expired))
                for record in expired:
                    emit(self._observer, "session-expired",
                         record.session_id.hex()[:8],
                         bytes_received=record.bytes_received)

    # -- sessions ----------------------------------------------------------

    def _session(self, upstream: socket.socket) -> None:
        status = "failed"
        short_id = ""
        self._track(upstream)
        try:
            acc = HeaderAccumulator()
            header: Optional[LslHeader] = None
            while header is None:
                data = upstream.recv(CHUNK)
                if not data:
                    raise ProtocolError("upstream closed during header phase")
                header = acc.feed(data)
            short_id = header.short_id
            if header.is_last_hop:
                status = self._terminal(upstream, header, acc.surplus)
            else:
                # relay: re-feed the canonical header bytes into the
                # same machine the base depot drives (the codec is
                # byte-exact, so the depot cannot tell the difference)
                core = RelayCore(observer=self._observer)
                decision = core.feed(
                    [Chunk.real(header.encode()), Chunk.real(acc.surplus)]
                )
                assert decision is not None  # full header was fed
                if isinstance(decision, RelayReject):
                    raise decision.error
                self._relay(upstream, decision)
                status = "completed"
        except Exception as exc:
            emit(self._observer, "relay-failed", short_id,
                 reason=f"{type(exc).__name__}: {exc}")
        finally:
            if status == "completed":
                self.counters.session_ended(True)
            elif status == "suspended":
                self.counters.session_suspended()
            else:
                self.counters.session_ended(False)
            self._untrack(upstream)
            try:
                upstream.close()
            except OSError:
                pass

    def _terminal(
        self, upstream: socket.socket, header: LslHeader, surplus: bytes
    ) -> str:
        decision = self._acceptor.decide(header, time.time())
        if isinstance(decision, RejectSession):
            raise decision.error
        if (
            isinstance(decision, StoreAcceptResume)
            and decision.takeover
        ):
            self.counters.add(takeovers=1)
        term = _TerminalSession(
            self._store,
            self.worker,
            header,
            decision,
            self._observer,
            self._checkpoint_bytes,
            tracer=self._tracer,
        )
        status = "failed"
        try:
            if term.reply:
                upstream.sendall(term.reply)
            if surplus:
                term.ingest(surplus)
            while not term.finished:
                try:
                    data = upstream.recv(CHUNK)
                except OSError:
                    # sublink reset mid-payload: park what we have
                    term.flush()
                    status = "suspended"
                    return status
                if not data:
                    status = term.on_eof()
                    break
                term.ingest(data)
            else:
                status = "completed" if term.completed else "suspended"
            if term.completed:
                if self.reply is not None:
                    upstream.sendall(self.reply)
                result = term.result(rebinds=decision.record.rebinds)
                with self._results_lock:
                    self.results.append(result)
                    self._done.notify_all()
                if self.on_session is not None:
                    self.on_session(result)
                return "completed"
            return status
        finally:
            term.finish_trace(status)

    # -- observability -----------------------------------------------------

    def publish_counters(self) -> None:
        """Push this worker's counter snapshot into the shared store."""
        self._store.publish_counters(self.worker, self.counters.snapshot())

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block until ``count`` terminal sessions completed here."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count, timeout=timeout
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
