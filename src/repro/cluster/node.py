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

A process whose worker suspended a session needs no portable form: the
worker parks the suspended :class:`_TerminalSession` — receiver and
running MD5 as they stand — in one process-wide table of at most
:data:`PARKED_SESSIONS`, oldest dropped first. Any worker of the
process that the store then grants the rebind to adopts that session
and reads nothing back, when the grant is exactly what was parked: the
same store handle, the very next epoch, the parked offset, the same
framing. The adopter stamps the session with its own worker id (the
owner its store writes quote), checkpoint size and tracer. Any other
rebind (a claim in between, another store, an entry already dropped, a
rebind in another process) re-feeds the spool, so a miss costs only
time. A worker that shuts down, or is killed, takes its entries out of
the table and parks nothing after, so a crashed worker's memory never
serves a resume: the survivor takes the spool path a real SIGKILL
leaves it.

Everything here but :class:`ClusterNode` itself is shared with the
asyncio worker (:mod:`repro.cluster.anode`): :class:`_TerminalSession`
(the store-backed bookkeeping), :class:`NodeSublink` (one accepted
sublink, run from a ``recv`` loop here and from a read callback there,
which hands an intermediate-hop link to the depot's
:class:`~repro.sockets.lsd.RelaySession` by making it the link's owner)
and :class:`StoreNode` (the worker's state, ``_open``, sweep, counters,
and a shutdown that retires it from the parked-session table).
:class:`ClusterNode` is that over
:class:`~repro.sockets.lsd.ThreadedDepot` — a constructor. Store
calls are short blocking operations (bounded by checkpoint batching);
the asyncio driver accepts them in-loop for the same reason it accepts
blocking DNS in tests — micro-milliseconds against a 64 KiB read
cadence.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

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
)
from repro.lsl.core.events import emit
from repro.lsl.core.wire import LslHeader
from repro.lsl.core.errors import ProtocolError
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreDecision,
    StoreSessionAcceptor,
)
from repro.cluster.store import SessionStore
from repro.sockets.lsd import DepotCounters, RelaySession, ThreadedDepot
from repro.sockets.terminal import SessionResult
from repro.telemetry.tracing import TraceSpool

#: Spool checkpoint granularity: how much received payload a worker
#: may hold un-checkpointed. Smaller = finer resume offsets after a
#: crash but more store round-trips; 256 KiB keeps the store off the
#: per-read hot path while bounding client re-send after failover.
DEFAULT_CHECKPOINT_BYTES = 256 * 1024

#: How many suspended sessions a process keeps in memory for a rebind
#: on any of its workers. Each holds its delivered prefix, so this is
#: the bound on what parking costs: this many times the largest
#: suspended prefix, per process. A miss only costs the spool read, so
#: the oldest entry is dropped without asking anyone.
PARKED_SESSIONS = 16


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
        self.session_id = header.session_id
        self.checkpoint_bytes = checkpoint_bytes
        self._attach(header, decision, tracer)
        receiver: Union[PayloadReceiver, FramedReceiver]
        if header.framed:
            receiver = FramedReceiver(header, observer)
        else:
            receiver = PayloadReceiver(header, observer)
        self.receiver = receiver
        #: Delivered payload, in order; those from ``_spooled`` on are
        #: not in the spool yet (``_pending`` bytes of them).
        self.chunks: List[bytes] = []
        self._spooled = 0
        self._pending = 0
        self.digest_ok: Optional[bool] = None
        self.completed = False
        self.ownership_lost = False
        if isinstance(decision, StoreAcceptResume) and decision.prefix_length:
            self._prime(store.payload(self.session_id), decision.prefix_length)
            self._spooled = len(self.chunks)

    def _attach(
        self,
        header: LslHeader,
        decision: StoreDecision,
        tracer: Optional[TraceSpool],
    ) -> None:
        """Take what a sublink's header and the store's decision set:
        epoch, reply, takeover, tracing and the ``server.session`` span.
        A fresh session and a parked one resumed here both come
        through this, so the two paths trace and report alike."""
        self.header = header
        self.epoch = decision.record.epoch
        self.reply = decision.reply
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
                worker=self.worker,
                rebind=header.rebind,
                hop=tctx.hop,
            )
            if isinstance(decision, StoreAcceptResume):
                self.tracer.instant(
                    "server.resume-grant", tctx.trace_id, self.span,
                    granted=decision.prefix_length,
                    takeover=decision.takeover,
                )

    def resumes(
        self, node: "StoreNode", header: LslHeader, decision: StoreDecision
    ) -> bool:
        """Whether this parked session is exactly what ``decision`` on
        ``node`` grants: a rebind on the same store at the very next
        epoch, at the offset the receiver holds, with the same framing
        — on the parking worker or a sibling (a takeover). Anything
        else (a claim in between, another store) goes back to the
        spool."""
        return (
            isinstance(decision, StoreAcceptResume)
            and self.store is node._store
            and decision.record.epoch == self.epoch + 1
            and decision.prefix_length == self.receiver.payload_received
            and header.framed == self.header.framed
        )

    def resume(
        self, node: "StoreNode", header: LslHeader, decision: StoreDecision
    ) -> None:
        """Re-attach a parked session to a rebind that :meth:`resumes`
        on ``node``: its receiver, MD5 included, carries over as it
        stands; what belongs to the deciding worker (the owner its store
        writes quote, its checkpoint size, its tracer) comes from
        ``node``."""
        self.worker = node.worker
        self.checkpoint_bytes = node._checkpoint_bytes
        self.receiver.rebind(header)
        self._attach(header, decision, node._tracer)

    def _prime(self, prefix: bytes, length: int) -> None:
        """Rebuild receiver state (offset + MD5) from the first
        ``length`` bytes of the spool ``prefix``.

        A spool shorter than the grant fails the rebind before any
        reply. Framed sessions prime the *inner* payload receiver
        directly: the spool holds decoded payload, not frames, and the
        new sublink starts a fresh frame stream at the granted offset.
        """
        if len(prefix) < length:
            raise ProtocolError(
                f"spool holds {len(prefix)} bytes, {length} granted"
            )
        if len(prefix) > length:
            prefix = prefix[:length]
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
                self._pending += len(event.chunk.data)
            elif isinstance(event, Completed):
                self._complete(event.digest_ok)
            elif isinstance(event, Failed):
                self.store.finish(
                    self.session_id, self.worker, self.epoch, time.time()
                )
                raise event.error
        if (
            not self.receiver.finished
            and self._pending >= self.checkpoint_bytes
        ):
            self.flush()

    def flush(self) -> bool:
        """Checkpoint pending payload; False when ownership was lost."""
        if self.ownership_lost:
            return False
        if not self._pending:
            return True
        cas_span = self._begin_cas("append", bytes=self._pending)
        unspooled = b"".join(self.chunks[self._spooled :])
        self._spooled = len(self.chunks)
        self._pending = 0
        total = self.store.append_payload(
            self.session_id, self.worker, self.epoch, unspooled, time.time(),
        )
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


#: The process's parked sessions: id -> (parking worker, session).
_parked: Dict[bytes, Tuple["StoreNode", _TerminalSession]] = {}
_parked_lock = threading.Lock()


def _park(node: "StoreNode", term: _TerminalSession) -> None:
    """Keep a suspended session for a rebind on any worker of this
    process, unless ``node`` is shutting down."""
    with _parked_lock:
        if node._retired:
            return
        _parked.pop(term.session_id, None)
        _parked[term.session_id] = (node, term)
        if len(_parked) > PARKED_SESSIONS:
            del _parked[next(iter(_parked))]


def _unpark(session_id: bytes) -> Optional[_TerminalSession]:
    """Take the parked session ``session_id``, if any: every decision
    on an id ends its parking, used or not."""
    with _parked_lock:
        entry = _parked.pop(session_id, None)
    return None if entry is None else entry[1]


def _retire(node: "StoreNode") -> None:
    """Drop what ``node`` parked and let it park nothing more."""
    with _parked_lock:
        node._retired = True
        for session_id in [
            sid for sid, (owner, _) in _parked.items() if owner is node
        ]:
            del _parked[session_id]


class NodeSublink:
    """One accepted sublink: header phase, then a relay hand-over or a
    store-backed terminal session.

    Shared by both cluster nodes: it touches the transport only through
    its link (``write`` / ``close`` / ``owner``). An intermediate-hop
    sublink is handed over by making a depot
    :class:`~repro.sockets.lsd.RelaySession` the link's owner, which
    accounts for the session from then on.
    """

    __slots__ = ("node", "acc", "term", "short_id", "rebinds", "lock", "done")

    def __init__(self, node: "StoreNode") -> None:
        self.node = node
        self.acc = HeaderAccumulator()
        self.term: Optional[_TerminalSession] = None
        self.short_id = ""
        self.rebinds = 0
        self.lock = threading.Lock()
        self.done = False

    def _terminal(self, header: LslHeader) -> _TerminalSession:
        node = self.node
        decision = node._acceptor.decide(header, time.time())
        parked = _unpark(header.session_id)
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, StoreAcceptResume) and decision.takeover:
            node.counters.add(takeovers=1)
        self.rebinds = decision.record.rebinds
        if parked is not None and parked.resumes(node, header, decision):
            parked.resume(node, header, decision)
            return parked
        return _TerminalSession(
            node._store,
            node.worker,
            header,
            decision,
            node._observer,
            node._checkpoint_bytes,
            tracer=node._tracer,
        )

    def received(self, link: Any, data: bytes) -> None:
        try:
            term = self.term
            if term is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self.short_id = header.short_id
                data = self.acc.surplus
                if not header.is_last_hop:
                    # the link changes owner: re-feed the canonical
                    # header bytes into the depot's relay (the codec is
                    # byte-exact, so it cannot tell the difference)
                    link.owner = RelaySession(self.node)
                    link.owner.received(link, header.encode() + data)
                    return
                self.term = term = self._terminal(header)
                if term.reply:
                    link.write(term.reply)
            if data:
                term.ingest(data)
            if term.finished:  # not completed: ownership was lost
                self._finish(
                    link, "completed" if term.completed else "suspended"
                )
        except Exception as exc:
            self._finish(link, "failed", exc)

    def ended(self, link: Any) -> None:
        try:
            if self.term is None:
                raise ProtocolError("upstream closed during header phase")
            self._finish(link, self.term.on_eof())
        except Exception as exc:
            self._finish(link, "failed", exc)

    def broken(self, link: Any, exc: BaseException) -> None:
        if self.term is None or not isinstance(exc, OSError):
            self._finish(link, "failed", exc)  # or: worker shutdown
            return
        try:
            self.term.flush()  # sublink reset mid-payload: park it
            self._finish(link, "suspended")
        except Exception as failure:
            self._finish(link, "failed", failure)

    def _finish(
        self, link: Any, status: str,
        failure: Optional[BaseException] = None,
    ) -> None:
        with self.lock:
            if self.done:
                return  # a crash's ``broken`` raced the reader's own end
            self.done = True
        node, term = self.node, self.term
        if status == "completed" and term is not None:
            try:
                self._deliver(link, term)
            except Exception as exc:
                status, failure = "failed", exc
        if term is not None:
            term.finish_trace(status)
        if failure is not None:
            emit(node._observer, "relay-failed", self.short_id,
                 reason=f"{type(failure).__name__}: {failure}")
        if status == "completed":
            node.counters.session_ended(True)
        elif status == "suspended":
            node.counters.session_suspended()
        else:
            node.counters.session_ended(False)
        link.close()
        if status == "suspended" and term is not None:
            if not term.ownership_lost:
                # last: this sublink is done with the session, so a
                # rebind may take it from here
                _park(node, term)

    def _deliver(self, link: Any, term: _TerminalSession) -> None:
        node = self.node
        if node.reply is not None:
            link.write(node.reply)
        result = term.result(rebinds=self.rebinds)
        with node._results_lock:
            node.results.append(result)
            node._done.notify_all()
        if node.on_session is not None:
            node.on_session(result)


class StoreNode:
    """What makes a depot a cluster worker (mix into a depot driver).

    ``worker`` is the node's identity in the store (ownership stamps,
    counter publication). With ``session_ttl`` set, the driver calls
    :meth:`_sweep` every ``_sweep_every`` seconds to expire idle
    stored sessions — the sweep is store-global and safe to run on every
    worker; each expired session is reported by exactly one.

    The depot it is mixed into supplies ``counters``, ``_observer``,
    ``_tracer``, ``_link`` and the relay's dial; this class supplies the
    depot's ``_open``, which puts a :class:`NodeSublink` behind each
    accepted socket.
    """

    counters: DepotCounters
    _observer: Optional[ProtocolObserver]
    _tracer: Optional[TraceSpool]
    _link: Callable[..., Any]

    def __init__(
        self,
        store: SessionStore,
        worker: str,
        observer: Optional[ProtocolObserver],
        session_ttl: Optional[float],
        checkpoint_bytes: int,
        reply: Optional[bytes],
        on_session: Optional[Callable[[SessionResult], None]],
    ) -> None:
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        if checkpoint_bytes <= 0:
            raise ValueError("checkpoint_bytes must be positive")
        self._store = store
        self.worker = worker
        self._acceptor = StoreSessionAcceptor(store, worker, observer)
        self._session_ttl = session_ttl
        self._sweep_every = min((session_ttl or 0.0) / 4.0, 1.0)
        self._checkpoint_bytes = checkpoint_bytes
        self.reply = reply
        self.on_session = on_session
        self.results: List[SessionResult] = []
        self._results_lock = threading.Lock()
        self._done = threading.Condition(self._results_lock)
        #: Set (under the table's lock) once shutdown begins: from then
        #: on this worker parks nothing.
        self._retired = False

    def shutdown(self, *args: Any, **kwargs: Any) -> None:
        """Take this worker's parked sessions out of the process table
        first, then shut the depot down (``drain=False`` is a crash: a
        dead worker's memory must not serve a resume)."""
        _retire(self)
        super().shutdown(*args, **kwargs)

    def _open(self, sock: socket.socket) -> Any:
        self.counters.session_started()
        return self._link(sock, NodeSublink(self))

    def _sweep(self) -> None:
        assert self._session_ttl is not None
        try:
            expired = self._store.sweep(time.time(), self._session_ttl)
        except (OSError, ValueError, TimeoutError):
            return  # store hiccup; retry next tick
        if expired:
            self.counters.add(sessions_expired=len(expired))
            for record in expired:
                emit(self._observer, "session-expired",
                     record.session_id.hex()[:8],
                     bytes_received=record.bytes_received)

    def publish_counters(self) -> None:
        """Push this worker's counter snapshot into the shared store."""
        self._store.publish_counters(self.worker, self.counters.snapshot())

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block the caller until ``count`` terminal sessions completed
        here."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count, timeout=timeout
            )


class ClusterNode(StoreNode, ThreadedDepot):
    """Threaded depot worker with terminal sessions.

    Intermediate-hop sublinks are relayed exactly like the base depot;
    last-hop sublinks are terminated against ``store`` (see
    :class:`StoreNode`). Each sublink is a :class:`NodeSublink` run from
    a pooled worker's ``recv`` loop.
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
        # store state first: the accept thread the depot starts may
        # deliver a session before this frame returns
        StoreNode.__init__(
            self, store, worker, observer, session_ttl, checkpoint_bytes,
            reply, on_session,
        )
        ThreadedDepot.__init__(
            self,
            host,
            port,
            observer=observer,
            connect_timeout=connect_timeout,
            reuse_port=reuse_port,
            listener=listener,
            tracer=tracer,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
