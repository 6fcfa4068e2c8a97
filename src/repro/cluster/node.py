"""A depot worker that terminates last-hop sessions against the store.

``lsd`` proper is a stateless relay: header in, next hop dialed, pumps
until EOF. A :class:`ClusterNode` does exactly that for intermediate-
hop sublinks — but when the header addresses *it* as the final hop, it
terminates the session the way an LSL server would, because it *is*
one: :class:`StoreNode` is the
:class:`~repro.sockets.terminal.TerminalEngine` every server runs, with
one difference that makes the cluster work: the durable half of the
session lives in the shared :class:`~repro.cluster.store.SessionStore`,
not in this process. What this module adds is what the store needs, as
overrides of the engine's hooks.

Received payload is checkpointed to the store's spool every
``checkpoint_bytes`` (and fully on suspend), so after this worker is
SIGKILLed a rebind landing on *any* worker can grant the spooled
length and rebuild the receiver — running MD5 included — by re-feeding
the spool. The digest is never serialized; the spooled bytes are its
only portable representation.

A process whose worker suspended a session needs no portable form: the
worker parks the suspended :class:`_StoreSession` — receiver and
running MD5 as they stand — in one process-wide table of at most
:data:`PARKED_SESSIONS`, oldest dropped first. Any worker of the
process that the store then grants the rebind to adopts that session
and reads nothing back, when the grant is exactly what was parked: the
same store handle, the very next epoch, the parked offset, the same
framing. The adopter's own worker id, checkpoint size and tracer serve
the session from then on. Any other rebind (a claim in between, another
store, an entry already dropped, a rebind in another process) re-feeds
the spool, so a miss costs only time. A worker that shuts down, or is
killed, takes its entries out of the table and parks nothing after, so
a crashed worker's memory never serves a resume: the survivor takes the
spool path a real SIGKILL leaves it.

Everything here but :class:`ClusterNode` itself is shared with the
asyncio worker (:mod:`repro.cluster.anode`). :class:`ClusterNode` is
:class:`StoreNode` over :class:`~repro.sockets.lsd.ThreadedDepot` — a
constructor. Store calls are short blocking operations (bounded by
checkpoint batching); the asyncio driver accepts them in-loop for the
same reason it accepts blocking DNS in tests — micro-milliseconds
against a 64 KiB read cadence.
"""

from __future__ import annotations

import socket
import threading
import time
from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lsl.core import (
    Chunk,
    ChunkLike,
    Deliver,
    FramedReceiver,
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
from repro.sockets.lsd import DepotCounters, DepotEngine, RelaySession, ThreadedDepot
from repro.sockets.terminal import (
    COMPLETED,
    SUSPENDED,
    SessionResult,
    TerminalEngine,
    TerminalSublink,
    _LiveSession,
)
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


class _StoreSession(_LiveSession):
    """A terminal session whose durable half is in the store: the
    engine's session, plus the worker serving it, the owner epoch its
    store writes quote, and how much of ``chunks`` the spool holds (the
    rest is the unspooled tail the next checkpoint appends). ``link`` is
    None once a takeover claimed the session away."""

    __slots__ = ("node", "epoch", "spooled", "spooled_bytes", "stamped")

    def __init__(self, node: "StoreNode", header: LslHeader, link: Any) -> None:
        _LiveSession.__init__(self, node, header, link)
        self.node = node
        self.epoch = 0
        self.spooled = 0  # leading ``chunks`` already in the spool
        self.spooled_bytes = 0  # their length: the store's offset
        self.stamped = 0.0  # when the store last heard from this session

    @property
    def worker(self) -> str:
        return self.node.worker

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
            and self.node._store is node._store
            and decision.record.epoch == self.epoch + 1
            and decision.prefix_length == self.receiver.payload_received
            and header.framed == self.receiver.header.framed
        )


#: The process's parked sessions: id -> (parking worker, session).
_parked: Dict[bytes, Tuple["StoreNode", _StoreSession]] = {}
_parked_lock = threading.Lock()


def _park(node: "StoreNode", live: _StoreSession) -> None:
    """Keep a suspended session for a rebind on any worker of this
    process, unless ``node`` is shutting down."""
    with _parked_lock:
        if node._retired:
            return
        _parked.pop(live.session_id, None)
        _parked[live.session_id] = (node, live)
        if len(_parked) > PARKED_SESSIONS:
            del _parked[next(iter(_parked))]


def _unpark(session_id: bytes) -> Optional[_StoreSession]:
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


class StoreNode(TerminalEngine):
    """What makes a depot a cluster worker (mix into a depot driver):
    the :class:`~repro.sockets.terminal.TerminalEngine`, its hooks
    backed by the store.

    ``worker`` is the node's identity in the store (ownership stamps,
    counter publication). With ``session_ttl`` set, the driver calls
    :meth:`_sweep` every ``_sweep_every`` seconds to expire idle
    stored sessions — the sweep is store-global and safe to run on every
    worker; each expired session is reported by exactly one. The depot
    supplies ``counters``, ``/metrics``, the accept-error count and the
    relay's dial.
    """

    counters: DepotCounters
    _now = staticmethod(time.time)  # the store's clock: wall time
    expose = DepotEngine.expose
    _on_accept_error = DepotEngine._on_accept_error

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
        if checkpoint_bytes <= 0:
            raise ValueError("checkpoint_bytes must be positive")
        self._store = store
        self.worker = worker
        self._checkpoint_bytes = checkpoint_bytes
        self._span_attrs = {"worker": worker}
        #: Set (under the table's lock) once shutdown begins: from then
        #: on this worker parks nothing.
        self._retired = False
        # the depot's constructor, which runs next, sets the tracer
        TerminalEngine.__init__(
            self, on_session, reply, observer, session_ttl, None
        )

    def _accepting(self) -> None:
        self._acceptor = StoreSessionAcceptor(
            self._store, self.worker, self._observer
        )

    def shutdown(self, *args: Any, **kwargs: Any) -> None:
        """Take this worker's parked sessions out of the process table
        first, then shut the depot down (``drain=False`` is a crash: a
        dead worker's memory must not serve a resume)."""
        _retire(self)
        super().shutdown(*args, **kwargs)

    def _open(self, sock: socket.socket) -> Any:
        self.counters.session_started()
        return self._link(sock, TerminalSublink(self))

    # -- the accept decision -----------------------------------------------

    def _forward(self, link: Any, header: LslHeader, rest: List[ChunkLike]) -> bool:
        if header.is_last_hop:
            return False
        # the link changes owner: re-feed the canonical header bytes into
        # the depot's relay (the codec is byte-exact, so it cannot tell
        # the difference)
        link.owner = relay = RelaySession(self)
        relay.received(
            link, header.encode() + b"".join([chunk.data for chunk in rest])
        )
        return True

    def _attach(self, sublink: TerminalSublink, link: Any, header: LslHeader) -> None:
        """The store decides; a resume adopts the session this process
        parked when it is exactly what the store granted, and re-feeds
        the spool otherwise."""
        now = self._now()
        decision = self._acceptor.decide(header, now)
        parked = _unpark(header.session_id)
        if isinstance(decision, RejectSession):
            raise decision.error
        grant: Dict[str, Any] = {}
        if isinstance(decision, StoreAcceptResume):
            grant = dict(
                granted=decision.prefix_length, takeover=decision.takeover
            )
            if decision.takeover:
                self.counters.add(takeovers=1)
        if parked is not None and parked.resumes(self, header, decision):
            live = parked
            with live.lock:
                self._reattach(live, link, header, **grant)
        else:
            live = _StoreSession(self, header, link)
            if grant.get("granted"):
                self._prime(live, grant["granted"])
            self._begin_span(live, header, **grant)
        # the deciding worker serves the session from here on, parked
        # here or on a sibling: its id, store, checkpoint size and tracer
        live.node, live.epoch = self, decision.record.epoch
        live.rebinds, live.stamped = decision.record.rebinds, now
        sublink.live = live
        if decision.reply:
            link.write(decision.reply)

    def _prime(self, live: _StoreSession, length: int) -> None:
        """Rebuild receiver state (offset + MD5) from the first
        ``length`` bytes of the spool.

        A spool shorter than the grant fails the rebind before any
        reply. Framed sessions prime the *inner* payload receiver
        directly: the spool holds decoded payload, not frames, and the
        new sublink starts a fresh frame stream at the granted offset.
        """
        prefix = self._store.payload(live.session_id)
        if len(prefix) < length:
            raise ProtocolError(
                f"spool holds {len(prefix)} bytes, {length} granted"
            )
        receiver = live.receiver
        if isinstance(receiver, FramedReceiver):
            receiver = receiver.inner
        for event in receiver.feed([Chunk.real(prefix[:length])]):
            if type(event) is Deliver:
                live.chunks.append(event.chunk)
        live.spooled, live.spooled_bytes = len(live.chunks), length

    # -- store writes (under the session lock) ------------------------------

    def _mirror(self, live: _StoreSession) -> Optional[str]:
        """Per batch: checkpoint once ``checkpoint_bytes`` are pending,
        and with a TTL keep the record active while the session
        streams — one touch per sweep period at most."""
        pending = live.receiver.payload_received - live.spooled_bytes
        if pending >= self._checkpoint_bytes:
            written = self._checkpoint(live)
        elif (
            self._session_ttl is not None
            and self._now() - live.stamped >= self._sweep_every
        ):
            written = self._touch(live)
        else:
            return None
        return None if written else self._lost(live)

    def _checkpoint(self, live: _StoreSession) -> bool:
        """Append the unspooled tail; False when ownership was lost."""
        pending = live.receiver.payload_received - live.spooled_bytes
        if not pending:
            return True
        cas_span = self._begin_cas(live, "append", bytes=pending)
        chunks = live.chunks
        unspooled = b"".join(
            [chunk.data for chunk in islice(chunks, live.spooled, None)]
        )
        live.spooled, live.spooled_bytes = len(chunks), live.receiver.payload_received
        live.stamped = now = self._now()
        total = self._store.append_payload(
            live.session_id, self.worker, live.epoch, unspooled, now,
        )
        self._end_cas(cas_span, "lost" if total is None else "ok")
        return total is not None

    def _touch(self, live: _StoreSession) -> bool:
        """Stamp the record active; False when ownership was lost."""
        live.stamped = now = self._now()
        return self._store.touch(live.session_id, self.worker, live.epoch, now)

    def _lost(self, live: _StoreSession) -> str:
        """A takeover claimed the session away from us: abandon the
        sublink, as a displaced one (the new owner serves the session
        from the spool), and end it suspended."""
        live.link = None
        self._end_span(live, SUSPENDED)
        return SUSPENDED

    def _note_suspended(self, live: _StoreSession) -> None:
        """Spool everything received and stamp the record active, for a
        rebind on this worker or any other (parked by :meth:`_ended`)."""
        if not self._checkpoint(live):
            self._lost(live)
            return
        self._touch(live)
        self._end_span(live, SUSPENDED)

    def _finalize(self, live: _StoreSession, digest_ok: Optional[bool]) -> str:
        if not self._close_record(live):
            return self._lost(live)
        self._end_span(live, "ok" if digest_ok in (None, True) else "digest-failed")
        return COMPLETED

    def _failed(self, live: _StoreSession, error: Exception) -> None:
        # closed first, so the id cannot be resumed
        self._close_record(live)
        self._end_span(live, "error")

    def _close_record(self, live: _StoreSession) -> bool:
        """``store.finish`` under the owner-epoch CAS."""
        cas_span = self._begin_cas(live, "finish")
        closed = self._store.finish(
            live.session_id, self.worker, live.epoch, self._now()
        )
        self._end_cas(cas_span, "ok" if closed else "lost")
        return closed

    def _begin_cas(self, live: _StoreSession, op: str, **attrs: object) -> int:
        """Open a ``store.cas`` span around an owner-epoch store call."""
        if self._tracer is None or not live.span:
            return 0
        return self._tracer.begin(
            "store.cas", live.trace, live.span, op=op, **attrs,
        )

    def _end_cas(self, cas_span: int, status: str) -> None:
        if cas_span:
            self._tracer.end(cas_span, status=status)

    # -- sublink ends ------------------------------------------------------

    def _ended(
        self, sublink: TerminalSublink, status: str,
        failure: Optional[BaseException],
    ) -> None:
        live = sublink.live
        if status == COMPLETED:
            self.counters.session_ended(True)
        elif status == SUSPENDED:
            self.counters.session_suspended()
            if live.link is not None:
                # last: this sublink is done with the session, so a
                # rebind may take it from here
                _park(self, live)
        else:
            header = sublink.acc.header
            emit(self._observer, "relay-failed",
                 header.short_id if header is not None else "",
                 reason=f"{type(failure).__name__}: {failure}")
            self.counters.session_ended(False)

    def _sweep(self) -> None:
        assert self._session_ttl is not None
        try:
            expired = self._store.sweep(self._now(), self._session_ttl)
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


class ClusterNode(StoreNode, ThreadedDepot):
    """Threaded depot worker with terminal sessions.

    Intermediate-hop sublinks are relayed exactly like the base depot;
    last-hop sublinks are terminated against ``store`` (see
    :class:`StoreNode`). Each sublink is a
    :class:`~repro.sockets.terminal.TerminalSublink` run from a pooled
    worker's ``recv`` loop.
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
