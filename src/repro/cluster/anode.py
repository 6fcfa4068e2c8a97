"""Asyncio depot worker with store-backed terminal sessions.

The event-loop twin of :class:`~repro.cluster.node.ClusterNode`:
each accepted sublink is a :class:`_NodeSublink` fed from its read
callback (no task). Intermediate-hop sublinks are handed to the base
depot's :class:`~repro.asockets.depot.RelaySession`; last-hop sublinks
terminate against the shared session store via the same
:class:`~repro.cluster.node._TerminalSession` bookkeeping the threaded
worker uses, so the two drivers cannot drift on resume or checkpoint
semantics.

Store operations are short blocking calls executed in-loop (see the
:mod:`repro.cluster.node` docstring); checkpoint batching keeps them
off the per-read path. ``--workers N --driver asyncio`` gives N loops
behind one port — the multi-core story asyncio alone lacks.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from typing import Callable, List, Optional

from repro.lsl.core import HeaderAccumulator, ProtocolObserver, RejectSession
from repro.lsl.core.events import emit
from repro.lsl.core.wire import LslHeader
from repro.lsl.errors import ProtocolError
from repro.asockets.depot import AsyncDepot, RelaySession
from repro.asockets.runtime import Endpoint
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreSessionAcceptor,
)
from repro.cluster.node import DEFAULT_CHECKPOINT_BYTES, _TerminalSession
from repro.cluster.store import SessionStore
from repro.sockets.server import SessionResult


class _NodeSublink:
    """One accepted sublink: header phase, then a relay hand-over or a
    store-backed terminal session."""

    __slots__ = ("node", "acc", "term", "short_id", "rebinds")

    def __init__(self, node: "AsyncClusterNode") -> None:
        self.node = node
        self.acc = HeaderAccumulator()
        self.term: Optional[_TerminalSession] = None
        self.short_id = ""
        self.rebinds = 0

    def _terminal(self, header: LslHeader) -> _TerminalSession:
        node = self.node
        decision = node._acceptor.decide(header, time.time())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, StoreAcceptResume) and decision.takeover:
            node.counters.add(takeovers=1)
        self.rebinds = decision.record.rebinds
        return _TerminalSession(
            node._store,
            node.worker,
            header,
            decision,
            node._observer,
            node._checkpoint_bytes,
            tracer=node._tracer,
        )

    def received(self, ep: Endpoint, data: bytes) -> None:
        try:
            term = self.term
            if term is None:
                header = self.acc.feed(data)
                if header is None:
                    return
                self.short_id = header.short_id
                data = self.acc.surplus
                if not header.is_last_hop:
                    # relay: re-feed the canonical header bytes into
                    # the same machine the base depot drives (the codec
                    # is byte-exact, so it cannot tell the difference)
                    ep.owner = relay = RelaySession(self.node)
                    relay.up = ep
                    relay.received(ep, header.encode() + data)
                    return
                self.term = term = self._terminal(header)
                if term.reply:
                    ep.write(term.reply)
            if data:
                term.ingest(data)
            if term.finished:  # not completed: ownership was lost
                self._finish(
                    ep, "completed" if term.completed else "suspended"
                )
        except Exception as exc:
            self._finish(ep, "failed", exc)

    def ended(self, ep: Endpoint) -> None:
        try:
            if self.term is None:
                raise ProtocolError("upstream closed during header phase")
            self._finish(ep, self.term.on_eof())
        except Exception as exc:
            self._finish(ep, "failed", exc)

    def broken(self, ep: Endpoint, exc: BaseException) -> None:
        if self.term is None or not isinstance(exc, OSError):
            self._finish(ep, "failed", exc)  # or: worker shutdown
            return
        try:
            self.term.flush()  # sublink reset mid-payload: park it
            self._finish(ep, "suspended")
        except Exception as failure:
            self._finish(ep, "failed", failure)

    def _finish(
        self, ep: Endpoint, status: str,
        failure: Optional[BaseException] = None,
    ) -> None:
        node, term = self.node, self.term
        if status == "completed":
            assert term is not None
            if node.reply is not None:
                ep.write(node.reply)
            result = term.result(rebinds=self.rebinds)
            with node._results_lock:
                node.results.append(result)
                node._done.notify_all()
            if node.on_session is not None:
                node.on_session(result)
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
        ep.close()


class AsyncClusterNode(AsyncDepot):
    """Single-event-loop depot worker with terminal sessions."""

    _thread_prefix = "acluster"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: SessionStore,
        worker: str,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        backlog: int = 4096,
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
        # subclass state first: the loop super().__init__ starts may
        # deliver a session before this frame returns
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
            drain_timeout=drain_timeout,
            backlog=backlog,
            reuse_port=reuse_port,
            listener=listener,
            tracer=tracer,
        )
        if session_ttl is not None:
            # keeps the task referenced; the loop's shutdown cancels it
            self._sweeper = asyncio.run_coroutine_threadsafe(
                self._sweep_loop(), self._loop
            )

    # -- TTL sweep ---------------------------------------------------------

    async def _sweep_loop(self) -> None:
        ttl = self._session_ttl
        assert ttl is not None
        while True:
            await asyncio.sleep(min(ttl / 4.0, 1.0))
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

    def _open(self, sock: socket.socket) -> None:
        self.counters.session_started()
        Endpoint(self, sock, _NodeSublink(self))

    # -- observability -----------------------------------------------------

    def publish_counters(self) -> None:
        """Push this worker's counter snapshot into the shared store."""
        self._store.publish_counters(self.worker, self.counters.snapshot())

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        """Block (caller thread) until ``count`` terminal completions."""
        with self._done:
            return self._done.wait_for(
                lambda: len(self.results) >= count, timeout=timeout
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AsyncClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
