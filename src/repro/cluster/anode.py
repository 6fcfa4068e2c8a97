"""Asyncio depot worker with store-backed terminal sessions.

The event-loop twin of :class:`~repro.cluster.node.ClusterNode`:
intermediate-hop sublinks relay through the base
:class:`~repro.asockets.depot.AsyncDepot` machinery; last-hop sublinks
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

from repro.lsl.core import (
    Chunk,
    ProtocolObserver,
    RejectSession,
    RelayCore,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.lsl.core.wire import LslHeader
from repro.asockets.depot import AsyncDepot
from repro.asockets.wire import read_header
from repro.cluster.acceptor import (
    StoreAcceptResume,
    StoreSessionAcceptor,
)
from repro.cluster.node import DEFAULT_CHECKPOINT_BYTES, _TerminalSession
from repro.cluster.store import SessionStore
from repro.sockets.server import SessionResult
from repro.sockets.wire import CHUNK


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
            self._loop.call_soon_threadsafe(self._start_sweeper)

    # -- TTL sweep ---------------------------------------------------------

    def _start_sweeper(self) -> None:
        task = self._loop.create_task(self._sweep_loop())
        # registered like a session so shutdown cancels it cleanly
        self._sessions.add(task)
        task.add_done_callback(self._sessions.discard)

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

    # -- sessions ----------------------------------------------------------

    async def _handle(self, upstream: socket.socket) -> None:
        status = "failed"
        short_id = ""
        try:
            header, surplus = await read_header(self._loop, upstream)
            short_id = header.short_id
            if header.is_last_hop:
                status = await self._terminal(upstream, header, surplus)
            else:
                core = RelayCore(observer=self._observer)
                decision = core.feed(
                    [Chunk.real(header.encode()), Chunk.real(surplus)]
                )
                assert decision is not None  # full header was fed
                if isinstance(decision, RelayReject):
                    raise decision.error
                await self._relay(upstream, decision)
                status = "completed"
        except asyncio.CancelledError:
            emit(self._observer, "relay-failed", short_id,
                 reason="CancelledError: worker shutdown")
            raise
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
            try:
                upstream.close()
            except OSError:
                pass

    async def _terminal(
        self, upstream: socket.socket, header: LslHeader, surplus: bytes
    ) -> str:
        loop = self._loop
        decision = self._acceptor.decide(header, time.time())
        if isinstance(decision, RejectSession):
            raise decision.error
        if isinstance(decision, StoreAcceptResume) and decision.takeover:
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
                await loop.sock_sendall(upstream, term.reply)
            if surplus:
                term.ingest(surplus)
            while not term.finished:
                try:
                    data = await loop.sock_recv(upstream, CHUNK)
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
                    await loop.sock_sendall(upstream, self.reply)
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
