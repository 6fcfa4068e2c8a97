"""Asyncio depot worker with store-backed terminal sessions.

The event-loop driver of :mod:`repro.cluster.node`: each accepted
sublink is that module's :class:`~repro.cluster.node.NodeSublink` fed
from an :class:`~repro.asockets.runtime.Endpoint`'s read callback (no
task), over the same :class:`~repro.cluster.node.StoreNode` state the
threaded worker has, so the two drivers cannot drift on resume or
checkpoint semantics. What is left here is what differs: the sweeper's
timer, and the hand-over of an intermediate-hop sublink to the base
depot's :class:`~repro.asockets.depot.RelaySession`.

Store operations are short blocking calls executed in-loop (see the
:mod:`repro.cluster.node` docstring); checkpoint batching keeps them
off the per-read path. ``--workers N --driver asyncio`` gives N loops
behind one port — the multi-core story asyncio alone lacks.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Callable, Optional

from repro.lsl.core import ProtocolObserver
from repro.lsl.core.wire import LslHeader
from repro.asockets.depot import AsyncDepot, RelaySession
from repro.asockets.runtime import Endpoint
from repro.cluster.node import (
    DEFAULT_CHECKPOINT_BYTES,
    NodeSublink,
    StoreNode,
)
from repro.cluster.store import SessionStore
from repro.sockets.terminal import SessionResult
from repro.telemetry.tracing import TraceSpool


class AsyncClusterNode(StoreNode, AsyncDepot):
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
        # store state first: the loop the depot starts may deliver a
        # session before this frame returns
        StoreNode.__init__(
            self, store, worker, observer, session_ttl, checkpoint_bytes,
            reply, on_session,
        )
        AsyncDepot.__init__(
            self,
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

    async def _sweep_loop(self) -> None:
        while True:
            await asyncio.sleep(self._sweep_every)
            self._sweep()

    def _open(self, sock: socket.socket) -> Endpoint:
        self.counters.session_started()
        return Endpoint(self, sock, NodeSublink(self))

    def _hand_over(self, ep: Endpoint, header: LslHeader, surplus: bytes) -> bool:
        # the endpoint changes owner: re-feed the canonical header bytes
        # into the same machine the base depot drives (the codec is
        # byte-exact, so it cannot tell the difference)
        ep.owner = relay = RelaySession(self)
        relay.up = ep
        relay.received(ep, header.encode() + surplus)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AsyncClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
