"""Asyncio depot worker with store-backed terminal sessions.

The event-loop driver of :mod:`repro.cluster.node`: each accepted
sublink is that module's :class:`~repro.cluster.node.NodeSublink` fed
from an :class:`~repro.asockets.runtime.Endpoint`'s read callback (no
task), over the same :class:`~repro.cluster.node.StoreNode` state the
threaded worker has, so the two drivers cannot drift on resume or
checkpoint semantics; an intermediate-hop sublink goes to the same
:class:`~repro.sockets.lsd.RelaySession` on both. What is left here is
the constructor: the sweeper's timer is the chassis's, and the dial the
:class:`~repro.asockets.depot.AsyncDepot`'s.

Store operations are short blocking calls executed in-loop (see the
:mod:`repro.cluster.node` docstring); checkpoint batching keeps them
off the per-read path. ``--workers N --driver asyncio`` gives N loops
behind one port — the multi-core story asyncio alone lacks.
"""

from __future__ import annotations

import socket
from typing import Callable, Optional

from repro.lsl.core import ProtocolObserver
from repro.asockets.depot import AsyncDepot
from repro.cluster.node import DEFAULT_CHECKPOINT_BYTES, StoreNode
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<AsyncClusterNode {self.worker} "
            f"{self.address[0]}:{self.address[1]}>"
        )
