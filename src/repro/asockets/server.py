"""Asyncio LSL server over real sockets.

The session itself is :mod:`repro.sockets.terminal` — the very objects
the threaded server runs — fed straight from each sublink's readiness
callback (an :class:`~repro.asockets.runtime.Endpoint` is the link; no
task per session), and the listener, accept, the TTL sweeper's timer
and the drain on shutdown are the
:class:`~repro.asockets.runtime.AsyncLoopService` chassis. What is left
here is the constructor. Every callback runs on the one loop, so the
engine's two locks are taken and never contended.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lsl.core import ProtocolObserver
from repro.asockets.runtime import AsyncLoopService
from repro.sockets.terminal import SessionResult, TerminalEngine
from repro.telemetry.tracing import TraceSpool


class AsyncLslServer(TerminalEngine, AsyncLoopService):
    """Accepts LSL sessions on one event loop; verifies digests.

    Public surface mirrors :class:`~repro.sockets.server.ThreadedLslServer`
    (``results``, ``errors``, ``wait_for_sessions``, ``expose``,
    context-manager lifecycle) so callers can switch drivers without
    touching their code.
    """

    _thread_prefix = "alsl-srv"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        # engine state first: the loop the chassis starts may deliver a
        # session before this frame returns
        TerminalEngine.__init__(
            self, on_session, reply, observer, session_ttl, tracer
        )
        AsyncLoopService.__init__(self, host, port, drain_timeout=drain_timeout)
