"""Blocking LSL server over real sockets.

The session itself — accept/rebind/restart arbitration, negotiated
resume, payload accounting, the end-to-end MD5, spans and results — is
:mod:`repro.sockets.terminal`, shared with the asyncio server, and the
listener, the accept loop, the pooled worker reading each sublink, the
TTL sweeper's timer and shutdown are the
:class:`~repro.sockets.wire.ThreadedService` chassis. What is left here
is the constructor.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lsl.core import ProtocolObserver
from repro.sockets.terminal import SessionResult, TerminalEngine
from repro.sockets.wire import ThreadedService
from repro.telemetry.tracing import TraceSpool

__all__ = ["SessionResult", "ThreadedLslServer"]


class ThreadedLslServer(TerminalEngine, ThreadedService):
    """Accepts LSL sessions; collects payloads and verifies digests.

    ``on_session(result)`` runs on the session's worker thread after the stream
    completes. Payloads are buffered in memory — the real-socket path
    is for demonstrations and tests, not bulk measurement (see the
    package docstring for the GIL caveat).
    """

    _thread_prefix = "lsl-srv"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[SessionResult], None]] = None,
        reply: Optional[bytes] = None,
        observer: Optional[ProtocolObserver] = None,
        session_ttl: Optional[float] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        # engine state first: the accept thread the chassis starts may
        # deliver a session before this frame returns
        TerminalEngine.__init__(
            self, on_session, reply, observer, session_ttl, tracer
        )
        ThreadedService.__init__(self, host, port)
