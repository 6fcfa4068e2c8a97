"""Blocking LSL server over real sockets.

The session itself — accept/rebind/restart arbitration, negotiated
resume, payload accounting, the end-to-end MD5, spans and results — is
:mod:`repro.sockets.terminal`, shared with the asyncio server. This
module is the threaded *driver*: a listener, an accept loop that hands
each sublink to a pooled worker (:func:`~repro.sockets.wire.run_blocking`
over a :class:`~repro.sockets.wire.BlockingLink`), the TTL sweeper's
timer, and shutdown.
"""

from __future__ import annotations

import socket
import threading
from typing import Callable, Optional, Tuple

from repro.lsl.core import ProtocolObserver
from repro.lsl.core.events import emit
from repro.sockets import workers
from repro.sockets.lsd import (
    _ACCEPT_RETRY_DELAY_S,
    _FATAL_ACCEPT_ERRNOS,
    make_listener,
)
from repro.sockets.terminal import (
    SessionResult,
    TerminalEngine,
    TerminalSublink,
)
from repro.sockets.wire import BlockingLink, run_blocking
from repro.telemetry.tracing import TraceSpool

__all__ = ["SessionResult", "ThreadedLslServer"]


class ThreadedLslServer(TerminalEngine):
    """Accepts LSL sessions; collects payloads and verifies digests.

    ``on_session(result)`` runs on the session's worker thread after the stream
    completes. Payloads are buffered in memory — the real-socket path
    is for demonstrations and tests, not bulk measurement (see the
    package docstring for the GIL caveat).
    """

    _driver = "threads"

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
        super().__init__(on_session, reply, observer, session_ttl, tracer)
        self._listener = make_listener(host, port)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._shutdown = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"lsl-srv-{self.address[1]}", daemon=True
        )
        self._accept_thread.start()
        if session_ttl is not None:
            threading.Thread(
                target=self._sweep_loop,
                name=f"lsl-srv-sweep-{self.address[1]}",
                daemon=True,
            ).start()

    def _sweep_loop(self) -> None:
        while not self._shutdown.wait(self._sweep_every):
            self._sweep()

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError as exc:
                if (
                    self._shutdown.is_set()
                    or exc.errno in _FATAL_ACCEPT_ERRNOS
                ):
                    return
                # transient (EMFILE/ECONNABORTED/...): keep accepting
                self.accept_errors += 1
                emit(self._observer, "accept-error", "",
                     error=type(exc).__name__, detail=str(exc))
                self._shutdown.wait(_ACCEPT_RETRY_DELAY_S)
                continue
            workers.run(run_blocking, BlockingLink(sock), TerminalSublink(self))

    def shutdown(self) -> None:
        self._shutdown.set()
        # wake a kernel-blocked accept() (see ThreadedDepot.shutdown)
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ThreadedLslServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
