"""``lsd`` on asyncio — the C10K depot driver.

The depot itself — :class:`~repro.sockets.depot.RelaySession` (header
phase, onward header, surplus, outcome accounting) and
:class:`~repro.sockets.depot.DepotEngine` (counters, the admission cap,
events, the ``/metrics`` + ``/healthz`` + ``/events`` exposition) — is
the very one the threaded and simulator depots run, so a scrape cannot
tell which driver is behind the socket. This module is the event-loop driver: the
:class:`~repro.asockets.runtime.AsyncLoopService` chassis, where one
loop carries every session (no task, no future) so concurrent-session
count is bounded by file descriptors, not threads, and the dial.

The dial tries first: ``connect_ex``, plus a one-shot writer and a
``call_later`` deadline only when the kernel has not finished by then
(never on loopback). The relay is then two cross-wired endpoints
reading into the loop's one shared buffer and sending straight from it,
copying out only what a partial ``send`` left behind.
"""

from __future__ import annotations

import asyncio
import os
import socket
from typing import Optional

from repro.lsl.core import ProtocolObserver
from repro.lsl.core.wire import RouteHop
from repro.asockets.runtime import AsyncLoopService, dial
from repro.sockets.depot import DepotEngine, RelaySession
from repro.telemetry.tracing import TraceSpool

__all__ = ["AsyncDepot", "RelaySession"]


class AsyncDepot(DepotEngine, AsyncLoopService):
    """A depot relaying sessions on one event loop until ``shutdown``.

    ``connect_timeout`` bounds the downstream dial only — established
    relays carry no timeout, so arbitrarily long mid-transfer idle gaps
    never kill a healthy session.
    """

    _thread_prefix = "alsd"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        backlog: int = 4096,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        DepotEngine.__init__(self, observer, connect_timeout, tracer)
        AsyncLoopService.__init__(
            self,
            host,
            port,
            drain_timeout=drain_timeout,
            backlog=backlog,
            reuse_port=reuse_port,
            listener=listener,
        )

    def _dial(self, relay: RelaySession, hop: RouteHop) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            done = dial(sock, (hop.host, hop.port))
        except OSError:
            sock.close()
            raise
        if done:
            relay._dialed(sock)  # loopback: the kernel has already finished
            return
        loop, fd = self._loop, sock.fileno()

        def cancel() -> None:
            relay.cancel_dial = None
            deadline.cancel()
            loop.remove_writer(fd)

        def writable() -> None:
            cancel()
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                sock.close()
                relay.end(OSError(err, os.strerror(err)))
            else:
                relay._dialed(sock)

        def abort() -> None:  # the relay ended first
            cancel()
            sock.close()

        relay.cancel_dial = abort
        loop.add_writer(fd, writable)
        deadline = loop.call_later(
            self._connect_timeout, relay.end,
            asyncio.TimeoutError(f"dial {hop}"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AsyncDepot {self.address[0]}:{self.address[1]}>"
