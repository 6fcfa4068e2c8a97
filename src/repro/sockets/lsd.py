"""``lsd`` on threads — the blocking depot driver.

The depot itself — :class:`~repro.sockets.depot.RelaySession` (header
phase, onward header, surplus, outcome accounting) and
:class:`~repro.sockets.depot.DepotEngine` (counters, the admission cap,
events, the exposition) — is the one the asyncio and simulator depots
run. This module is the threaded driver: the
:class:`~repro.sockets.wire.ThreadedService` chassis, with two pooled
workers per relay, one reading each direction, and the blocking
:func:`~repro.sockets.wire.dial`. Backpressure is the kernel's: a
blocking ``send`` on a full downstream socket stalls its reader, the
upstream receive buffer fills, and the sender's window closes — the
same chain the simulator models explicitly.
"""

from __future__ import annotations

import socket
from typing import Optional

from repro.lsl.core import ProtocolObserver
from repro.lsl.core.wire import RouteHop
from repro.sockets.depot import DepotEngine, RelaySession
from repro.sockets.wire import ThreadedService, dial
from repro.telemetry.tracing import TraceSpool


class ThreadedDepot(DepotEngine, ThreadedService):
    """A depot listening on ``(host, port)`` until :meth:`shutdown`."""

    _thread_prefix = "lsd-accept"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        DepotEngine.__init__(self, observer, connect_timeout, tracer)
        ThreadedService.__init__(
            self, host, port, reuse_port=reuse_port, listener=listener
        )

    def _dial(self, relay: RelaySession, hop: RouteHop) -> None:
        # blocks the upstream reader, which is what pauses it
        sock = dial(hop, self._connect_timeout)
        # the timeout was for the dial only: a relay must tolerate
        # arbitrarily long mid-transfer idle gaps without dying
        sock.settimeout(None)
        relay._dialed(sock)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ThreadedDepot {self.address[0]}:{self.address[1]}>"
