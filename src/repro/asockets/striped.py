"""Striped multipath LSL over asyncio sockets.

The event-loop driver of :mod:`repro.sockets.striped`, which holds the
one implementation of both sides: the server here is the
:class:`~repro.asockets.runtime.AsyncLoopService` chassis under
:class:`~repro.sockets.striped.StripedTerminalEngine`, the terminal
engine whose sessions share an assembler (one read callback per
sublink, no task), and :func:`send_striped` is the awaitable
dial-and-write loop over :class:`~repro.sockets.striped._StripedSend`,
one task per sublink. Everything runs on one loop, so the shared locks
are never contended, and the sender's demand pacing falls out of
``sock_sendall``: a task awaiting a slow path's send buffer simply
yields the loop to the sublinks that can still make progress.
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.lsl.core import ProtocolObserver, Redundancy
from repro.lsl.core.striping import DEFAULT_STRIPE
from repro.telemetry.tracing import TraceSpool
from repro.asockets.runtime import AsyncLoopService, connect_by
from repro.sockets.striped import (
    StripedResult,
    StripedSendReport,
    StripedTerminalEngine,
    _StripedSend,
    _frame_of,
)


async def send_striped(
    routes: Sequence[Sequence[Tuple[str, int]]],
    payload: bytes,
    session_id: Optional[bytes] = None,
    stripe_bytes: int = DEFAULT_STRIPE,
    redundancy: Union[str, Redundancy] = "none",
    digest: bool = True,
    timeout: float = 30.0,
    observer: Optional[ProtocolObserver] = None,
    rng: Optional[random.Random] = None,
    sndbuf: Optional[int] = None,
    tracer: Optional[TraceSpool] = None,
    trace_id: Optional[bytes] = None,
    trace_parent: int = 0,
) -> StripedSendReport:
    """Send ``payload`` striped across ``routes`` (one task each), on
    the contract of the threaded :func:`repro.sockets.striped.send_striped`."""
    send = _StripedSend(
        routes, payload, session_id, stripe_bytes, redundancy, digest,
        observer, rng, tracer, trace_id, trace_parent,
    )
    loop = asyncio.get_running_loop()

    async def run_sublink(index: int) -> None:
        header = send.begin(index)
        hop = send.routes[index][0]
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        if sndbuf is not None:
            # shrink the send buffer so demand pacing engages even on
            # loopback (otherwise the first task can drain the whole
            # scheduler into kernel memory before the others connect)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
        try:
            await connect_by(sock, (hop.host, hop.port), timeout)
            send.dialed(index)
            await loop.sock_sendall(sock, header)
            while True:
                assignment = send.next_assignment(index)
                if assignment is None:
                    sock.shutdown(socket.SHUT_WR)
                    return
                # awaiting the send buffer IS the demand pacing: a
                # task stuck on a slow path yields to the sublinks
                # that can still pull stripes
                await loop.sock_sendall(sock, _frame_of(assignment))
                send.sent(index, assignment)
        except (OSError, asyncio.TimeoutError) as exc:
            send.lost(index, exc)
        finally:
            send.end(index)
            try:
                sock.close()
            except OSError:
                pass

    await asyncio.gather(*(run_sublink(i) for i in range(len(send.routes))))
    return send.report()


class AsyncStripedServer(StripedTerminalEngine, AsyncLoopService):
    """Accepts framed striped sessions on one event loop.

    Public surface (``results``, ``errors``, ``wait_for_sessions``,
    ``expose``, context manager) mirrors
    :class:`~repro.sockets.striped.StripedThreadedServer`.
    """

    _thread_prefix = "alsl-striped"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        on_session: Optional[Callable[[StripedResult], None]] = None,
        observer: Optional[ProtocolObserver] = None,
        drain_timeout: float = 5.0,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        StripedTerminalEngine.__init__(
            self, on_session, observer=observer, tracer=tracer
        )
        AsyncLoopService.__init__(self, host, port, drain_timeout=drain_timeout)
