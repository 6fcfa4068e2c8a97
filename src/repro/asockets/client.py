"""Asyncio LSL client over real sockets.

A :class:`~repro.sockets.client.ClientSession`, like the blocking
client, so the two put the same bytes on the wire and the same spans
in the trace. The transport is a plain non-blocking socket, dialed and
read during establishment try-first (:mod:`repro.asockets.runtime`'s
``connect_by`` and ``recv_by``: only a wait for the kernel costs a
future, a registration and a ``timeout`` timer), then driven through
``loop.sock_*``.

Usage::

    client = await AsyncLslClient.open(route, payload_length=len(data))
    await client.sendall(data)
    await client.finish()
    client.close()
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Callable, Optional, Sequence, Tuple

from repro.lsl.core import ProtocolError, StreamDigest
from repro.asockets.runtime import connect_by, recv_by
from repro.sockets.client import ClientSession, plan_client_session
from repro.telemetry.tracing import TraceSpool


class AsyncLslClient(ClientSession):
    """One LSL session along ``route`` over an asyncio-driven socket.

    Construct via :meth:`open` (or construct then ``await connect()``).
    The constructor itself performs no I/O; all option validation and
    header construction happen synchronously so a bad combination
    raises before any connection exists. ``timeout`` bounds the dial
    and every establishment read, as on the blocking client.

    Rebinds as on the blocking client: a ``resume_query`` grant at
    exactly the offset where this process closed the session unfinished
    carries on with the MD5 parked then, and ``digest_factory`` is
    called only when nothing parked matches the grant.
    """

    def __init__(
        self,
        route: Sequence[Tuple[str, int]],
        payload_length: Optional[int] = None,
        digest: bool = True,
        sync: bool = True,
        timeout: float = 30.0,
        rng: Optional[random.Random] = None,
        framed: bool = False,
        session_id: Optional[bytes] = None,
        rebind: bool = False,
        resume_offset: int = 0,
        resume_query: bool = False,
        digest_state: Optional[StreamDigest] = None,
        digest_factory: Optional[Callable[[int], StreamDigest]] = None,
        tracer: Optional[TraceSpool] = None,
        trace_id: Optional[bytes] = None,
        trace_parent: int = 0,
    ) -> None:
        super().__init__(
            plan_client_session(
                route, payload_length, digest, sync, rng, framed, session_id,
                rebind, resume_offset, resume_query, digest_state,
                digest_factory,
            ),
            tracer, trace_id, trace_parent, rng,
        )
        self._connect_timeout = timeout
        self.sock: Optional[socket.socket] = None

    @classmethod
    async def open(cls, *args, **kwargs) -> "AsyncLslClient":
        client = cls(*args, **kwargs)
        await client.connect()
        return client

    async def connect(self) -> None:
        """Dial the first hop, send the header, run establishment."""
        loop = asyncio.get_running_loop()
        timeout = self._connect_timeout
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        first = self.dial()
        try:
            await connect_by(sock, (first.host, first.port), timeout)
            await loop.sock_sendall(sock, self.initial_bytes())
            while self.bytes_needed:
                self.feed(await recv_by(sock, self.bytes_needed, timeout))
        except BaseException as exc:
            self._end_trace("error", exc)
            sock.close()
            raise
        self.sock = sock

    def _require_connected(self) -> Tuple[asyncio.AbstractEventLoop, socket.socket]:
        if self.sock is None:
            raise ProtocolError("client is not connected")
        return asyncio.get_running_loop(), self.sock

    async def sendall(self, data: bytes) -> None:
        loop, sock = self._require_connected()
        for wire in self.payload_writes(data):
            await loop.sock_sendall(sock, wire)

    async def recv(self, n: int = 65536) -> bytes:
        """Reverse-direction (server to client) bytes; b'' on EOF."""
        loop, sock = self._require_connected()
        return await loop.sock_recv(sock, n)

    async def finish(self) -> None:
        """Send the MD5 trailer (when enabled) and half-close."""
        loop, sock = self._require_connected()
        if self._sender.finished:
            return
        trailer = self.trailer()
        if trailer:
            await loop.sock_sendall(sock, trailer)
        sock.shutdown(socket.SHUT_WR)
        self._end_trace("ok")

    def close(self) -> None:
        """Close the socket; without :meth:`finish` the server suspends
        the session and its MD5 is parked for a rebind."""
        self.release()
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    async def __aenter__(self) -> "AsyncLslClient":
        if self.sock is None:
            await self.connect()
        return self

    async def __aexit__(self, *exc) -> None:
        self.close()
