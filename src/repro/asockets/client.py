"""Asyncio LSL client over real sockets.

Drives the exact machines the blocking client drives —
:func:`~repro.sockets.client.plan_client_session` builds the header,
:class:`~repro.lsl.core.ClientHandshake` and
:class:`~repro.lsl.core.PayloadSender` from the same arguments — so
the two clients put byte-identical streams on the wire. The transport
is a plain non-blocking socket, dialed try-first
(:func:`~repro.asockets.runtime.connect_by`), then driven through
``loop.sock_*``; establishment reads are capped at
``handshake.bytes_needed``: no reverse-direction byte is swallowed.

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

from repro.lsl.core import (
    MAX_FRAME_PAYLOAD,
    ProtocolError,
    StreamDigest,
    TraceContext,
    encode_frame_header,
)
from repro.lsl.core.session import new_session_id
from repro.asockets.runtime import connect_by
from repro.sockets.client import plan_client_session
from repro.telemetry.tracing import TraceSpool, new_trace_id


class AsyncLslClient:
    """One LSL session along ``route`` over an asyncio-driven socket.

    Construct via :meth:`open` (or construct then ``await connect()``).
    The constructor itself performs no I/O; all option validation and
    header construction happen synchronously so a bad combination
    raises before any connection exists.
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
        self._tracer = tracer
        self._session_span = 0
        self.trace_id: Optional[bytes] = trace_id
        trace: Optional[TraceContext] = None
        if tracer is not None:
            if session_id is None:
                session_id = new_session_id(rng or random.Random())
            if self.trace_id is None:
                self.trace_id = new_trace_id(rng)
            self._session_span = tracer.begin(
                "client.session",
                self.trace_id,
                parent=trace_parent,
                session=session_id.hex()[:8],
                route=[f"{h}:{p}" for h, p in route],
                rebind=rebind,
            )
            trace = TraceContext(self.trace_id, self._session_span, 0)
        self.header, self._handshake, self._sender = plan_client_session(
            route,
            payload_length=payload_length,
            digest=digest,
            sync=sync,
            rng=rng,
            framed=framed,
            session_id=session_id,
            rebind=rebind,
            resume_offset=resume_offset,
            resume_query=resume_query,
            digest_state=digest_state,
            digest_factory=digest_factory,
            trace=trace,
        )
        self._connect_timeout = timeout
        self.sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    @classmethod
    async def open(cls, *args, **kwargs) -> "AsyncLslClient":
        client = cls(*args, **kwargs)
        await client.connect()
        return client

    async def connect(self) -> None:
        """Dial the first hop, send the header, run establishment."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        first = self.header.route[0]
        tracer = self._tracer
        span = 0
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        try:
            if tracer is not None:
                assert self.trace_id is not None
                span = tracer.begin(
                    "client.dial", self.trace_id, self._session_span,
                    hop=str(first),
                )
            await connect_by(
                sock, (first.host, first.port), self._connect_timeout
            )
            self.sock = sock
            if tracer is not None:
                tracer.end(span)
                assert self.trace_id is not None
                span = tracer.begin(
                    "client.handshake", self.trace_id, self._session_span
                )
            await loop.sock_sendall(sock, self._handshake.initial_bytes())
            while not self._handshake.established:
                need = self._handshake.bytes_needed
                data = await loop.sock_recv(sock, need)
                if not data:
                    raise ProtocolError("EOF during session establishment")
                self._handshake.feed(data)
        except BaseException as exc:
            self.sock = None
            self._end_trace("error", span=span, error=str(exc))
            try:
                sock.close()
            except OSError:
                pass
            raise
        granted = self._handshake.granted_offset
        if tracer is not None:
            tracer.end(span, granted=granted if granted is not None else -1)
        if granted is not None:
            self._sender.rebase(granted)

    def _end_trace(self, status: str, span: int = 0, **attrs) -> None:
        """Close the open dial/handshake span (if any) and the session
        span; idempotent so error paths and close() can both call it."""
        if self._tracer is None:
            return
        if span:
            self._tracer.end(span, **attrs)
        if self._session_span:
            self._tracer.end(
                self._session_span,
                status=status,
                bytes=self._sender.bytes_sent,
            )
            self._session_span = 0

    # -- payload --------------------------------------------------------

    @property
    def digest(self) -> StreamDigest:
        return self._sender.digest

    @property
    def bytes_sent(self) -> int:
        return self._sender.bytes_sent

    @property
    def granted_offset(self) -> Optional[int]:
        """Server-granted resume offset (``resume_query`` rebinds only)."""
        return self._handshake.granted_offset

    @property
    def declared_length(self) -> Optional[int]:
        return self._sender.declared_length

    @property
    def remaining(self) -> Optional[int]:
        return self._sender.remaining

    def _require_connected(self) -> Tuple[asyncio.AbstractEventLoop, socket.socket]:
        if self.sock is None or self._loop is None:
            raise ProtocolError("client is not connected")
        return self._loop, self.sock

    async def sendall(self, data: bytes) -> None:
        loop, sock = self._require_connected()
        self._sender.check_room(len(data))
        if self.header.framed:
            pos = 0
            while pos < len(data):
                piece = data[pos : pos + MAX_FRAME_PAYLOAD]
                await loop.sock_sendall(
                    sock,
                    encode_frame_header(self._sender.bytes_sent, len(piece))
                    + piece,
                )
                self._sender.record(piece)
                pos += len(piece)
        else:
            await loop.sock_sendall(sock, data)
            self._sender.record(data)

    async def recv(self, n: int = 65536) -> bytes:
        """Reverse-direction (server to client) bytes; b'' on EOF."""
        loop, sock = self._require_connected()
        return await loop.sock_recv(sock, n)

    async def finish(self) -> None:
        """Send the MD5 trailer (when enabled) and half-close."""
        loop, sock = self._require_connected()
        if self._sender.finished:
            return
        trailer = self._sender.finish()
        if trailer:
            if self.header.framed:
                declared = self.declared_length
                assert declared is not None
                await loop.sock_sendall(
                    sock, encode_frame_header(declared, len(trailer)) + trailer
                )
            else:
                await loop.sock_sendall(sock, trailer)
        sock.shutdown(socket.SHUT_WR)
        self._end_trace("ok")

    def close(self) -> None:
        self._end_trace("aborted")
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
