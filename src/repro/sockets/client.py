"""Blocking LSL client over real sockets.

Thin driver over the sans-I/O core: :class:`~repro.lsl.core.ClientHandshake`
sequences establishment (including negotiated resume) and
:class:`~repro.lsl.core.PayloadSender` owns payload accounting and the
MD5 trailer — the same machines the simulator client drives, so the
two stacks emit byte-identical wire streams.
"""

from __future__ import annotations

import random
import socket
from typing import Callable, Optional, Sequence, Tuple

from repro.lsl.core import (
    ClientHandshake,
    PayloadSender,
    ProtocolError,
    StreamDigest,
    TraceContext,
    encode_frame_header,
    MAX_FRAME_PAYLOAD,
)
from repro.lsl.core.errors import LslError
from repro.lsl.core.session import new_session_id
from repro.lsl.core.wire import LslHeader, RouteHop, STREAM_UNTIL_FIN
from repro.telemetry.tracing import TraceSpool, new_trace_id


def plan_client_session(
    route: Sequence[Tuple[str, int]],
    payload_length: Optional[int] = None,
    digest: bool = True,
    sync: bool = True,
    rng: Optional[random.Random] = None,
    framed: bool = False,
    session_id: Optional[bytes] = None,
    rebind: bool = False,
    resume_offset: int = 0,
    resume_query: bool = False,
    digest_state: Optional[StreamDigest] = None,
    digest_factory: Optional[Callable[[int], StreamDigest]] = None,
    trace: Optional[TraceContext] = None,
) -> Tuple[LslHeader, ClientHandshake, PayloadSender]:
    """Validate client options and build the session's core machines.

    Shared by every real-socket client driver (blocking and asyncio) so
    the argument validation and the encoded header cannot drift between
    them — the same combination of options always produces the same
    header bytes and the same handshake/sender state.
    """
    if digest and payload_length is None:
        raise LslError("digest=True requires payload_length")
    if framed and payload_length is None:
        raise LslError("framed=True requires payload_length")
    if resume_query and not rebind:
        raise LslError("resume_query only applies to rebinds")
    if resume_query and not sync:
        raise LslError("resume_query requires sync establishment")
    if resume_query and digest and digest_factory is None:
        raise LslError("resume_query with digest needs digest_factory")
    hops = tuple(RouteHop(h, p) for h, p in route)
    if session_id is None:
        session_id = new_session_id(rng or random.Random())
    header = LslHeader(
        session_id=session_id,
        route=hops,
        hop_index=0,
        payload_length=(
            STREAM_UNTIL_FIN if payload_length is None else payload_length
        ),
        digest=digest,
        sync=sync,
        framed=framed,
        rebind=rebind,
        resume_offset=0 if resume_query else resume_offset,
        resume_query=resume_query,
        trace=trace,
    )
    handshake = ClientHandshake(header)
    sender = PayloadSender(header, digest_state, digest_factory)
    return header, handshake, sender


class LslSocketClient:
    """Open an LSL session along ``route`` over real TCP sockets.

    Usage::

        with LslSocketClient(route, payload_length=len(data)) as conn:
            conn.sendall(data)
            conn.finish()

    ``framed=True`` wraps payload in session-layer frames (offset +
    length), letting the receiver detect torn streams and making
    resumption explicit on the wire.

    Rebinds: pass ``session_id`` + ``rebind=True`` to re-attach to a
    live session. With ``resume_query=True`` the server answers with
    its contiguously-received count; the granted offset is applied
    before the constructor returns (see :attr:`granted_offset`) and
    ``digest_factory(offset)`` rebuilds the MD5 state for the prefix —
    use :func:`repro.lsl.core.real_digest_factory` when the payload is
    in hand.

    Tracing: pass a :class:`~repro.telemetry.TraceSpool` as ``tracer``
    to emit ``client.session`` / ``client.dial`` / ``client.handshake``
    spans and carry the trace context on the wire (FLAG_TRACE). On a
    rebind, pass the first attempt's :attr:`trace_id` back in so the
    pre-crash attempt and the resumed transfer share one trace.
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
        first = self.header.route[0]
        span = 0
        if tracer is not None:
            assert self.trace_id is not None
            span = tracer.begin(
                "client.dial", self.trace_id, self._session_span,
                hop=str(first),
            )
        try:
            self.sock = socket.create_connection(
                (first.host, first.port), timeout=timeout
            )
        except OSError as exc:
            self._end_trace("error", span=span, error=str(exc))
            raise
        if tracer is not None:
            tracer.end(span)
            assert self.trace_id is not None
            span = tracer.begin(
                "client.handshake", self.trace_id, self._session_span
            )
        try:
            self.sock.sendall(self._handshake.initial_bytes())
            while not self._handshake.established:
                need = self._handshake.bytes_needed
                data = self.sock.recv(need)
                if not data:
                    self.sock.close()
                    raise ProtocolError("EOF during session establishment")
                try:
                    self._handshake.feed(data)
                except ProtocolError:
                    self.sock.close()
                    raise
        except (OSError, ProtocolError) as exc:
            self._end_trace("error", span=span, error=str(exc))
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

    def sendall(self, data: bytes) -> None:
        self._sender.check_room(len(data))
        if self.header.framed:
            pos = 0
            while pos < len(data):
                piece = data[pos : pos + MAX_FRAME_PAYLOAD]
                self.sock.sendall(
                    encode_frame_header(self._sender.bytes_sent, len(piece))
                    + piece
                )
                self._sender.record(piece)
                pos += len(piece)
        else:
            self.sock.sendall(data)
            self._sender.record(data)

    def recv(self, n: int = 65536) -> bytes:
        """Reverse-direction (server to client) bytes; b'' on EOF."""
        return self.sock.recv(n)

    def finish(self) -> None:
        """Send the MD5 trailer (when enabled) and half-close."""
        if self._sender.finished:
            return
        trailer = self._sender.finish()
        if trailer:
            if self.header.framed:
                # trailer frame: offset == declared payload length
                declared = self.declared_length
                assert declared is not None
                self.sock.sendall(
                    encode_frame_header(declared, len(trailer)) + trailer
                )
            else:
                self.sock.sendall(trailer)
        self.sock.shutdown(socket.SHUT_WR)
        self._end_trace("ok")

    def close(self) -> None:
        self._end_trace("aborted")
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "LslSocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
