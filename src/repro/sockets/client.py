"""The LSL client session, and its blocking driver over real sockets.

:class:`ClientSession` is the protocol half of one client session,
whatever carries its bytes: the planned header, the establishment
machine (:class:`~repro.lsl.core.ClientHandshake`), payload accounting
and the MD5 trailer (:class:`~repro.lsl.core.PayloadSender`), the
frame encoding, and the ``client.session`` / ``client.dial`` /
``client.handshake`` spans. The three client drivers are subclasses
that only move bytes: :class:`LslSocketClient` here (blocking),
:class:`repro.asockets.AsyncLslClient` (asyncio) and the simulator's
:class:`repro.lsl.client.LslClientConnection` — so the same options put
the same bytes on the wire and the same spans in the trace on all three.

A real-socket client that closes a digested session unfinished parks
its running MD5 here, keyed by session id, in a table of at most
:data:`PARKED_DIGESTS` (oldest dropped first). A ``resume_query``
rebind from the same process whose granted offset is exactly the
parked byte count adopts that MD5 instead of calling its
``digest_factory``, so resuming does not re-hash the prefix it already
sent; any other grant (a smaller one, no entry) calls the factory.
Every grant on an id takes its entry, used or not.
"""

from __future__ import annotations

import random
import socket
import threading
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

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

#: How many unfinished sessions' running MD5s this process keeps for a
#: rebind. Each entry is one MD5 state, never bytes or a socket, and a
#: miss only costs the factory's re-hash, so the oldest is dropped
#: without asking anyone.
PARKED_DIGESTS = 16

_parked: Dict[bytes, Tuple[int, StreamDigest]] = {}
_parked_lock = threading.Lock()


def _park(session_id: bytes, bytes_sent: int, digest: StreamDigest) -> None:
    """Keep a copy of ``digest`` (the MD5 of ``bytes_sent`` bytes) for a
    rebind of ``session_id``."""
    entry = (bytes_sent, digest.copy())
    with _parked_lock:
        _parked.pop(session_id, None)
        _parked[session_id] = entry
        if len(_parked) > PARKED_DIGESTS:
            del _parked[next(iter(_parked))]


def _unpark(session_id: bytes) -> Optional[Tuple[int, StreamDigest]]:
    """Take the entry parked for ``session_id``, if any."""
    with _parked_lock:
        return _parked.pop(session_id, None)


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

    The one place every client option is checked, for all three
    drivers, so the same combination of options always produces the
    same header bytes and the same handshake/sender state — or the same
    :class:`LslError`, before anything is dialed. A session id is drawn
    from ``rng`` when none is given.
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
    if rebind and digest and resume_offset > 0 and not resume_query:
        if digest_state is None:
            raise LslError("rebind with digest needs the prior digest_state")
    if session_id is None:
        session_id = new_session_id(rng or random.Random())
    header = LslHeader(
        session_id=session_id,
        route=tuple(RouteHop(h, p) for h, p in route),
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


class ClientSession:
    """One client session's protocol state, for any driver.

    Built from what :func:`plan_client_session` returns; with a
    ``tracer`` it opens ``client.session`` (trace id drawn from
    ``trace_rng`` unless given) and carries its context in
    :attr:`header` (the handshake and sender never read it).
    A driver runs :meth:`dial`, sends :meth:`initial_bytes` once
    connected, then passes :meth:`feed` reads of at most
    :attr:`bytes_needed` until that is 0; payload goes out as
    :meth:`payload_writes`, the end as :meth:`trailer`. Spans end by
    one rule, :meth:`_end_trace`. A driver closing the session calls
    :meth:`release`, which parks an unfinished MD5 (module docstring).
    """

    #: Whether this driver parks an unfinished session's MD5 on
    #: :meth:`release` and adopts a parked one on a matching grant. The
    #: simulator's client does neither: its ``close()`` is ``finish()``,
    #: and its payload may be virtual.
    parks_digest = True

    def __init__(
        self,
        planned: Tuple[LslHeader, ClientHandshake, PayloadSender],
        tracer: Optional[TraceSpool] = None,
        trace_id: Optional[bytes] = None,
        trace_parent: int = 0,
        trace_rng: Optional[random.Random] = None,
    ) -> None:
        header, self._handshake, self._sender = planned
        self._tracer = tracer
        self._session_span = 0
        self._span = 0  # the open client.dial or client.handshake span
        self.trace_id: Optional[bytes] = trace_id
        if tracer is not None:
            if trace_id is None:
                self.trace_id = new_trace_id(trace_rng)
            self._session_span = tracer.begin(
                "client.session", self.trace_id, parent=trace_parent,
                session=header.short_id, rebind=header.rebind,
                route=[str(hop) for hop in header.route],
            )
            header = header.with_trace(
                TraceContext(self.trace_id, self._session_span, 0)
            )
        self.header = header

    # -- establishment ----------------------------------------------------

    def _begin(self, name: str, **attrs) -> None:
        if self._tracer is not None:
            self._span = self._tracer.begin(
                name, self.trace_id, self._session_span, **attrs
            )

    def _end_span(self, **attrs) -> None:
        if self._span:
            self._tracer.end(self._span, **attrs)
            self._span = 0

    def dial(self) -> RouteHop:
        """Open ``client.dial``; the first hop, which the driver dials."""
        first = self.header.route[0]
        self._begin("client.dial", hop=str(first))
        return first

    def initial_bytes(self) -> bytes:
        """The dial is up: end ``client.dial``, open ``client.handshake``
        (ended at once without ``sync``), return the encoded header."""
        self._end_span()
        self._begin("client.handshake")
        if not self._handshake.bytes_needed:
            self._end_span(granted=-1)
        return self.header.encode()

    @property
    def bytes_needed(self) -> int:
        """Most bytes the next establishment read may take (0: done)."""
        return self._handshake.bytes_needed

    def feed(self, data: bytes) -> bool:
        """Consume establishment bytes (``b""`` is EOF, an error); True
        once established, which ends ``client.handshake`` and rebases
        the payload and its digest on a granted resume offset."""
        if not data:
            raise ProtocolError("EOF during session establishment")
        if not self._handshake.feed(data):
            return False
        granted = self._handshake.granted_offset
        self._end_span(granted=-1 if granted is None else granted)
        if granted is not None:
            self._sender.rebase(granted, self._parked_digest(granted))
        return True

    def _parked_digest(self, granted: int) -> Optional[StreamDigest]:
        """The MD5 this process parked for exactly ``granted`` bytes of
        this session, or None (the sender then calls its factory)."""
        if not self.parks_digest:
            return None
        parked = _unpark(self.header.session_id)
        if parked is None or parked[0] != granted:
            return None
        return parked[1]

    def _end_trace(
        self, status: str, error: Optional[BaseException] = None
    ) -> None:
        """End the open dial/handshake span and the session span with
        ``status`` (and ``error=str(error)``); idempotent."""
        if self._tracer is None:
            return
        attrs = {"status": status}
        if error is not None:
            attrs["error"] = str(error)
        self._end_span(**attrs)
        if self._session_span:
            self._tracer.end(
                self._session_span, bytes=self._sender.bytes_sent, **attrs
            )
            self._session_span = 0

    def release(self) -> None:
        """The driver is closing the session: end its spans as aborted
        (unless they ended already) and, when it is digested,
        established, unfinished and has sent payload, park its MD5."""
        self._end_trace("aborted")
        sender = self._sender
        if (
            self.parks_digest
            and self.header.digest
            and self._handshake.established
            and sender.bytes_sent > 0
            and not sender.finished
        ):
            _park(self.header.session_id, sender.bytes_sent, sender.digest)

    # -- payload ----------------------------------------------------------

    @property
    def digest(self) -> StreamDigest:
        """The running end-to-end MD5 (carried across rebinds)."""
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

    def _check_room(self, nbytes: int) -> None:
        if self._handshake.awaiting_offset:
            raise LslError("send before the resume offset was granted")
        self._sender.check_room(nbytes)

    def payload_writes(self, data: bytes) -> Iterator[bytes]:
        """The wire writes carrying ``data`` (framed: in frames of at
        most ``MAX_FRAME_PAYLOAD``), each accounted once the driver asks
        for the next, so a write that raises is not counted."""
        self._check_room(len(data))
        sender = self._sender
        if not self.header.framed:
            yield data
            sender.record(data)
            return
        for pos in range(0, len(data), MAX_FRAME_PAYLOAD):
            piece = data[pos : pos + MAX_FRAME_PAYLOAD]
            yield encode_frame_header(sender.bytes_sent, len(piece)) + piece
            sender.record(piece)

    def trailer(self) -> bytes:
        """Declare the payload complete: the trailer to send before FIN,
        the MD5 (framed: at offset = declared length) or ``b""``."""
        trailer = self._sender.finish()
        if trailer and self.header.framed:
            return encode_frame_header(self.declared_length, len(trailer)) + trailer
        return trailer


class LslSocketClient(ClientSession):
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
    before the constructor returns (see :attr:`granted_offset`). When
    this process closed the session unfinished at exactly that offset,
    the MD5 it parked then carries on; only otherwise does
    ``digest_factory(offset)`` rebuild the MD5 state for the prefix —
    use :func:`repro.lsl.core.real_digest_factory` when the payload is
    in hand.

    ``timeout`` bounds the dial and every establishment read; when one
    runs out (or establishment fails otherwise) the socket is closed,
    the spans end in error and the constructor raises.

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
        super().__init__(
            plan_client_session(
                route, payload_length, digest, sync, rng, framed, session_id,
                rebind, resume_offset, resume_query, digest_state,
                digest_factory,
            ),
            tracer, trace_id, trace_parent, rng,
        )
        # the simulator imports this module but never dials: the
        # threaded chassis loads with the first real client
        from repro.sockets.wire import dial

        first = self.dial()
        sock = None
        try:
            sock = dial(first, timeout)
            sock.sendall(self.initial_bytes())
            while self.bytes_needed:
                self.feed(sock.recv(self.bytes_needed))
            # established: a timeout would bound each whole ``sendall``,
            # failing a payload that drains slower than it but steadily
            sock.settimeout(None)
        except BaseException as exc:
            self._end_trace("error", exc)
            if sock is not None:
                sock.close()
            raise
        self.sock = sock

    def sendall(self, data: bytes) -> None:
        for wire in self.payload_writes(data):
            self.sock.sendall(wire)

    def recv(self, n: int = 65536) -> bytes:
        """Reverse-direction (server to client) bytes; b'' on EOF."""
        return self.sock.recv(n)

    def finish(self) -> None:
        """Send the MD5 trailer (when enabled) and half-close."""
        if self._sender.finished:
            return
        trailer = self.trailer()
        if trailer:
            self.sock.sendall(trailer)
        self.sock.shutdown(socket.SHUT_WR)
        self._end_trace("ok")

    def close(self) -> None:
        """Close the socket; without :meth:`finish` the server suspends
        the session and its MD5 is parked for a rebind."""
        self.release()
        try:
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "LslSocketClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
