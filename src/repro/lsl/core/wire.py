"""The LSL wire header: codec and incremental parser.

The header travels as the first real bytes of each sublink's TCP
stream. A depot parses it, advances ``hop_index``, and forwards the
re-encoded header down the next sublink before relaying payload.

Layout (big-endian)::

    offset  size  field
    0       4     magic  b"LSL1"
    4       1     version (1)
    5       1     flags   (bit 0: MD5 trailer follows payload,
                           bit 1: rebind of an existing session,
                           bit 2: synchronous establishment — the server
                                  acks the session through the cascade
                                  before the client sends payload,
                           bit 3: framed payload — see repro.lsl.core.framing,
                           bit 4: resume query — rebind asks the server
                                  for the authoritative resume offset,
                           bit 5: trace — a 25-byte trace descriptor
                                  follows the route section)
    6       16    session id
    22      8     payload length (0xFFFF_FFFF_FFFF_FFFF = stream until FIN)
    30      8     resume offset (rebind only; else 0)
    38      1     hop index (which route entry the *receiver* is)
    39      1     hop count N (1..16)
    40      -     N hops: 1 byte host length, host utf-8, 2 bytes port
    -       25    trace descriptor, only when FLAG_TRACE is set:
                  16 bytes trace id, 8 bytes parent span id, 1 byte
                  trace hop index

The final hop is the server; earlier hops are depots. The paper calls
this the "loose source route" through session-layer routers.

:class:`HeaderAccumulator` is the incremental (feed-based) parser both
stacks use: feed stream bytes as the transport delivers them; it
never claims more than the header and reports any surplus payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

from repro.lsl.core.errors import ProtocolError, RouteError

HEADER_MAGIC = b"LSL1"
#: Single byte the server sends back through the cascade to confirm
#: synchronous session establishment.
SESSION_ACK = b"\x06"
HEADER_VERSION = 1
STREAM_UNTIL_FIN = 0xFFFF_FFFF_FFFF_FFFF
MAX_HOPS = 16

FLAG_DIGEST = 0x01
FLAG_REBIND = 0x02
FLAG_SYNC = 0x04
FLAG_FRAMED = 0x08
#: Negotiated resume: on a rebind, the client does not claim an offset —
#: it asks. The server replies SESSION_ACK followed by 8 bytes
#: (big-endian) of its contiguously-received payload count, and the
#: client resumes from there. Requires FLAG_REBIND and FLAG_SYNC.
FLAG_RESUME_QUERY = 0x10
#: Distributed-tracing context rides the header: a fixed 25-byte
#: descriptor (16-byte trace id, 8-byte parent span id, 1-byte hop
#: index) follows the route section. Negotiated like FLAG_FRAMED —
#: untraced peers never see the flag and their headers are
#: byte-identical to the pre-trace wire format.
FLAG_TRACE = 0x20

_FIXED = struct.Struct(">4sBB16sQQBB")
_TRACE = struct.Struct(">16sQB")


class RouteHop(NamedTuple):
    """One entry of the loose source route."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(frozen=True)
class TraceContext:
    """Trace context carried on the wire when FLAG_TRACE is set.

    ``trace_id`` names the whole end-to-end transfer (rebinds and
    resumed attempts reuse it); ``parent_span`` is the span id of the
    sending process's active span, so each receiver can parent its own
    span correctly; ``hop`` counts traced processes crossed so far.
    """

    trace_id: bytes  # 16 bytes, same width as a session id
    parent_span: int = 0  # 0 = root (no parent)
    hop: int = 0

    def __post_init__(self) -> None:
        if len(self.trace_id) != 16:
            raise ProtocolError(
                f"trace id must be 16 bytes, got {len(self.trace_id)}"
            )
        if not (0 <= self.parent_span < 1 << 64):
            raise ProtocolError(f"bad parent span {self.parent_span}")
        if not (0 <= self.hop <= 255):
            raise ProtocolError(f"bad trace hop {self.hop}")

    @property
    def short_id(self) -> str:
        """First 8 hex chars of the trace id (logs and span attrs)."""
        return self.trace_id.hex()[:8]

    def child(self, parent_span: int) -> "TraceContext":
        """The context a traced process forwards downstream: same
        trace, this process's span as the parent, hop advanced."""
        return TraceContext(
            trace_id=self.trace_id,
            parent_span=parent_span,
            hop=min(self.hop + 1, 255),
        )


@dataclass(frozen=True)
class LslHeader:
    """Parsed LSL header."""

    session_id: bytes  # 16 bytes
    route: Tuple[RouteHop, ...]  # depots... then the final server
    hop_index: int = 0  # which hop the receiver of this header is
    payload_length: int = STREAM_UNTIL_FIN
    digest: bool = True
    rebind: bool = False
    sync: bool = True
    #: Session-layer framing: payload arrives as (offset, length)
    #: frames, possibly over several parallel sublinks (Section VII).
    framed: bool = False
    resume_offset: int = 0
    #: Ask the server for the authoritative resume offset instead of
    #: asserting one (see FLAG_RESUME_QUERY).
    resume_query: bool = False
    #: Distributed-tracing context (see FLAG_TRACE); None when the
    #: session is untraced, in which case the encoding is byte-identical
    #: to the pre-trace wire format.
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if self.resume_query and not (self.rebind and self.sync):
            raise ProtocolError("resume_query requires rebind and sync")
        if len(self.session_id) != 16:
            raise ProtocolError(
                f"session id must be 16 bytes, got {len(self.session_id)}"
            )
        if not (1 <= len(self.route) <= MAX_HOPS):
            raise RouteError(
                f"route must have 1..{MAX_HOPS} hops, got {len(self.route)}"
            )
        if not (0 <= self.hop_index < len(self.route)):
            raise RouteError(
                f"hop index {self.hop_index} outside route of {len(self.route)}"
            )
        if self.payload_length < 0:
            raise ProtocolError("negative payload length")
        if self.resume_offset < 0:
            raise ProtocolError("negative resume offset")
        for hop in self.route:
            if not hop.host or len(hop.host.encode()) > 255:
                raise RouteError(f"bad hop host {hop.host!r}")
            if not (0 < hop.port < 65536):
                raise RouteError(f"bad hop port {hop.port}")

    # -- role helpers ----------------------------------------------------

    @property
    def short_id(self) -> str:
        """First 8 hex chars of the session id — the human-facing handle
        used in logs and telemetry span groups."""
        return self.session_id.hex()[:8]

    @property
    def is_last_hop(self) -> bool:
        """True when the receiver is the final server."""
        return self.hop_index == len(self.route) - 1

    @property
    def next_hop(self) -> RouteHop:
        """The hop a depot must forward to."""
        if self.is_last_hop:
            raise RouteError("final hop has no next hop")
        return self.route[self.hop_index + 1]

    def advanced(self) -> "LslHeader":
        """Header to send down the next sublink (hop index + 1).

        An attached trace context is forwarded verbatim: an untraced
        depot in the middle of a traced route keeps the upstream span
        as the parent, which is exactly the edge the collector should
        draw around an opaque hop.
        """
        return replace(self, hop_index=self.hop_index + 1)

    def with_trace(self, trace: Optional[TraceContext]) -> "LslHeader":
        """This header with ``trace`` attached (or detached)."""
        return replace(self, trace=trace)

    def traced_onward(self, parent_span: int) -> "LslHeader":
        """Advanced header naming this process's span as the parent.

        What a *traced* depot forwards instead of the plain
        :meth:`advanced` encoding: hop index + 1, same trace id, trace
        hop + 1, ``parent_span`` = the depot's own relay span.
        """
        if self.trace is None:
            raise ProtocolError("traced_onward on an untraced header")
        return replace(
            self,
            hop_index=self.hop_index + 1,
            trace=self.trace.child(parent_span),
        )

    # -- wire codec --------------------------------------------------------

    def encode(self) -> bytes:
        flags = (
            (FLAG_DIGEST if self.digest else 0)
            | (FLAG_REBIND if self.rebind else 0)
            | (FLAG_SYNC if self.sync else 0)
            | (FLAG_FRAMED if self.framed else 0)
            | (FLAG_RESUME_QUERY if self.resume_query else 0)
            | (FLAG_TRACE if self.trace is not None else 0)
        )
        parts = [
            _FIXED.pack(
                HEADER_MAGIC,
                HEADER_VERSION,
                flags,
                self.session_id,
                self.payload_length,
                self.resume_offset,
                self.hop_index,
                len(self.route),
            )
        ]
        for hop in self.route:
            encoded = hop.host.encode("utf-8")
            parts.append(struct.pack(">B", len(encoded)))
            parts.append(encoded)
            parts.append(struct.pack(">H", hop.port))
        if self.trace is not None:
            parts.append(
                _TRACE.pack(
                    self.trace.trace_id,
                    self.trace.parent_span,
                    self.trace.hop,
                )
            )
        return b"".join(parts)

    @property
    def encoded_length(self) -> int:
        return len(self.encode())

    @classmethod
    def decode(cls, data: bytes) -> Tuple["LslHeader", int]:
        """Parse a header from the front of ``data``.

        Returns ``(header, bytes_consumed)``. Raises
        :class:`ProtocolError` on malformed input and
        :class:`IncompleteHeader` if more bytes are needed.
        """
        if len(data) < _FIXED.size:
            raise IncompleteHeader(_FIXED.size - len(data))
        (
            magic,
            version,
            flags,
            session_id,
            payload_length,
            resume_offset,
            hop_index,
            hop_count,
        ) = _FIXED.unpack_from(data, 0)
        if magic != HEADER_MAGIC:
            raise ProtocolError(f"bad magic {magic!r}")
        if version != HEADER_VERSION:
            raise ProtocolError(f"unsupported version {version}")
        if not (1 <= hop_count <= MAX_HOPS):
            raise ProtocolError(f"bad hop count {hop_count}")
        pos = _FIXED.size
        hops: List[RouteHop] = []
        for _ in range(hop_count):
            if len(data) < pos + 1:
                raise IncompleteHeader(1)
            (hlen,) = struct.unpack_from(">B", data, pos)
            pos += 1
            if len(data) < pos + hlen + 2:
                raise IncompleteHeader(pos + hlen + 2 - len(data))
            host = data[pos : pos + hlen].decode("utf-8")
            pos += hlen
            (port,) = struct.unpack_from(">H", data, pos)
            pos += 2
            hops.append(RouteHop(host, port))
        trace: Optional[TraceContext] = None
        if flags & FLAG_TRACE:
            if len(data) < pos + _TRACE.size:
                raise IncompleteHeader(pos + _TRACE.size - len(data))
            trace_id, parent_span, trace_hop = _TRACE.unpack_from(data, pos)
            pos += _TRACE.size
            trace = TraceContext(
                trace_id=trace_id, parent_span=parent_span, hop=trace_hop
            )
        header = cls(
            session_id=session_id,
            route=tuple(hops),
            hop_index=hop_index,
            payload_length=payload_length,
            digest=bool(flags & FLAG_DIGEST),
            rebind=bool(flags & FLAG_REBIND),
            sync=bool(flags & FLAG_SYNC),
            framed=bool(flags & FLAG_FRAMED),
            resume_offset=resume_offset,
            resume_query=bool(flags & FLAG_RESUME_QUERY),
            trace=trace,
        )
        return header, pos


class IncompleteHeader(Exception):
    """More stream bytes are required to finish parsing the header.

    ``missing`` is a lower bound on how many more bytes are needed.
    """

    def __init__(self, missing: int) -> None:
        super().__init__(f"need at least {missing} more bytes")
        self.missing = missing


class HeaderAccumulator:
    """Incremental header parser for a byte stream.

    Feed real stream bytes as they arrive; returns the parsed header
    (plus any surplus payload bytes) once complete. ``hint`` is a
    lower bound on the bytes still needed — drivers doing their own
    buffering can use it to size reads, though over-reading is safe
    (the excess lands in ``surplus``).
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.header: Optional[LslHeader] = None
        self.surplus: bytes = b""
        self.hint: int = _FIXED.size

    def feed(self, data: bytes) -> Optional[LslHeader]:
        """Returns the header once fully parsed; None while incomplete."""
        if self.header is not None:
            raise ProtocolError("header already parsed")
        self._buf.extend(data)
        try:
            header, consumed = LslHeader.decode(bytes(self._buf))
        except IncompleteHeader as inc:
            self.hint = inc.missing
            return None
        self.header = header
        self.surplus = bytes(self._buf[consumed:])
        self.hint = 0
        del self._buf[:]
        return header
