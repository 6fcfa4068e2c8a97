"""Server-side payload ingestion, trailer collection, digest check.

:class:`PayloadReceiver` is the machine behind every LSL receiving
endpoint: it splits the inbound stream into payload (delivered to the
application) and the digest trailer, verifies the end-to-end MD5 at
the declared boundary, and classifies EOF — completion, suspension
(mobility: keep state for a rebind), or plain close. It survives
transport rebinds untouched because it holds no transport state.

:class:`FramedReceiver` adapts the same machine to framed streams
arriving *in order* on a single sublink (the real-socket framed path;
the simulator's striped server does its own multi-sublink reassembly
on top of :class:`~repro.lsl.core.framing.FrameDecoder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.lsl.core.chunks import Chunk, ChunkLike, split_chunk
from repro.lsl.core.digest import DIGEST_LEN, StreamDigest
from repro.lsl.core.errors import DigestMismatch, ProtocolError
from repro.lsl.core.events import ProtocolObserver, emit
from repro.lsl.core.framing import FrameDecoder
from repro.lsl.core.wire import STREAM_UNTIL_FIN, LslHeader


@dataclass(frozen=True)
class Deliver:
    """Payload for the application (in stream order)."""

    chunk: Chunk


@dataclass(frozen=True)
class Completed:
    """The session finished; ``digest_ok`` is None without a digest."""

    digest_ok: Optional[bool]


@dataclass(frozen=True)
class Failed:
    """The session is dead; the driver should abort the sublink."""

    error: Exception


ReceiverEvent = Union[Deliver, Completed, Failed]

#: EOF dispositions (:meth:`PayloadReceiver.feed_eof`).
EOF_COMPLETE = "complete"  # stream-until-FIN: EOF is completion
EOF_SUSPEND = "suspend"  # mid-payload: keep state for a rebind
EOF_CLOSE = "close"  # nothing left to do; close the transport


class PayloadReceiver:
    """Sans-I/O receiving side of one (unframed) LSL session."""

    def __init__(
        self,
        header: LslHeader,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.header = header
        self._observer = observer
        self.digest = StreamDigest()
        self.payload_received = 0
        self._trailer = bytearray()
        self.digest_ok: Optional[bool] = None
        self.complete = False
        self.failed: Optional[Exception] = None

    # -- session-layer framing --------------------------------------------

    @property
    def session_id(self) -> bytes:
        return self.header.session_id

    @property
    def declared_length(self) -> Optional[int]:
        pl = self.header.payload_length
        return None if pl == STREAM_UNTIL_FIN else pl

    @property
    def finished(self) -> bool:
        return self.complete or self.failed is not None

    def rebind(self, header: LslHeader) -> None:
        """Adopt the header of a replacement sublink (state carries
        over). An undigested session hashes nothing, so a rebind cannot
        turn the digest on once payload has arrived."""
        if header.digest and not self.header.digest and self.payload_received:
            raise ProtocolError("rebind turns the digest on mid-payload")
        self.header = header

    # -- ingestion ---------------------------------------------------------

    def feed(self, chunks: List[ChunkLike]) -> List[ReceiverEvent]:
        """Consume transport chunks; returns events in stream order.

        ``Deliver`` events carry payload for the application;
        ``Completed``/``Failed`` is always last when present, and once
        emitted further feeds return nothing.
        """
        events: List[ReceiverEvent] = []
        if self.finished:
            return events
        declared = self.declared_length
        for raw in chunks:
            if self.finished:
                break
            chunk = Chunk(raw.length, raw.data)
            if declared is None:
                self._deliver(chunk, events)
                continue
            payload_room = declared - self.payload_received
            tail: Optional[Chunk] = chunk
            if payload_room > 0:
                if chunk.length <= payload_room:
                    self._deliver(chunk, events)
                    tail = None
                else:
                    head, tail = split_chunk(chunk, payload_room)
                    self._deliver(head, events)
            if tail is not None and tail.length > 0:
                self._feed_trailer(tail, events)
        self._maybe_complete(events)
        return events

    def feed_eof(self) -> str:
        """Classify a clean FIN: one of the ``EOF_*`` dispositions."""
        if self.finished:
            return EOF_CLOSE
        declared = self.declared_length
        if declared is None:
            # stream-until-FIN: EOF is completion
            self.complete = True
            emit(self._observer, "payload-complete", self.header.short_id,
                 payload_received=self.payload_received, digest_ok=None)
            return EOF_COMPLETE
        if self.payload_received < declared:
            # could be a mobility event: keep state for a rebind
            emit(self._observer, "session-suspended", self.header.short_id,
                 payload_received=self.payload_received)
            return EOF_SUSPEND
        return EOF_CLOSE

    # -- internals ---------------------------------------------------------

    def _deliver(self, chunk: Chunk, events: List[ReceiverEvent]) -> None:
        self.payload_received += chunk.length
        if self.header.digest:
            self.digest.update_chunk(chunk)
        events.append(Deliver(chunk))

    def _feed_trailer(self, chunk: Chunk, events: List[ReceiverEvent]) -> None:
        if not self.header.digest:
            self._fail(ProtocolError("payload overrun past declared length"), events)
            return
        if chunk.data is None:
            self._fail(ProtocolError("virtual bytes in digest trailer"), events)
            return
        self._trailer.extend(chunk.data)
        if len(self._trailer) > DIGEST_LEN:
            self._fail(ProtocolError("trailer overrun"), events)

    def _maybe_complete(self, events: List[ReceiverEvent]) -> None:
        declared = self.declared_length
        if declared is None or self.finished:
            return
        if self.payload_received < declared:
            return
        if self.header.digest:
            if len(self._trailer) < DIGEST_LEN:
                return  # trailer still in flight
            expected = bytes(self._trailer)
            actual = self.digest.digest()
            self.digest_ok = expected == actual
            if not self.digest_ok:
                emit(self._observer, "digest-mismatch", self.header.short_id,
                     got=expected.hex()[:8], want=actual.hex()[:8])
                self._fail(
                    DigestMismatch(
                        f"session {self.header.short_id}: "
                        f"got {expected.hex()[:8]} want {actual.hex()[:8]}"
                    ),
                    events,
                )
                return
        self.complete = True
        emit(self._observer, "payload-complete", self.header.short_id,
             payload_received=self.payload_received, digest_ok=self.digest_ok)
        events.append(Completed(self.digest_ok))

    def _fail(self, error: Exception, events: List[ReceiverEvent]) -> None:
        if self.failed is not None:
            return
        self.failed = error
        events.append(Failed(error))


class FramedReceiver:
    """In-order framed stream feeding a :class:`PayloadReceiver`.

    Accepts FLAG_FRAMED streams whose frames arrive sequentially on one
    sublink (offsets contiguous from the resume point; the trailer
    frame at ``offset == payload length`` carries the MD5). Multi-
    sublink, out-of-order striping needs a reassembly buffer and lives
    with the striped server, not here.
    """

    def __init__(
        self,
        header: LslHeader,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        if header.payload_length == STREAM_UNTIL_FIN:
            raise ProtocolError("framed sessions require a declared length")
        self.inner = PayloadReceiver(header, observer)
        self._decoder = FrameDecoder(self._on_frame_payload)
        self._events: List[ReceiverEvent] = []

    @property
    def header(self) -> LslHeader:
        return self.inner.header

    @property
    def session_id(self) -> bytes:
        return self.inner.session_id

    @property
    def payload_received(self) -> int:
        return self.inner.payload_received

    @property
    def digest_ok(self) -> Optional[bool]:
        return self.inner.digest_ok

    @property
    def complete(self) -> bool:
        return self.inner.complete

    @property
    def failed(self) -> Optional[Exception]:
        return self.inner.failed

    @property
    def finished(self) -> bool:
        return self.inner.finished

    def rebind(self, header: LslHeader) -> None:
        """Adopt a replacement sublink; the new sublink starts its own
        frame stream, so any torn-frame decoder state is discarded."""
        self.inner.rebind(header)
        self._decoder = FrameDecoder(self._on_frame_payload)

    def feed(self, chunks: List[ChunkLike]) -> List[ReceiverEvent]:
        if self.inner.finished:
            return []
        try:
            self._decoder.feed(chunks)
        except ProtocolError as exc:
            if self.inner.failed is None:
                self.inner.failed = exc
                self._events.append(Failed(exc))
        events, self._events = self._events, []
        return events

    def feed_eof(self) -> str:
        if not self.inner.finished and self._decoder.mid_frame:
            # a torn frame is indistinguishable from payload loss:
            # suspend and let a rebind replay from the resume offset
            emit(self.inner._observer, "session-suspended",
                 self.header.short_id,
                 payload_received=self.inner.payload_received)
            return EOF_SUSPEND
        return self.inner.feed_eof()

    def _on_frame_payload(self, offset: int, chunk: Chunk) -> None:
        declared = self.inner.declared_length
        assert declared is not None
        if offset >= declared:
            # trailer frame territory: feed the MD5 bytes directly
            expected_pos = declared + len(self.inner._trailer)
            if offset != expected_pos:
                self.inner._fail(
                    ProtocolError(f"trailer frame at {offset}, want {expected_pos}"),
                    self._events,
                )
                return
            self.inner._feed_trailer(chunk, self._events)
            self.inner._maybe_complete(self._events)
            return
        if offset != self.inner.payload_received:
            self.inner._fail(
                ProtocolError(
                    f"out-of-order frame at {offset}, "
                    f"expected {self.inner.payload_received} "
                    "(single-sublink framed streams must be sequential)"
                ),
                self._events,
            )
            return
        if chunk.length == 0:
            return
        self.inner._deliver(chunk, self._events)
        self.inner._maybe_complete(self._events)
