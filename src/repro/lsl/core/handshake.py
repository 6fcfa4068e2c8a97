"""Client-side establishment sequencing.

The wire exchange (§1, §5 of ``docs/PROTOCOL.md``):

1. client sends the encoded header as the first bytes of the stream;
2. with ``sync``, the server answers one ``SESSION_ACK`` byte through
   the cascade;
3. with ``resume_query`` (negotiated resume), the ack is followed by
   8 big-endian bytes of the server's contiguously-received count —
   the authoritative offset the client must resume from (an offset
   past a declared payload length fails establishment).

:class:`ClientHandshake` owns steps 2–3 as a feed-based machine: the
driver reads at most :attr:`bytes_needed` bytes from its transport and
feeds them in; once :attr:`established` the session may carry payload.
Both the simulator client and the blocking socket client drive this
same object, so the two stacks cannot disagree on the sequence.
"""

from __future__ import annotations

from typing import Optional

from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.events import ProtocolObserver, emit
from repro.lsl.core.wire import SESSION_ACK, STREAM_UNTIL_FIN, LslHeader

_OFFSET_LEN = 8


class ClientHandshake:
    """Sans-I/O client half of session establishment."""

    def __init__(
        self,
        header: LslHeader,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.header = header
        self._observer = observer
        self._awaiting_ack = header.sync
        self._awaiting_offset = header.resume_query
        self._offset_buf = bytearray()
        #: Offset granted by the server under ``resume_query``.
        self.granted_offset: Optional[int] = None
        self.failed: Optional[ProtocolError] = None
        if not header.sync:
            emit(self._observer, "handshake-established", header.short_id,
                 sync=False)

    # -- state ------------------------------------------------------------

    @property
    def established(self) -> bool:
        return (
            self.failed is None
            and not self._awaiting_ack
            and not self._awaiting_offset
        )

    @property
    def awaiting_ack(self) -> bool:
        return self._awaiting_ack

    @property
    def awaiting_offset(self) -> bool:
        """True until the negotiated resume offset has arrived (always
        False for sessions that did not ask for one)."""
        return self._awaiting_offset

    @property
    def bytes_needed(self) -> int:
        """Upper bound the driver should read before feeding again.

        Reading less is always safe; reading more would steal
        reverse-direction application bytes, so drivers must cap their
        transport reads at this value during establishment.
        """
        if self.failed is not None:
            return 0
        if self._awaiting_ack:
            return 1
        if self._awaiting_offset:
            return _OFFSET_LEN - len(self._offset_buf)
        return 0

    # -- driver API --------------------------------------------------------

    def initial_bytes(self) -> bytes:
        """What the client must transmit first: the encoded header."""
        return self.header.encode()

    def feed(self, data: bytes) -> bool:
        """Consume establishment bytes; True once established.

        Raises :class:`ProtocolError` (after recording it in
        :attr:`failed`) on a bad ack, a granted offset past the declared
        payload length or an over-feed — the driver should
        abort the sublink.
        """
        if self.failed is not None:
            raise self.failed
        pos = 0
        if self._awaiting_ack and pos < len(data):
            if data[pos : pos + 1] != SESSION_ACK:
                return self._fail(f"bad session ack {data[pos:pos+1]!r}")
            pos += 1
            self._awaiting_ack = False
        if self._awaiting_offset and pos < len(data):
            take = min(_OFFSET_LEN - len(self._offset_buf), len(data) - pos)
            self._offset_buf.extend(data[pos : pos + take])
            pos += take
            if len(self._offset_buf) == _OFFSET_LEN:
                granted = int.from_bytes(bytes(self._offset_buf), "big")
                declared = self.header.payload_length
                if declared != STREAM_UNTIL_FIN and granted > declared:
                    return self._fail(
                        f"granted offset {granted} past the declared "
                        f"payload length {declared}"
                    )
                self.granted_offset = granted
                self._awaiting_offset = False
        if pos < len(data):
            # feeding past establishment would swallow application bytes
            return self._fail(f"{len(data) - pos} bytes past handshake")
        if self.established:
            emit(
                self._observer,
                "handshake-established",
                self.header.short_id,
                sync=self.header.sync,
                granted_offset=self.granted_offset,
            )
            return True
        return False

    def _fail(self, reason: str) -> bool:
        self.failed = ProtocolError(f"handshake: {reason}")
        raise self.failed
