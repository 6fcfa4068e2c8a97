"""Client-side payload accounting and trailer construction.

:class:`PayloadSender` owns the sending half of a session's framing
rules: payload bytes are counted against the declared length, the
running end-to-end MD5 tracks every byte, and ``finish`` yields the
16-byte digest trailer exactly when the protocol allows one. Drivers
ask :meth:`check_room` before writing and :meth:`record` after the
transport accepted bytes — how the bytes travel (simulator send
buffers, blocking ``sendall``) is not the sender's business.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.lsl.core.digest import StreamDigest
from repro.lsl.core.errors import LslError
from repro.lsl.core.wire import STREAM_UNTIL_FIN, LslHeader

DigestFactory = Callable[[int], StreamDigest]


class PayloadSender:
    """Sans-I/O sending side of one LSL session."""

    def __init__(
        self,
        header: LslHeader,
        digest_state: Optional[StreamDigest] = None,
        digest_factory: Optional[DigestFactory] = None,
    ) -> None:
        self.header = header
        self.digest = digest_state if digest_state is not None else StreamDigest()
        self._digest_factory = digest_factory
        self.bytes_sent = header.resume_offset
        self.finished = False

    # -- accounting --------------------------------------------------------

    @property
    def declared_length(self) -> Optional[int]:
        pl = self.header.payload_length
        return None if pl == STREAM_UNTIL_FIN else pl

    @property
    def remaining(self) -> Optional[int]:
        if self.declared_length is None:
            return None
        return self.declared_length - self.bytes_sent

    def check_room(self, nbytes: int) -> None:
        """Raise unless ``nbytes`` more payload bytes are legal now."""
        if self.finished:
            raise LslError("send after finish()")
        rem = self.remaining
        if rem is not None and nbytes > rem:
            raise LslError(
                f"payload overrun: {nbytes} bytes offered, {rem} remaining "
                f"of declared {self.declared_length}"
            )

    def record(self, data: bytes) -> None:
        """Account real payload bytes the transport accepted."""
        self.digest.update(data)
        self.bytes_sent += len(data)

    def record_virtual(self, nbytes: int) -> None:
        """Account virtual payload bytes the transport accepted."""
        self.digest.update_virtual(nbytes)
        self.bytes_sent += nbytes

    # -- negotiated resume -------------------------------------------------

    def rebase(self, offset: int, digest: Optional[StreamDigest] = None) -> None:
        """Adopt the server's authoritative resume offset.

        The digest state for the logical prefix ``[0, offset)`` is
        ``digest`` when the caller already holds it, else rebuilt via
        the ``digest_factory`` supplied at construction (required when
        the header carries a digest).
        """
        if self.header.digest:
            if digest is None:
                if self._digest_factory is None:
                    raise LslError(
                        "resume rebase with digest needs digest_factory"
                    )
                digest = self._digest_factory(offset)
            self.digest = digest
        self.bytes_sent = offset

    # -- completion --------------------------------------------------------

    def finish(self) -> bytes:
        """Declare the payload complete; returns the trailer to send.

        The trailer is the 16-byte MD5 when the header requested a
        digest, else ``b""`` — either way the driver must FIN the
        sublink after transmitting it. Idempotent: a second call
        returns ``b""``.
        """
        if self.finished:
            return b""
        rem = self.remaining
        if rem is not None and rem > 0:
            raise LslError(f"finish() with {rem} payload bytes undelivered")
        if self.header.digest and self.declared_length is None:
            raise LslError("digest requires a declared payload length")
        self.finished = True
        if not self.header.digest:
            return b""
        return self.digest.digest()
