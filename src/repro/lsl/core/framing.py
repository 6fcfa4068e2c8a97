"""Session-layer framing (the paper's Section VII future work).

Plain LSL relies on TCP's byte-stream ordering, so one session maps to
one chain of sublinks. *Framing* lifts that restriction: payload is
carried in self-describing frames ::

    0       8     offset (u64, big-endian) — position in the logical stream
    8       4     length (u32)             — payload bytes that follow

which makes the session independent of arrival order — the enabler for
parallel TCP striping (PSockets-style) and multi-path sessions, both
named in the paper as natural extensions of the session abstraction.

A frame whose ``offset`` equals the declared payload length is the
**trailer frame**: its payload is the 16-byte end-to-end MD5.

Frame headers are always real bytes; frame payload may be virtual.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterable

from repro.lsl.core.chunks import Chunk, ChunkLike
from repro.lsl.core.errors import ProtocolError

_FRAME = struct.Struct(">QI")
FRAME_HEADER_LEN = _FRAME.size  # 12

#: Sanity cap: no single frame larger than this (catches corruption).
MAX_FRAME_PAYLOAD = 64 << 20


def encode_frame_header(offset: int, length: int) -> bytes:
    """Wire bytes announcing a frame of ``length`` at ``offset``."""
    if offset < 0 or length < 0:
        raise ValueError("negative frame fields")
    if length > MAX_FRAME_PAYLOAD:
        raise ValueError(f"frame too large: {length}")
    return _FRAME.pack(offset, length)


class FrameDecoder:
    """Incremental frame parser over a mixed real/virtual chunk stream.

    Feed the chunks a transport delivers; receive ``(offset, chunk)``
    pairs via the callback. Header bytes must be real; payload chunks
    pass through (split at frame boundaries), preserving real/virtual.
    """

    def __init__(self, on_payload: Callable[[int, Chunk], None]) -> None:
        self.on_payload = on_payload
        self._header_buf = bytearray()
        self.frame_offset = 0  # where the current frame starts
        self._offset = 0  # logical offset of the current frame's next byte
        self._remaining = 0  # payload bytes left in the current frame
        self.frames_seen = 0
        self.bytes_seen = 0

    def feed(self, chunks: Iterable[ChunkLike]) -> None:
        for chunk in chunks:
            self._feed_one(chunk)

    def feed_bytes(self, data: bytes) -> None:
        """Convenience for byte-stream drivers (real sockets)."""
        self._feed_one(Chunk.real(data))

    def _feed_one(self, chunk: ChunkLike) -> None:
        length, data = chunk.length, chunk.data
        pos = 0
        while pos < length:
            if self._remaining > 0:
                take = min(length - pos, self._remaining)
                piece = Chunk(
                    take, None if data is None else data[pos : pos + take]
                )
                self.on_payload(self._offset, piece)
                self._offset += take
                self._remaining -= take
                self.bytes_seen += take
                pos += take
                continue
            # expecting header bytes: must be real
            if data is None:
                raise ProtocolError("virtual bytes inside a frame header")
            need = FRAME_HEADER_LEN - len(self._header_buf)
            take = min(need, length - pos)
            self._header_buf.extend(data[pos : pos + take])
            pos += take
            if len(self._header_buf) == FRAME_HEADER_LEN:
                offset, flen = _FRAME.unpack(bytes(self._header_buf))
                if flen > MAX_FRAME_PAYLOAD:
                    raise ProtocolError(f"oversized frame: {flen}")
                self._header_buf.clear()
                self.frame_offset = self._offset = offset
                self._remaining = flen
                self.frames_seen += 1
                if flen == 0:
                    self.on_payload(offset, Chunk(0, b""))

    @property
    def mid_frame(self) -> bool:
        """True if a frame (header or payload) is partially consumed."""
        return self._remaining > 0 or bool(self._header_buf)
