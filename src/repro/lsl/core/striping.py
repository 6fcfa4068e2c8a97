"""Multipath striping: sans-I/O scheduler and reassembler.

Section VII names multi-path and parallel-stream generalization as the
point of session-layer framing. These machines carry that
generalization for *every* driver (simulator, threaded sockets,
asyncio): a :class:`StripeScheduler` on the sending side deals
fixed-size stripes of one logical payload across N sublinks, and a
:class:`StripeAssembler` on the receiving side reassembles them in
offset order, feeds the end-to-end MD5, and completes when coverage is
full and the trailer verifies.

Redundancy (RAIL-style) makes a lost path a *degradation* instead of a
resume round-trip:

- ``none``       — every stripe rides exactly one sublink; when a
                   sublink dies its uncovered stripes are re-dealt to
                   the survivors (the receiver discards duplicates);
- ``duplicate-k``— every stripe rides ``k+1`` *distinct* sublinks (and
                   so does the digest trailer), so a single path loss
                   leaves full coverage with nothing to re-deal;
- ``parity``     — every group of G stripes is followed by their XOR
                   block on a pseudo-offset, so the receiver can
                   reconstruct any one missing stripe per group without
                   waiting for a re-deal (real payload only).

Wire encoding: redundant copies are ordinary frames at their payload
offset — receivers discard duplicate byte ranges. Parity rides frames
at pseudo-offsets far above any real payload::

    offset == PARITY_BASE                      parity announce frame:
        16-byte descriptor (payload_length u64, stripe u32, group u32)
    offset == PARITY_BASE + (g+1) * (1 << 32)  XOR block of group g

Every sublink in a parity session sends the announce frame before any
payload, so the assembler knows to retain delivered blocks for
reconstruction before the first data byte arrives.

The machines hold no transport state: sublinks are opaque keys the
driver chooses (a socket, a task name, an index). ``migrate`` retires
one key and introduces another — the online re-planner's hook for
abandoning a path whose forecast flipped.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from repro.lsl.core.chunks import Chunk, ChunkLike
from repro.lsl.core.digest import DIGEST_LEN, StreamDigest
from repro.lsl.core.errors import DigestMismatch, LslError, ProtocolError
from repro.lsl.core.events import ProtocolObserver, emit
from repro.lsl.core.framing import FrameDecoder, encode_frame_header
from repro.lsl.core.receiver import (
    Completed,
    Deliver,
    Failed,
    ReceiverEvent,
)
from repro.lsl.core.wire import STREAM_UNTIL_FIN

#: Default stripe size (the unit of dealing and of parity blocks).
DEFAULT_STRIPE = 128 * 1024

#: Out-of-order bytes at which reassembly starts holding sublinks
#: (:meth:`StripeAssembler.held`).
REASSEMBLY_BYTES = 8 * 1024 * 1024

#: Frames at or above this offset are parity machinery, not payload.
#: Real payload offsets are bounded by MAX_FRAME_PAYLOAD-sized frames
#: well below this.
PARITY_BASE = 1 << 62
#: Pseudo-offset stride between parity groups.
PARITY_SPAN = 1 << 32

#: Parity announce descriptor: payload length, stripe bytes, group size.
_PARITY_DESC = struct.Struct(">QII")
PARITY_DESC_LEN = _PARITY_DESC.size  # 16


def xor_into(acc: int, block: bytes) -> int:
    """XOR ``block`` into a running parity accumulator, a machine word
    at a time. The accumulator is the little-endian integer of the
    bytes so far, so blocks of unequal length align at index 0 and a
    short tail block needs no padding; ``acc.to_bytes(n, "little")``
    turns it back into the ``n``-byte parity block."""
    return acc ^ int.from_bytes(block, "little")


class Redundancy:
    """Parsed redundancy mode for a striped session."""

    __slots__ = ("mode", "copies", "group")

    def __init__(self, mode: str, copies: int = 0, group: int = 4) -> None:
        if mode not in ("none", "duplicate", "parity"):
            raise ValueError(f"unknown redundancy mode {mode!r}")
        if mode == "duplicate" and copies < 1:
            raise ValueError("duplicate redundancy needs copies >= 1")
        if mode == "parity" and group < 2:
            raise ValueError("parity groups need >= 2 stripes")
        self.mode = mode
        self.copies = copies
        self.group = group

    @property
    def spec(self) -> str:
        if self.mode == "duplicate":
            return f"duplicate-{self.copies}"
        if self.mode == "parity":
            return f"parity-{self.group}" if self.group != 4 else "parity"
        return "none"

    def __repr__(self) -> str:
        return f"Redundancy({self.spec!r})"


def parse_redundancy(spec: str) -> Redundancy:
    """Parse ``none | duplicate-K | parity[-G]`` into a :class:`Redundancy`."""
    s = spec.strip().lower()
    if s == "none":
        return Redundancy("none")
    if s.startswith("duplicate-"):
        try:
            k = int(s[len("duplicate-") :])
        except ValueError:
            raise ValueError(f"bad redundancy spec {spec!r}") from None
        return Redundancy("duplicate", copies=k)
    if s == "parity":
        return Redundancy("parity")
    if s.startswith("parity-"):
        try:
            g = int(s[len("parity-") :])
        except ValueError:
            raise ValueError(f"bad redundancy spec {spec!r}") from None
        return Redundancy("parity", group=g)
    raise ValueError(f"bad redundancy spec {spec!r}")


#: Assignment kinds.
KIND_DATA = "data"
KIND_PARITY = "parity"
KIND_ANNOUNCE = "announce"
KIND_TRAILER = "trailer"


class Assignment:
    """One frame's worth of work dealt to one sublink.

    The driver sends ``encode_frame_header(offset, length)`` followed
    by ``length`` payload bytes (``payload`` when real, virtual bytes
    when ``payload is None``), tracking its own progress in
    ``header_sent`` / ``sent``.
    """

    __slots__ = ("kind", "offset", "length", "payload", "header_sent", "sent")

    def __init__(
        self, kind: str, offset: int, length: int, payload: Optional[bytes]
    ) -> None:
        self.kind = kind
        self.offset = offset
        self.length = length
        self.payload = payload
        self.header_sent = False
        self.sent = 0

    @property
    def done(self) -> bool:
        return self.header_sent and self.sent >= self.length

    def frame_header(self) -> bytes:
        return encode_frame_header(self.offset, self.length)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Assignment {self.kind} @{self.offset} len={self.length} "
            f"sent={self.sent}>"
        )


class _Work:
    """One unit of transferable content and everywhere it was dealt."""

    __slots__ = ("kind", "offset", "length", "payload", "copies_left", "placements")

    def __init__(
        self,
        kind: str,
        offset: int,
        length: int,
        payload: Optional[bytes],
        copies: int,
    ) -> None:
        self.kind = kind
        self.offset = offset
        self.length = length
        self.payload = payload
        self.copies_left = copies
        self.placements: Dict[str, Assignment] = {}

    def assign(self, key: str) -> Assignment:
        a = Assignment(self.kind, self.offset, self.length, self.payload)
        self.placements[key] = a
        self.copies_left -= 1
        return a


class _SublinkState:
    __slots__ = ("key", "alive", "finished", "announce_pending")

    def __init__(self, key: str, announce: bool) -> None:
        self.key = key
        self.alive = True
        self.finished = False  # cleanly drained and FINned
        self.announce_pending = announce


class StripeScheduler:
    """Sans-I/O dealing side of a striped session.

    Driver contract, per sublink ``key``:

    - ``add_sublink(key)`` once the sublink is planned, before any dials;
    - whenever the sublink can send, call ``next_assignment(key)`` and
      transmit the returned frame; ``None`` means the sublink will
      never carry more — send FIN and call ``sublink_finished(key)``;
    - on a transport error call ``sublink_lost(key, error)``: uncovered
      work is re-queued to the survivors and ``failed`` is set only
      when no survivor can complete coverage;
    - ``migrate(old, new)`` retires a path mid-transfer (re-planner).

    The digest is fed at stripe-creation time — stripes are created in
    logical order, so re-deals and redundant copies never touch it.
    """

    def __init__(
        self,
        payload_length: int,
        data: Optional[bytes] = None,
        stripe_bytes: int = DEFAULT_STRIPE,
        redundancy: Optional[Redundancy] = None,
        use_digest: bool = True,
        observer: Optional[ProtocolObserver] = None,
        session: str = "",
    ) -> None:
        if payload_length <= 0:
            raise LslError("striped sessions need a positive payload length")
        if data is not None and len(data) != payload_length:
            raise LslError("data length != payload_length")
        if stripe_bytes <= 0:
            raise ValueError("stripe_bytes must be positive")
        self.redundancy = redundancy if redundancy is not None else Redundancy("none")
        if self.redundancy.mode == "parity" and data is None:
            raise LslError("parity redundancy requires real payload bytes")
        self.payload_length = payload_length
        self.data = data
        self.stripe_bytes = stripe_bytes
        self.use_digest = use_digest
        self.digest = StreamDigest()
        self._observer = observer
        self._session = session

        self._next_offset = 0
        self._subs: Dict[str, _SublinkState] = {}
        #: Work with undealt copies, in dealing order.
        self._open: List[_Work] = []
        #: Every work record ever created (coverage accounting).
        self._records: List[_Work] = []
        self._trailer: Optional[_Work] = None
        self.failed: Optional[Exception] = None

        # parity accumulation for the group being dealt (see xor_into)
        self._gxor = 0
        self._gfirst_len = 0
        self._gcount = 0
        self._gindex = 0

        # counters (mirrored onto the event plane)
        self.redundant_stripes = 0
        self.redeals = 0
        self.migrations = 0

    # -- sublink lifecycle -------------------------------------------------

    def add_sublink(self, key: str) -> None:
        if key in self._subs:
            raise LslError(f"duplicate sublink key {key!r}")
        self._subs[key] = _SublinkState(
            key, announce=self.redundancy.mode == "parity"
        )

    def sublink_finished(self, key: str) -> None:
        """The driver drained this sublink and sent FIN."""
        state = self._subs[key]
        state.alive = False
        state.finished = True

    def sublink_lost(self, key: str, error: Optional[Exception] = None) -> None:
        """A sublink died; re-deal whatever only it was carrying."""
        state = self._subs[key]
        if not state.alive and not state.finished:
            return  # already accounted
        state.alive = False
        state.finished = False
        requeued = self._requeue_uncovered(key)
        if requeued:
            emit(
                self._observer,
                "stripe-redealt",
                self._session,
                sublink=key,
                stripes=requeued,
            )
        if not self._coverage_possible():
            self.failed = error if error is not None else LslError(
                "all sublinks lost with payload outstanding"
            )

    def migrate(self, old_key: str, new_key: str) -> None:
        """Abandon ``old_key`` (re-planner decision) in favour of
        ``new_key``; the old path's unique work moves to the pool."""
        self.migrations += 1
        emit(
            self._observer,
            "sublink-migrated",
            self._session,
            from_sublink=old_key,
            to_sublink=new_key,
        )
        self.add_sublink(new_key)
        state = self._subs[old_key]
        if state.alive:
            state.alive = False
            requeued = self._requeue_uncovered(old_key)
            if requeued:
                emit(
                    self._observer,
                    "stripe-redealt",
                    self._session,
                    sublink=old_key,
                    stripes=requeued,
                )

    @property
    def alive_sublinks(self) -> List[str]:
        return [k for k, s in self._subs.items() if s.alive]

    # -- dealing -----------------------------------------------------------

    def next_assignment(self, key: str) -> Optional[Assignment]:
        """The next frame ``key`` should carry; None when it is done."""
        if self.failed is not None:
            return None
        state = self._subs[key]
        if not state.alive:
            return None
        if state.announce_pending:
            state.announce_pending = False
            return Assignment(
                KIND_ANNOUNCE,
                PARITY_BASE,
                PARITY_DESC_LEN,
                _PARITY_DESC.pack(
                    self.payload_length, self.stripe_bytes, self.redundancy.group
                ),
            )
        # 1) open work (redundant copies, re-deals, parity blocks)
        for work in self._open:
            if work.copies_left > 0 and key not in work.placements:
                a = work.assign(key)
                self._compact_open()
                if self.redundancy.mode != "none" and len(work.placements) > 1:
                    self.redundant_stripes += 1
                    emit(
                        self._observer,
                        "stripe-redundant",
                        self._session,
                        work=work.kind,
                        offset=work.offset,
                        sublink=key,
                    )
                return a
        # 2) a fresh stripe off the frontier
        if self._next_offset < self.payload_length:
            return self._deal_fresh(key)
        # 3) the trailer (once per distinct sublink, up to its copies)
        trailer = self._trailer_work()
        if (
            trailer is not None
            and trailer.copies_left > 0
            and key not in trailer.placements
        ):
            a = trailer.assign(key)
            if len(trailer.placements) > 1:
                self.redundant_stripes += 1
                emit(
                    self._observer,
                    "stripe-redundant",
                    self._session,
                    work=KIND_TRAILER,
                    offset=trailer.offset,
                    sublink=key,
                )
            return a
        return None

    def _deal_fresh(self, key: str) -> Assignment:
        offset = self._next_offset
        length = min(self.stripe_bytes, self.payload_length - offset)
        self._next_offset += length
        payload: Optional[bytes] = None
        if self.data is None:
            if self.use_digest:
                self.digest.update_virtual(length)
        else:
            payload = self.data[offset : offset + length]
            if self.use_digest:
                self.digest.update(payload)
        copies = 1 + (
            self.redundancy.copies if self.redundancy.mode == "duplicate" else 0
        )
        work = _Work(KIND_DATA, offset, length, payload, copies)
        self._records.append(work)
        a = work.assign(key)
        if work.copies_left > 0:
            self._open.append(work)
        if self.redundancy.mode == "parity":
            assert payload is not None
            self._parity_accumulate(payload)
        return a

    def _parity_accumulate(self, block: bytes) -> None:
        if self._gcount == 0:
            self._gfirst_len = len(block)  # the group's longest block
        self._gxor = xor_into(self._gxor, block)
        self._gcount += 1
        group_full = self._gcount == self.redundancy.group
        frontier_done = self._next_offset >= self.payload_length
        if group_full or frontier_done:
            if self._gcount > 1:
                work = _Work(
                    KIND_PARITY,
                    PARITY_BASE + (self._gindex + 1) * PARITY_SPAN,
                    self._gfirst_len,
                    self._gxor.to_bytes(self._gfirst_len, "little"),
                    1,
                )
                self._records.append(work)
                self._open.append(work)
            # a single-stripe tail group has no one to XOR with: skip
            self._gindex += 1
            self._gcount = 0
            self._gxor = 0

    def _trailer_work(self) -> Optional[_Work]:
        if not self.use_digest or self._next_offset < self.payload_length:
            return None
        if self._trailer is None:
            if self.redundancy.mode == "duplicate":
                copies = 1 + self.redundancy.copies
            elif self.redundancy.mode == "parity":
                copies = 2  # parity cannot protect the trailer: duplicate it
            else:
                copies = 1
            self._trailer = _Work(
                KIND_TRAILER,
                self.payload_length,
                DIGEST_LEN,
                self.digest.digest(),
                copies,
            )
            self._records.append(self._trailer)
        return self._trailer

    def _compact_open(self) -> None:
        if any(w.copies_left <= 0 for w in self._open):
            self._open = [w for w in self._open if w.copies_left > 0]

    # -- failure accounting ------------------------------------------------

    def _requeue_uncovered(self, key: str) -> int:
        """Re-queue every record only ``key`` was covering; returns the
        number of records re-queued."""
        requeued = 0
        for work in self._records:
            a = work.placements.pop(key, None)
            if a is None:
                continue
            if self._covered(work):
                continue
            work.copies_left += 1
            if work not in self._open:
                self._open.append(work)
            requeued += 1
            self.redeals += 1
        return requeued

    def _covered(self, work: _Work) -> bool:
        """True when some surviving or cleanly-finished sublink carries
        (or will finish carrying) this record."""
        for k in work.placements:
            s = self._subs.get(k)
            if s is not None and (s.alive or s.finished):
                return True
        return False

    def _coverage_possible(self) -> bool:
        alive = any(s.alive for s in self._subs.values())
        if alive:
            return True
        # no sublink left to deal to: coverage must already be complete
        if self._next_offset < self.payload_length:
            return False
        for work in self._records:
            if work.kind == KIND_PARITY:
                continue  # parity is an optimization, not coverage
            if not self._covered(work):
                return False
        if self.use_digest and self._trailer is None:
            return False
        return True

    # -- progress ----------------------------------------------------------

    @property
    def bytes_dealt(self) -> int:
        return self._next_offset

    @property
    def all_dealt(self) -> bool:
        """Every payload byte and the trailer have been dealt somewhere."""
        if self._next_offset < self.payload_length:
            return False
        if self.use_digest:
            t = self._trailer
            if t is None or not t.placements:
                return False
        return True


# ---------------------------------------------------------------------------
# receiving side
# ---------------------------------------------------------------------------


class _ParityGroup:
    """Accumulates one group's XOR block as its frame bytes arrive;
    ``applied`` once the group needs no further look (a block was
    rebuilt from it, or there was nothing to rebuild)."""

    __slots__ = ("buf", "have", "done", "applied")

    def __init__(self, length: int) -> None:
        self.buf = bytearray(length)
        self.have = 0
        self.done = False
        self.applied = False


class StripeAssembler:
    """Sans-I/O reassembly side of a striped session.

    Drivers ``attach`` one opaque key per sublink and ``feed`` it
    whatever the transport delivered; the assembler decodes frames
    per-sublink, reassembles the logical stream in offset order behind
    a bounded out-of-order buffer (a driver stops reading a sublink
    while :meth:`held` says so), discards duplicate byte ranges
    (redundant copies, re-deals), collects the digest trailer (a
    duplicate trailer from a second sublink is discarded, not fatal),
    reconstructs a missing block from parity when possible, and
    returns the same :class:`Deliver` / :class:`Completed` /
    :class:`Failed` events as :class:`PayloadReceiver`.
    """

    def __init__(
        self,
        payload_length: int,
        use_digest: bool = True,
        observer: Optional[ProtocolObserver] = None,
        session: str = "",
    ) -> None:
        if not 0 < payload_length < STREAM_UNTIL_FIN:
            raise ProtocolError("striped sessions need a declared length")
        self.payload_length = payload_length
        self.use_digest = use_digest
        self._observer = observer
        self._session = session

        self.digest = StreamDigest()
        self.payload_received = 0  # in-order frontier
        self.digest_ok: Optional[bool] = None
        self.complete = False
        self.failed: Optional[Exception] = None

        self._decoders: Dict[str, FrameDecoder] = {}
        #: where each sublink's latest data frame starts
        self._frames: Dict[str, int] = {}
        self._feeding = ""  # the key being fed
        self._holding = True  # until a sublink is lost
        self._starts: List[int] = []  # sorted fragment start offsets
        self._frags: Dict[int, Chunk] = {}
        self.ooo_bytes = 0

        self._trailer = bytearray(DIGEST_LEN)
        self._trailer_seen = [False] * DIGEST_LEN

        # parity state (armed by the announce frame)
        self._geometry: Optional[Tuple[int, int]] = None  # (stripe, group)
        self._announce = bytearray(PARITY_DESC_LEN)
        self._announce_seen = [False] * PARITY_DESC_LEN
        self._parity: Dict[int, _ParityGroup] = {}
        self._retained: Dict[int, bytearray] = {}
        self._groups_cleaned = 0

        self.duplicate_bytes = 0
        self.reconstructed_blocks = 0

        self._events: List[ReceiverEvent] = []

    # -- sublink lifecycle -------------------------------------------------

    def attach(self, key: str) -> None:
        if key in self._decoders:
            raise LslError(f"duplicate sublink key {key!r}")
        self._decoders[key] = FrameDecoder(self._on_frame)

    def sublink_closed(self, key: str) -> None:
        """The sublink ended (FIN or error). A torn frame on it is
        fine — redundancy or a re-deal covers the missing range. From
        here on nothing is :meth:`held`: a re-dealt stripe may queue
        behind anything on a survivor."""
        self._decoders.pop(key, None)
        self._frames.pop(key, None)
        self._holding = False

    def held(self, key: str) -> bool:
        """Whether the driver should stop reading sublink ``key`` for
        now: at least :data:`REASSEMBLY_BYTES` wait out of order, and
        its latest data frame starts beyond the in-order frontier.

        The sublink carrying the frontier stripe is never held, and
        while every sublink carries its stripes in offset order that is
        enough for the frontier to advance; a held sublink may read
        again once it advances (ask again). Nothing is held after a
        sublink closed (:meth:`sublink_closed`)."""
        return (
            self.ooo_bytes >= REASSEMBLY_BYTES
            and self._holding
            and self._frames.get(key, -1) > self.payload_received
        )

    @property
    def finished(self) -> bool:
        return self.complete or self.failed is not None

    # -- ingestion ---------------------------------------------------------

    def feed(self, key: str, chunks: List[ChunkLike]) -> List[ReceiverEvent]:
        if self.finished:
            return []
        decoder = self._decoders[key]
        self._feeding = key
        try:
            decoder.feed(chunks)
        except ProtocolError as exc:
            self._fail(exc)
        else:
            self._advance()
        events, self._events = self._events, []
        return events

    def feed_bytes(self, key: str, data: bytes) -> List[ReceiverEvent]:
        """Convenience for byte-stream drivers (real sockets)."""
        return self.feed(key, [Chunk.real(data)])

    # -- frame handling ----------------------------------------------------

    def _on_frame(self, offset: int, chunk: Chunk) -> None:
        if self.finished:
            return
        if offset >= PARITY_BASE:
            self._parity_frame(offset - PARITY_BASE, chunk)
            return
        if offset >= self.payload_length:
            self._trailer_bytes(offset - self.payload_length, chunk)
            return
        if offset + chunk.length > self.payload_length:
            raise ProtocolError("frame crosses the payload boundary")
        if chunk.length == 0:
            return
        key = self._feeding
        self._frames[key] = self._decoders[key].frame_offset
        self._insert(offset, chunk)

    def _insert(self, offset: int, chunk: Chunk) -> None:
        """Store a payload range, discarding already-covered bytes."""
        start, end = offset, offset + chunk.length
        dropped = 0
        # clip the delivered prefix
        if start < self.payload_received:
            cut = min(end, self.payload_received) - start
            dropped += cut
            chunk = Chunk(
                chunk.length - cut,
                None if chunk.data is None else chunk.data[cut:],
            )
            start += cut
        # walk existing fragments overlapping [start, end)
        while start < end:
            i = bisect_right(self._starts, start) - 1
            if i >= 0:
                fstart = self._starts[i]
                fend = fstart + self._frags[fstart].length
                if start < fend:  # inside an existing fragment
                    cut = min(end, fend) - start
                    dropped += cut
                    chunk = Chunk(
                        chunk.length - cut,
                        None if chunk.data is None else chunk.data[cut:],
                    )
                    start += cut
                    continue
            j = bisect_left(self._starts, start)
            nstart = self._starts[j] if j < len(self._starts) else end
            take = min(end, nstart) - start
            if take > 0:
                piece = Chunk(
                    take,
                    None if chunk.data is None else chunk.data[:take],
                )
                chunk = Chunk(
                    chunk.length - take,
                    None if chunk.data is None else chunk.data[take:],
                )
                insort(self._starts, start)
                self._frags[start] = piece
                self.ooo_bytes += take
                start += take
        if dropped:
            self.duplicate_bytes += dropped
            emit(
                self._observer,
                "duplicate-discarded",
                self._session,
                nbytes=dropped,
                offset=offset,
            )

    def _trailer_bytes(self, pos: int, chunk: Chunk) -> None:
        if chunk.data is None:
            raise ProtocolError("virtual bytes in digest trailer")
        end = pos + chunk.length
        if end > DIGEST_LEN:
            raise ProtocolError("trailer overrun")
        dup = 0
        for i in range(pos, end):
            b = chunk.data[i - pos]
            if self._trailer_seen[i]:
                if self._trailer[i] != b:
                    raise ProtocolError("conflicting trailer bytes")
                dup += 1
            else:
                self._trailer[i] = b
                self._trailer_seen[i] = True
        if dup:
            self.duplicate_bytes += dup
            emit(
                self._observer,
                "duplicate-discarded",
                self._session,
                nbytes=dup,
                trailer=True,
            )

    # -- parity ------------------------------------------------------------

    def _parity_frame(self, rel: int, chunk: Chunk) -> None:
        if chunk.data is None:
            raise ProtocolError("virtual bytes in a parity frame")
        if rel < PARITY_SPAN:  # the announce frame
            self._announce_bytes(rel, chunk.data)
            return
        group = rel // PARITY_SPAN - 1
        pos = rel % PARITY_SPAN
        if self._geometry is None:
            raise ProtocolError("parity block before the announce frame")
        length = self._parity_length(group)
        end = pos + chunk.length
        if end > length:
            raise ProtocolError("parity block overrun")
        pg = self._parity.get(group)
        # a block for a group already delivered (the loss-free order is
        # data first, parity last) has nothing left to protect
        if group < self._groups_cleaned or (pg is not None and pg.done):
            self.duplicate_bytes += chunk.length
            emit(
                self._observer,
                "duplicate-discarded",
                self._session,
                nbytes=chunk.length,
                parity=True,
            )
            return
        if pg is None:
            pg = _ParityGroup(length)
            self._parity[group] = pg
        pg.buf[pos:end] = chunk.data
        pg.have += chunk.length
        if pg.have >= len(pg.buf):
            pg.done = True

    def _announce_bytes(self, pos: int, data: bytes) -> None:
        end = pos + len(data)
        if end > PARITY_DESC_LEN:
            raise ProtocolError("parity announce overrun")
        for i in range(pos, end):
            b = data[i - pos]
            if self._announce_seen[i]:
                if self._announce[i] != b:
                    raise ProtocolError("conflicting parity announce")
            else:
                self._announce[i] = b
                self._announce_seen[i] = True
        if self._geometry is None and all(self._announce_seen):
            plen, stripe, group = _PARITY_DESC.unpack(bytes(self._announce))
            if plen != self.payload_length:
                raise ProtocolError("parity announce disagrees on length")
            if stripe <= 0 or group < 2:
                raise ProtocolError("bad parity geometry")
            self._geometry = (stripe, group)

    def _parity_length(self, group: int) -> int:
        """Length of group ``g``'s XOR block (its first block's size)."""
        assert self._geometry is not None
        stripe, gsize = self._geometry
        start = group * gsize * stripe
        if start >= self.payload_length:
            raise ProtocolError("parity group beyond payload")
        return min(stripe, self.payload_length - start)

    def _group_blocks(self, group: int) -> List[Tuple[int, int]]:
        assert self._geometry is not None
        stripe, gsize = self._geometry
        blocks: List[Tuple[int, int]] = []
        for i in range(gsize):
            start = (group * gsize + i) * stripe
            if start >= self.payload_length:
                break
            blocks.append((start, min(stripe, self.payload_length - start)))
        return blocks

    def _block_bytes(self, start: int, length: int) -> Optional[bytes]:
        """The block's bytes, from retained delivery and/or fragments;
        None when any part is missing (or was delivered virtually)."""
        out = bytearray()
        pos = start
        end = start + length
        if pos < self.payload_received:
            kept = self._retained.get(start)
            take = min(end, self.payload_received) - pos
            if kept is None or len(kept) < take:
                return None
            out += kept[:take]
            pos += take
        while pos < end:
            i = bisect_right(self._starts, pos) - 1
            if i < 0:
                return None
            fstart = self._starts[i]
            frag = self._frags[fstart]
            fend = fstart + frag.length
            if pos >= fend or frag.data is None:
                return None
            take = min(end, fend) - pos
            out += frag.data[pos - fstart : pos - fstart + take]
            pos += take
        return bytes(out)

    def _try_reconstruct(self) -> bool:
        """XOR-reconstruct a single missing block in any complete
        parity group; returns True when a block was inserted."""
        if self._geometry is None:
            return False
        for group, pg in self._parity.items():
            if not pg.done or pg.applied:
                continue
            # decide on coverage alone; copy bytes only to rebuild
            blocks = self._group_blocks(group)
            missing = [b for b in blocks if not self._range_covered(*b)]
            if len(missing) > 1:
                continue  # more of the group may yet arrive
            # never look again: there is nothing to rebuild, or this is
            # the one try at it (a covered block that has no bytes, being
            # delivered virtually, will not gain them later)
            pg.applied = True
            rebuilt = self._rebuild(pg, blocks, missing[0]) if missing else None
            if rebuilt is None:
                continue
            mstart, mlen = missing[0]
            self.reconstructed_blocks += 1
            emit(
                self._observer,
                "stripe-reconstructed",
                self._session,
                offset=mstart,
                nbytes=mlen,
                group=group,
            )
            self._insert(mstart, Chunk.real(rebuilt))
            return True
        return False

    def _rebuild(
        self,
        pg: _ParityGroup,
        blocks: List[Tuple[int, int]],
        lost: Tuple[int, int],
    ) -> Optional[bytes]:
        """The ``lost`` block as ``parity ^ every other block`` of the
        group; None when one of those has no bytes to XOR."""
        acc = int.from_bytes(pg.buf, "little")
        for block in blocks:
            if block == lost:
                continue
            got = self._block_bytes(*block)
            if got is None:
                return None
            acc = xor_into(acc, got)
        return acc.to_bytes(len(pg.buf), "little")[: lost[1]]

    def _range_covered(self, start: int, length: int) -> bool:
        """True when [start, start+length) is fully delivered or
        present in fragments (contiguously)."""
        pos = start
        end = start + length
        if pos < self.payload_received:
            pos = min(end, self.payload_received)
        while pos < end:
            i = bisect_right(self._starts, pos) - 1
            if i < 0:
                return False
            fstart = self._starts[i]
            fend = fstart + self._frags[fstart].length
            if pos >= fend:
                return False
            pos = min(end, fend)
        return True

    # -- frontier ----------------------------------------------------------

    def _advance(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            while self._starts and self._starts[0] == self.payload_received:
                start = self._starts.pop(0)
                chunk = self._frags.pop(start)
                self.ooo_bytes -= chunk.length
                self._deliver(start, chunk)
                progressed = True
            if self._try_reconstruct():
                progressed = True
        self._cleanup_groups()
        self._maybe_complete()

    def _deliver(self, offset: int, chunk: Chunk) -> None:
        if self._geometry is not None and chunk.data is not None:
            self._retain(offset, chunk.data)
        if self.use_digest:
            self.digest.update_chunk(chunk)
        self.payload_received += chunk.length
        self._events.append(Deliver(chunk))

    def _retain(self, offset: int, data: bytes) -> None:
        assert self._geometry is not None
        stripe = self._geometry[0]
        pos = 0
        while pos < len(data):
            at = offset + pos
            bstart = (at // stripe) * stripe
            take = min(len(data) - pos, bstart + stripe - at)
            buf = self._retained.setdefault(bstart, bytearray())
            if at - bstart == len(buf):  # in-order delivery guarantees this
                buf += data[pos : pos + take]
            pos += take

    def _cleanup_groups(self) -> None:
        if self._geometry is None:
            return
        stripe, gsize = self._geometry
        span = stripe * gsize
        while True:
            g = self._groups_cleaned
            gend = min((g + 1) * span, self.payload_length)
            if g * span >= self.payload_length or gend > self.payload_received:
                break
            for start, _ in self._group_blocks(g):
                self._retained.pop(start, None)
            self._parity.pop(g, None)
            self._groups_cleaned += 1

    def _maybe_complete(self) -> None:
        if self.finished or self.payload_received < self.payload_length:
            return
        if self.use_digest:
            if not all(self._trailer_seen):
                return
            expected = bytes(self._trailer)
            actual = self.digest.digest()
            self.digest_ok = expected == actual
            if not self.digest_ok:
                emit(
                    self._observer,
                    "digest-mismatch",
                    self._session,
                    got=expected.hex()[:8],
                    want=actual.hex()[:8],
                )
                self._fail(
                    DigestMismatch(
                        f"session {self._session}: "
                        f"got {expected.hex()[:8]} want {actual.hex()[:8]}"
                    )
                )
                return
        self.complete = True
        emit(
            self._observer,
            "payload-complete",
            self._session,
            payload_received=self.payload_received,
            digest_ok=self.digest_ok,
        )
        self._events.append(Completed(self.digest_ok))

    def _fail(self, error: Exception) -> None:
        if self.failed is not None:
            return
        self.failed = error
        self._holding = False  # every sublink reads on to its EOF
        self._events.append(Failed(error))
