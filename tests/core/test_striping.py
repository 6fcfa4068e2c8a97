"""Unit tests for the sans-I/O striping machines (no transport at all)."""

import random
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsl.core import Completed, Failed
from repro.lsl.core.chunks import Chunk
from repro.lsl.core.digest import DIGEST_LEN
from repro.lsl.core.errors import LslError, ProtocolError
from repro.lsl.core.framing import encode_frame_header
from repro.lsl.core.striping import (
    KIND_DATA,
    KIND_TRAILER,
    PARITY_BASE,
    Redundancy,
    StripeAssembler,
    StripeScheduler,
    parse_redundancy,
    xor_into,
)

PAYLOAD = random.Random(7).randbytes(700_000)  # 6 x 128K stripes, short tail


# -- redundancy specs --------------------------------------------------------


def test_parse_redundancy_specs():
    assert parse_redundancy("none").mode == "none"
    r = parse_redundancy("duplicate-2")
    assert r.mode == "duplicate" and r.copies == 2
    assert r.spec == "duplicate-2"
    p = parse_redundancy("parity")
    assert p.mode == "parity" and p.group == 4 and p.spec == "parity"
    assert parse_redundancy("parity-8").group == 8
    assert parse_redundancy("PARITY").mode == "parity"  # case-insensitive


@pytest.mark.parametrize(
    "spec", ["bogus", "duplicate-", "duplicate-x", "parity-y", ""]
)
def test_parse_redundancy_rejects_garbage(spec):
    with pytest.raises(ValueError):
        parse_redundancy(spec)


def test_redundancy_validation():
    with pytest.raises(ValueError):
        Redundancy("duplicate", copies=0)
    with pytest.raises(ValueError):
        Redundancy("parity", group=1)
    with pytest.raises(ValueError):
        Redundancy("raid6")


# -- in-memory driver --------------------------------------------------------


def deal(scheduler, keys):
    """Deal everything round-robin; returns the frames as
    (key, assignment) pairs in the order they were dealt."""
    for k in keys:
        scheduler.add_sublink(k)
    frames = []
    live = list(keys)
    while live:
        for k in list(live):
            a = scheduler.next_assignment(k)
            if a is None:
                scheduler.sublink_finished(k)
                live.remove(k)
                continue
            assert a.payload is not None
            a.header_sent = True
            a.sent = a.length
            frames.append((k, a))
    return frames


def wire(a):
    return a.frame_header() + a.payload


def drain(scheduler, keys):
    """Deal everything round-robin; returns {key: wire bytes}."""
    wires = {k: bytearray() for k in keys}
    for k, a in deal(scheduler, keys):
        wires[k] += wire(a)
    return {k: bytes(v) for k, v in wires.items()}


def assemble(payload_length, wires, slice_bytes=None, **kw):
    """Feed wires into a fresh assembler; returns (asm, delivered, events).

    With ``slice_bytes`` the wires are interleaved round-robin in
    slices of that size — how concurrent sublinks actually arrive —
    instead of one whole wire at a time.
    """
    asm = StripeAssembler(payload_length, **kw)
    for k in wires:
        asm.attach(k)
    events = []
    if slice_bytes is None:
        for k, wire in wires.items():
            events += asm.feed_bytes(k, wire)
    else:
        cursors = {k: 0 for k in wires}
        while any(cursors[k] < len(wires[k]) for k in wires):
            for k, wire in wires.items():
                at = cursors[k]
                if at < len(wire):
                    events += asm.feed_bytes(k, wire[at : at + slice_bytes])
                    cursors[k] = at + slice_bytes
    out = bytearray()
    for e in events:
        if hasattr(e, "chunk"):
            out += e.chunk.data
    return asm, bytes(out), events


# -- plain striping ----------------------------------------------------------


def test_round_trip_two_sublinks_byte_identical():
    sch = StripeScheduler(len(PAYLOAD), data=PAYLOAD, stripe_bytes=128 * 1024)
    wires = drain(sch, ["a", "b"])
    assert sch.all_dealt and sch.failed is None
    assert all(wires.values()), "both sublinks must carry frames"
    asm, out, events = assemble(len(PAYLOAD), wires)
    assert asm.complete and asm.digest_ok is True
    assert out == PAYLOAD
    assert isinstance(events[-1], Completed)


def test_virtual_payload_digest_round_trip():
    sch = StripeScheduler(300_000, stripe_bytes=64 * 1024)
    sch.add_sublink("a")
    asm = StripeAssembler(300_000)
    asm.attach("a")
    while True:
        a = sch.next_assignment("a")
        if a is None:
            break
        chunks = [Chunk.real(a.frame_header())]
        if a.payload is None:
            chunks.append(Chunk(a.length, None))
        else:
            chunks.append(Chunk.real(a.payload))
        asm.feed("a", chunks)
        a.header_sent = True
        a.sent = a.length
    assert asm.complete and asm.digest_ok is True
    assert asm.payload_received == 300_000


def test_scheduler_validation():
    with pytest.raises(LslError):
        StripeScheduler(0)
    with pytest.raises(LslError):
        StripeScheduler(10, data=b"short" * 3)
    with pytest.raises(ValueError):
        StripeScheduler(10, stripe_bytes=0)
    with pytest.raises(LslError):  # parity needs real bytes to XOR
        StripeScheduler(10, redundancy=Redundancy("parity"))
    sch = StripeScheduler(10)
    sch.add_sublink("a")
    with pytest.raises(LslError):
        sch.add_sublink("a")
    with pytest.raises(KeyError):
        sch.next_assignment("never-added")


# -- loss, re-deal, migration ------------------------------------------------


def test_lost_sublink_redeals_to_survivor():
    sch = StripeScheduler(len(PAYLOAD), data=PAYLOAD, stripe_bytes=128 * 1024)
    sch.add_sublink("a")
    sch.add_sublink("b")
    # deal the first two stripes to a, then lose it
    first = sch.next_assignment("a")
    second = sch.next_assignment("a")
    assert first.offset == 0 and second.offset == 128 * 1024
    sch.sublink_lost("a", ConnectionError("path died"))
    assert sch.failed is None  # b can still cover
    assert sch.redeals == 2
    # b now re-deals a's stripes before fresh ones
    redealt = sch.next_assignment("b")
    assert redealt.offset in (0, 128 * 1024)


def test_all_sublinks_lost_fails_the_session():
    sch = StripeScheduler(len(PAYLOAD), data=PAYLOAD)
    sch.add_sublink("a")
    sch.next_assignment("a")
    sch.sublink_lost("a", ConnectionError("gone"))
    assert isinstance(sch.failed, ConnectionError)
    assert sch.next_assignment("a") is None


def test_migrate_moves_uncovered_work_to_new_key():
    sch = StripeScheduler(len(PAYLOAD), data=PAYLOAD, stripe_bytes=128 * 1024)
    sch.add_sublink("old")
    a = sch.next_assignment("old")
    sch.migrate("old", "new")
    assert sch.migrations == 1
    assert sch.redeals == 1
    assert sch.alive_sublinks == ["new"]
    moved = sch.next_assignment("new")
    assert moved.offset == a.offset  # the abandoned stripe re-dealt first


def test_duplicate_coverage_survives_silent_path_loss():
    """duplicate-1: drop one sublink's entire wire; the other alone
    completes the session — zero re-deals needed."""
    sch = StripeScheduler(
        len(PAYLOAD),
        data=PAYLOAD,
        stripe_bytes=128 * 1024,
        redundancy=Redundancy("duplicate", copies=1),
    )
    wires = drain(sch, ["a", "b"])
    assert sch.redundant_stripes > 0
    asm, out, _ = assemble(len(PAYLOAD), {"b": wires["b"]})
    assert asm.complete and asm.digest_ok is True
    assert out == PAYLOAD
    assert sch.redeals == 0


def test_duplicate_both_wires_discards_duplicates():
    sch = StripeScheduler(
        len(PAYLOAD),
        data=PAYLOAD,
        stripe_bytes=128 * 1024,
        redundancy=Redundancy("duplicate", copies=1),
    )
    wires = drain(sch, ["a", "b"])
    asm, out, _ = assemble(len(PAYLOAD), wires, slice_bytes=64 * 1024)
    assert asm.complete and asm.digest_ok is True
    assert out == PAYLOAD
    # the extra copies get discarded (anything still in flight when the
    # session completed is dropped unread, so this is an upper bound)
    assert 0 < asm.duplicate_bytes <= len(PAYLOAD) + DIGEST_LEN


# -- trailer handling --------------------------------------------------------


def test_duplicate_trailer_discarded_not_fatal():
    """Satellite regression: the digest trailer arriving on two
    sublinks is a duplicate to discard, deterministically — never a
    protocol error."""
    sch = StripeScheduler(
        1000, data=bytes(1000), redundancy=Redundancy("duplicate", copies=1)
    )
    wires = drain(sch, ["a", "b"])
    asm, _, events = assemble(1000, wires, slice_bytes=64)
    assert asm.complete and asm.digest_ok is True
    assert asm.failed is None
    assert asm.duplicate_bytes >= DIGEST_LEN
    assert not any(isinstance(e, Failed) for e in events)


def test_conflicting_trailer_bytes_fail():
    asm = StripeAssembler(10)
    asm.attach("a")
    asm.attach("b")
    asm.feed_bytes("a", encode_frame_header(10, DIGEST_LEN) + b"A" * DIGEST_LEN)
    events = asm.feed_bytes(
        "b", encode_frame_header(10, DIGEST_LEN) + b"B" * DIGEST_LEN
    )
    assert any(isinstance(e, Failed) for e in events)
    assert isinstance(asm.failed, ProtocolError)


def test_virtual_trailer_bytes_rejected():
    asm = StripeAssembler(10)
    asm.attach("a")
    events = asm.feed(
        "a",
        [Chunk.real(encode_frame_header(10, DIGEST_LEN)), Chunk(DIGEST_LEN, None)],
    )
    assert any(isinstance(e, Failed) for e in events)


def test_frame_crossing_payload_boundary_rejected():
    asm = StripeAssembler(100)
    asm.attach("a")
    events = asm.feed_bytes("a", encode_frame_header(90, 20) + bytes(20))
    assert any(isinstance(e, Failed) for e in events)


# -- parity ------------------------------------------------------------------


def test_parity_reconstructs_one_missing_stripe_per_group():
    sch = StripeScheduler(
        len(PAYLOAD),
        data=PAYLOAD,
        stripe_bytes=128 * 1024,
        redundancy=Redundancy("parity", group=4),
    )
    sch.add_sublink("a")
    # single sublink deals everything in order: announce, data, parity
    frames = []
    while True:
        a = sch.next_assignment("a")
        if a is None:
            break
        frames.append(a)
        a.header_sent = True
        a.sent = a.length
    kinds = [f.kind for f in frames]
    assert kinds[0] == "announce"
    assert "parity" in kinds and kinds[-1] == KIND_TRAILER
    # drop ONE data stripe; feed everything else
    drop = next(f for f in frames if f.kind == KIND_DATA and f.offset > 0)
    asm = StripeAssembler(len(PAYLOAD))
    asm.attach("a")
    out = bytearray()
    for f in frames:
        if f is drop:
            continue
        for e in asm.feed_bytes("a", f.frame_header() + f.payload):
            if hasattr(e, "chunk"):
                out += e.chunk.data
    assert asm.complete and asm.digest_ok is True
    assert asm.reconstructed_blocks == 1
    assert bytes(out) == PAYLOAD


def test_parity_block_before_announce_rejected():
    asm = StripeAssembler(100)
    asm.attach("a")
    bad = encode_frame_header(PARITY_BASE + (1 << 32), 4) + bytes(4)
    events = asm.feed_bytes("a", bad)
    assert any(isinstance(e, Failed) for e in events)


def parity_frames(payload, keys, stripe, group):
    """``payload`` dealt under parity: (key, assignment) in dealt order."""
    sch = StripeScheduler(
        len(payload),
        data=payload,
        stripe_bytes=stripe,
        redundancy=Redundancy("parity", group=group),
    )
    return deal(sch, keys)


def feed_all(asm, feeds):
    """Feed (key, bytes) pairs; returns the delivered bytes."""
    out = bytearray()
    for k, data in feeds:
        for e in asm.feed_bytes(k, data):
            if hasattr(e, "chunk"):
                out += e.chunk.data
    return bytes(out)


def xor_reference(blocks):
    """Byte-at-a-time XOR, blocks aligned at index 0: the arithmetic
    ``xor_into`` must reproduce."""
    out = bytearray(max(map(len, blocks), default=0))
    for blk in blocks:
        for i, b in enumerate(blk):
            out[i] ^= b
    return bytes(out)


@pytest.mark.parametrize(
    "lengths",
    [[0], [1], [0, 1], [1, 1], [5, 3, 4], [9, 9, 9, 2],
     [128 * 1024, 128 * 1024, 128 * 1024 - 7]],
)
def test_xor_kernel_matches_bytewise_reference(lengths):
    rng = random.Random(len(lengths) * 31 + lengths[-1])
    blocks = [rng.randbytes(n) for n in lengths]
    got = reduce(xor_into, blocks, 0).to_bytes(max(lengths), "little")
    assert got == xor_reference(blocks)


@st.composite
def parity_cases(draw):
    stripe = draw(st.integers(1, 24))
    group = draw(st.integers(2, 8))
    payload = draw(st.binary(min_size=1, max_size=stripe * group * 3))
    n_stripes = -(-len(payload) // stripe)
    withheld = set()
    for first in range(0, n_stripes, group):
        blocks = min(group, n_stripes - first)
        pick = draw(st.one_of(st.none(), st.integers(0, group - 1)))
        # a one-stripe tail group has no parity block to rebuild from
        if pick is not None and blocks > 1:
            withheld.add(first + pick % blocks)
    return {
        "payload": payload,
        "stripe": stripe,
        "group": group,
        "keys": ["a", "b", "c"][: draw(st.integers(1, 3))],
        "withheld": withheld,
        "feed": draw(st.sampled_from([1, 2, 7, 64, 1 << 20])),
        # None: frames arrive in the order dealt; else a seeded merge of
        # the sublinks' byte streams (each in its own order)
        "merge_seed": draw(st.one_of(st.none(), st.integers(0, 2**16))),
    }


@settings(max_examples=150, deadline=None)
@given(parity_cases())
@example({"payload": b"x" * 5, "stripe": 8, "group": 2, "keys": ["a"],
          "withheld": set(), "feed": 1, "merge_seed": None})  # < one stripe
@example({"payload": bytes(range(33)), "stripe": 4, "group": 4,
          "keys": ["a", "b", "c"], "withheld": {0, 5},
          "feed": 1, "merge_seed": None})  # short tail in a 1-stripe group
@example({"payload": bytes(range(30)), "stripe": 4, "group": 4,
          "keys": ["a", "b"], "withheld": {3, 7}, "feed": 2,
          "merge_seed": 3})  # the short tail stripe itself is lost
def test_parity_delivers_any_geometry_and_leaves_nothing_behind(case):
    payload, stripe = case["payload"], case["stripe"]
    streams = {k: bytearray() for k in case["keys"]}
    in_order = []
    for k, a in parity_frames(payload, case["keys"], stripe, case["group"]):
        if a.kind == KIND_DATA and a.offset // stripe in case["withheld"]:
            continue
        data = wire(a)
        streams[k] += data
        in_order += [
            (k, data[i : i + case["feed"]])
            for i in range(0, len(data), case["feed"])
        ]
    if case["merge_seed"] is None:
        feeds = in_order
    else:
        rng = random.Random(case["merge_seed"])
        feeds = []
        while any(streams.values()):
            k = rng.choice([k for k, s in streams.items() if s])
            feeds.append((k, bytes(streams[k][: case["feed"]])))
            del streams[k][: case["feed"]]
    asm = StripeAssembler(len(payload))
    for k in case["keys"]:
        asm.attach(k)
    assert feed_all(asm, feeds) == payload
    assert asm.complete and asm.digest_ok is True
    if case["merge_seed"] is None:
        assert asm.reconstructed_blocks == len(case["withheld"])
    else:
        # a block still in flight when its group's parity lands is
        # rebuilt early and its late copy discarded as a duplicate
        assert asm.reconstructed_blocks >= len(case["withheld"])
    assert asm._parity == {} and asm._retained == {} and asm.ooo_bytes == 0


def test_late_parity_block_is_discarded_not_retained():
    # loss-free order on one sublink: each group's data, then its parity
    # block -- which arrives after the group was delivered and cleaned
    events = []
    asm = StripeAssembler(len(PAYLOAD), observer=events.append)
    asm.attach("a")
    parity_bytes = 0
    out = bytearray()
    for _, a in parity_frames(PAYLOAD, ["a"], 64 * 1024, 2):
        out += feed_all(asm, [("a", wire(a))])
        if a.kind == "parity":
            parity_bytes += a.length
        assert asm._parity == {}
    assert bytes(out) == PAYLOAD and asm.digest_ok is True
    assert parity_bytes > 0 and asm.duplicate_bytes == parity_bytes
    discarded = [e for e in events if e.kind == "duplicate-discarded"]
    assert discarded and all(e.detail["parity"] is True for e in discarded)
    assert asm.reconstructed_blocks == 0 and asm._retained == {}


class CountingAssembler(StripeAssembler):
    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.calls = {"group_blocks": 0, "block_bytes": 0}

    def _group_blocks(self, group):
        self.calls["group_blocks"] += 1
        return super()._group_blocks(group)

    def _block_bytes(self, start, length):
        self.calls["block_bytes"] += 1
        return super()._block_bytes(start, length)


@pytest.mark.parametrize("head_of_line_blocked", [False, True])
def test_loss_free_parity_assembly_work_is_linear(head_of_line_blocked):
    """Counts, not clocks: 4x the stripes may cost 4x the group scans
    and block copies, not 16x (late parity blocks must not pile up, and
    a fully covered group must be settled once, not on every feed)."""
    stripe, group = 16, 4

    def calls(n_stripes):
        payload = random.Random(n_stripes).randbytes(stripe * n_stripes)
        frames = [wire(a) for _, a in parity_frames(payload, ["a"], stripe, group)]
        if head_of_line_blocked:
            # announce first; group 0 (4 stripes + parity) arrives after
            # everything else, so every later group waits fully covered
            frames = frames[:1] + frames[6:] + frames[1:6]
        asm = CountingAssembler(len(payload))
        asm.attach("a")
        assert feed_all(asm, [("a", f) for f in frames]) == payload
        assert asm.complete and asm.reconstructed_blocks == 0
        assert asm._parity == {} and asm._retained == {}
        return asm.calls

    small, large = calls(64), calls(256)
    for name in small:
        assert large[name] <= 4 * small[name] + 8, (name, small, large)


def test_assembler_validation():
    with pytest.raises(ProtocolError):
        StripeAssembler(0)
    asm = StripeAssembler(10)
    asm.attach("a")
    with pytest.raises(LslError):
        asm.attach("a")
    asm.sublink_closed("a")  # idempotent, torn frames are fine
    asm.sublink_closed("a")
