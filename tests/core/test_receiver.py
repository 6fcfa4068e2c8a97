"""PayloadReceiver / FramedReceiver: server-side machines in isolation.

These tests feed the machines directly — no sockets, no simulator —
including the regression edges from the cascaded-relay bugfix sweep
(duplicate FIN, early FIN, trailer split across reads).
"""

import hashlib

import pytest

from repro.lsl.core import (
    Chunk,
    Completed,
    Deliver,
    DigestMismatch,
    EOF_CLOSE,
    EOF_COMPLETE,
    EOF_SUSPEND,
    Failed,
    FramedReceiver,
    PayloadReceiver,
    ProtocolError,
    STREAM_UNTIL_FIN,
    encode_frame_header,
)
from repro.lsl.core.wire import LslHeader, RouteHop


def make_header(**kw):
    defaults = dict(
        session_id=bytes(16),
        route=(RouteHop("srv", 5000),),
        payload_length=10,
        digest=True,
    )
    defaults.update(kw)
    return LslHeader(**defaults)


def md5(data: bytes) -> bytes:
    return hashlib.md5(data).digest()


def deliveries(events):
    return b"".join(
        e.chunk.data for e in events if isinstance(e, Deliver)
    )


def test_payload_then_trailer_completes():
    payload = b"0123456789"
    r = PayloadReceiver(make_header())
    events = r.feed([Chunk.real(payload), Chunk.real(md5(payload))])
    assert deliveries(events) == payload
    assert isinstance(events[-1], Completed)
    assert events[-1].digest_ok is True
    assert r.complete


def test_trailer_split_across_chunk_boundary():
    payload = b"0123456789"
    trailer = md5(payload)
    r = PayloadReceiver(make_header())
    r.feed([Chunk.real(payload[:7])])
    # one chunk straddles the payload/trailer boundary, trailer torn too
    r.feed([Chunk.real(payload[7:] + trailer[:5])])
    events = r.feed([Chunk.real(trailer[5:])])
    assert isinstance(events[-1], Completed)
    assert r.digest_ok is True


def test_digest_mismatch_fails():
    payload = b"0123456789"
    r = PayloadReceiver(make_header())
    events = r.feed([Chunk.real(payload), Chunk.real(b"\x00" * 16)])
    assert isinstance(events[-1], Failed)
    assert isinstance(events[-1].error, DigestMismatch)
    assert r.digest_ok is False
    # a finished machine ignores further input
    assert r.feed([Chunk.real(b"more")]) == []


def test_overrun_without_digest_fails():
    r = PayloadReceiver(make_header(digest=False, payload_length=4))
    events = r.feed([Chunk.real(b"12345")])
    assert isinstance(events[-1], Failed)
    assert "overrun" in str(events[-1].error)


def test_trailer_overrun_fails():
    payload = b"0123456789"
    r = PayloadReceiver(make_header())
    events = r.feed([Chunk.real(payload + md5(payload) + b"x")])
    assert isinstance(events[-1], Failed)


def test_virtual_bytes_in_trailer_fail():
    r = PayloadReceiver(make_header(payload_length=4))
    events = r.feed([Chunk.real(b"abcd"), Chunk.virtual(16)])
    assert isinstance(events[-1], Failed)


def test_virtual_payload_is_digested_by_convention():
    r = PayloadReceiver(make_header(payload_length=100))
    from repro.lsl.core import virtual_digest_factory

    expected = virtual_digest_factory(100).digest()
    events = r.feed([Chunk.virtual(100), Chunk.real(expected)])
    assert isinstance(events[-1], Completed)
    assert r.digest_ok is True


def test_stream_until_fin_eof_is_completion():
    r = PayloadReceiver(
        make_header(digest=False, payload_length=STREAM_UNTIL_FIN)
    )
    r.feed([Chunk.real(b"whatever")])
    assert r.feed_eof() == EOF_COMPLETE
    assert r.complete


def test_eof_mid_payload_suspends():
    r = PayloadReceiver(make_header(payload_length=10))
    r.feed([Chunk.real(b"12345")])
    assert r.feed_eof() == EOF_SUSPEND
    assert not r.finished
    # duplicate FIN (PR 2 regression): classification is stable
    assert r.feed_eof() == EOF_SUSPEND


def test_eof_after_completion_is_close():
    payload = b"0123456789"
    r = PayloadReceiver(make_header())
    r.feed([Chunk.real(payload + md5(payload))])
    assert r.feed_eof() == EOF_CLOSE


def test_rebind_keeps_received_count_and_digest():
    payload = b"0123456789"
    r = PayloadReceiver(make_header())
    r.feed([Chunk.real(payload[:6])])
    r.rebind(make_header(rebind=True, resume_offset=6))
    events = r.feed([Chunk.real(payload[6:] + md5(payload))])
    assert isinstance(events[-1], Completed)
    assert r.digest_ok is True


def test_undigested_session_hashes_nothing():
    r = PayloadReceiver(make_header(digest=False))
    events = r.feed([Chunk.real(b"01234"), Chunk(5, None)])
    assert isinstance(events[-1], Completed)
    assert r.payload_received == 10 and r.digest_ok is None
    assert r.digest.total_bytes == 0


def test_rebind_cannot_turn_the_digest_on_mid_payload():
    """The undigested prefix was never hashed, so a digested rebind
    could only end in a false mismatch: it is refused instead."""
    r = PayloadReceiver(make_header(digest=False))
    r.feed([Chunk.real(b"012345")])
    with pytest.raises(ProtocolError):
        r.rebind(make_header(rebind=True, resume_offset=6))
    r.rebind(make_header(digest=False, rebind=True, resume_offset=6))
    events = r.feed([Chunk.real(b"6789")])
    assert isinstance(events[-1], Completed)


# -- framed ----------------------------------------------------------------


def frame(offset, data):
    return encode_frame_header(offset, len(data)) + data


def test_framed_sequential_frames_complete():
    payload = b"0123456789"
    h = make_header(framed=True)
    r = FramedReceiver(h)
    wire = (
        frame(0, payload[:4])
        + frame(4, payload[4:])
        + frame(10, md5(payload))
    )
    events = r.feed([Chunk.real(wire)])
    assert deliveries(events) == payload
    assert isinstance(events[-1], Completed)
    assert r.inner.digest_ok is True


def test_framed_out_of_order_frame_fails():
    h = make_header(framed=True)
    r = FramedReceiver(h)
    events = r.feed([Chunk.real(frame(4, b"late"))])
    assert isinstance(events[-1], Failed)


def test_framed_torn_frame_eof_suspends():
    h = make_header(framed=True)
    r = FramedReceiver(h)
    whole = frame(0, b"0123456789")
    r.feed([Chunk.real(whole[:7])])  # tear mid-frame
    assert r.feed_eof() == EOF_SUSPEND


def test_framed_requires_declared_length():
    with pytest.raises(ProtocolError):
        FramedReceiver(
            make_header(digest=False, payload_length=STREAM_UNTIL_FIN)
        )


def test_framed_trailer_at_wrong_offset_fails():
    payload = b"0123456789"
    h = make_header(framed=True)
    r = FramedReceiver(h)
    r.feed([Chunk.real(frame(0, payload))])
    events = r.feed([Chunk.real(frame(12, md5(payload)))])
    assert isinstance(events[-1], Failed)
