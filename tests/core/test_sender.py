"""PayloadSender: client-side payload accounting and trailer."""

import hashlib

import pytest

from repro.lsl.core import (
    LslError,
    PayloadSender,
    STREAM_UNTIL_FIN,
    StreamDigest,
    real_digest_factory,
    virtual_digest_factory,
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


def test_finish_emits_md5_trailer():
    payload = b"0123456789"
    s = PayloadSender(make_header())
    s.check_room(len(payload))
    s.record(payload)
    assert s.remaining == 0
    assert s.finish() == hashlib.md5(payload).digest()
    assert s.finished


def test_finish_without_digest_is_empty():
    s = PayloadSender(make_header(digest=False, payload_length=3))
    s.record(b"abc")
    assert s.finish() == b""


def test_undigested_session_hashes_nothing():
    s = PayloadSender(make_header(digest=False))
    s.record(b"01234")
    s.record_virtual(5)
    assert s.bytes_sent == 10
    assert s.digest.total_bytes == 0


def test_overrun_rejected():
    s = PayloadSender(make_header(payload_length=3))
    with pytest.raises(LslError):
        s.check_room(4)


def test_send_after_finish_rejected():
    s = PayloadSender(make_header(payload_length=0))
    s.finish()
    with pytest.raises(LslError):
        s.check_room(1)


def test_finish_with_undelivered_bytes_rejected():
    s = PayloadSender(make_header(payload_length=10))
    s.record(b"only5")
    with pytest.raises(LslError):
        s.finish()


def test_virtual_payload_digest_convention():
    s = PayloadSender(make_header(payload_length=100))
    s.record_virtual(100)
    assert s.finish() == virtual_digest_factory(100).digest()


def test_resume_offset_seeds_bytes_sent():
    h = make_header(rebind=True, resume_offset=6, payload_length=10)
    payload = b"0123456789"
    state = StreamDigest()
    state.update(payload[:6])
    s = PayloadSender(h, digest_state=state)
    assert s.bytes_sent == 6
    s.record(payload[6:])
    assert s.finish() == hashlib.md5(payload).digest()


def test_rebase_rebuilds_digest_via_factory():
    payload = b"0123456789"
    h = make_header(rebind=True, resume_query=True, sync=True, payload_length=10)
    s = PayloadSender(h, digest_factory=real_digest_factory(payload))
    s.rebase(4)  # negotiated: server had 4 contiguous bytes
    assert s.bytes_sent == 4
    s.record(payload[4:])
    assert s.finish() == hashlib.md5(payload).digest()


def test_rebase_adopts_a_digest_it_is_given_without_the_factory():
    payload = b"0123456789"

    def factory(offset):
        raise AssertionError("the factory must not run")

    h = make_header(rebind=True, resume_query=True, sync=True, payload_length=10)
    s = PayloadSender(h, digest_factory=factory)
    held = real_digest_factory(payload)(4)
    s.rebase(4, held)
    assert s.digest is held and s.bytes_sent == 4
    s.record(payload[4:])
    assert s.finish() == hashlib.md5(payload).digest()


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
@pytest.mark.parametrize("offset", [0, 1, 4096, 10_000])
def test_real_digest_factory_hashes_the_prefix_of_any_buffer(kind, offset):
    payload = bytes(range(256)) * 40
    digest = real_digest_factory(kind(payload))(offset)
    assert digest.digest() == hashlib.md5(payload[:offset]).digest()
    assert digest.total_bytes == offset


def test_a_digest_copy_is_independent_of_its_original():
    original = StreamDigest()
    original.update(b"abc")
    original.update_virtual(5)
    clone = original.copy()
    assert clone.digest() == original.digest()
    assert clone.total_bytes == original.total_bytes == 8
    clone.update(b"d")
    assert clone.digest() != original.digest()
    original.update(b"d")
    assert clone.digest() == original.digest()


def test_stream_until_fin_has_no_room_limit():
    s = PayloadSender(
        make_header(digest=False, payload_length=STREAM_UNTIL_FIN)
    )
    s.check_room(1 << 40)
    assert s.remaining is None
    assert s.declared_length is None
