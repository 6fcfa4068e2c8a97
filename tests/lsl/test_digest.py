"""Tests for the mixed real/virtual stream digest."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.core.digest import StreamDigest
from repro.tcp.buffers import StreamChunk


def test_all_real_equals_plain_md5():
    d = StreamDigest()
    d.update(b"hello ")
    d.update(b"world")
    assert d.digest() == hashlib.md5(b"hello world").digest()


def test_empty_digest_is_md5_empty():
    assert StreamDigest().digest() == hashlib.md5(b"").digest()


def test_real_split_invariance():
    """Chunking of real bytes must not change the digest."""
    data = bytes(range(256)) * 10
    one = StreamDigest()
    one.update(data)
    many = StreamDigest()
    for i in range(0, len(data), 37):
        many.update(data[i : i + 37])
    assert one.digest() == many.digest()


def test_virtual_run_split_invariance():
    """A virtual run fed in any pieces hashes identically."""
    a = StreamDigest()
    a.update_virtual(1000)
    b = StreamDigest()
    for _ in range(10):
        b.update_virtual(100)
    assert a.digest() == b.digest()


def test_virtual_length_matters():
    a = StreamDigest()
    a.update_virtual(10)
    b = StreamDigest()
    b.update_virtual(11)
    assert a.digest() != b.digest()


def test_transition_positions_matter():
    a = StreamDigest()
    a.update(b"xy")
    a.update_virtual(5)
    b = StreamDigest()
    b.update(b"x")
    b.update_virtual(5)
    b.update(b"y")
    assert a.digest() != b.digest()


def test_mixed_stream_roundtrip_between_peers():
    """Sender and receiver with different chunking agree."""
    sender = StreamDigest()
    sender.update(b"HDR")
    sender.update_virtual(10_000)
    sender.update(b"TRL")

    receiver = StreamDigest()
    receiver.update(b"HD")
    receiver.update(b"R")
    for _ in range(4):
        receiver.update_virtual(2500)
    receiver.update(b"T")
    receiver.update(b"RL")
    assert sender.digest() == receiver.digest()


def test_digest_is_nondestructive():
    d = StreamDigest()
    d.update_virtual(100)
    first = d.digest()
    assert d.digest() == first  # can be read repeatedly
    d.update_virtual(1)
    assert d.digest() != first


def test_total_bytes():
    d = StreamDigest()
    d.update(b"abc")
    d.update_virtual(100)
    assert d.total_bytes == 103


def test_update_chunk_dispatch():
    d1 = StreamDigest()
    d1.update_chunks([StreamChunk(3, b"abc"), StreamChunk(5, None)])
    d2 = StreamDigest()
    d2.update(b"abc")
    d2.update_virtual(5)
    assert d1.digest() == d2.digest()


def test_negative_virtual_rejected():
    with pytest.raises(ValueError):
        StreamDigest().update_virtual(-1)


@given(
    st.lists(
        st.one_of(
            st.binary(min_size=1, max_size=30),
            st.integers(min_value=1, max_value=100),
        ),
        max_size=20,
    ),
    st.integers(min_value=1, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_chunking_invariance_property(stream, split):
    """Any re-chunking that preserves run boundaries gives equal digests."""
    a = StreamDigest()
    for item in stream:
        if isinstance(item, bytes):
            a.update(item)
        else:
            a.update_virtual(item)

    b = StreamDigest()
    for item in stream:
        if isinstance(item, bytes):
            for i in range(0, len(item), split):
                b.update(item[i : i + split])
        else:
            left = item
            while left > 0:
                piece = min(split, left)
                b.update_virtual(piece)
                left -= piece
    assert a.digest() == b.digest()
