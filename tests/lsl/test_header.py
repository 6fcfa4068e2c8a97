"""Tests for the LSL wire header: codec, routes, incremental parse."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.core.errors import ProtocolError, RouteError
from repro.lsl.core.wire import (
    HEADER_MAGIC,
    HeaderAccumulator,
    IncompleteHeader,
    LslHeader,
    MAX_HOPS,
    RouteHop,
    STREAM_UNTIL_FIN,
    onward_header,
)

SID = bytes(range(16))


def make_header(**kwargs):
    defaults = dict(
        session_id=SID,
        route=(RouteHop("depot", 4000), RouteHop("server", 5000)),
        hop_index=0,
        payload_length=1 << 20,
    )
    defaults.update(kwargs)
    return LslHeader(**defaults)


def test_roundtrip():
    h = make_header(digest=True, rebind=False, sync=True)
    data = h.encode()
    parsed, consumed = LslHeader.decode(data)
    assert parsed == h
    assert consumed == len(data)


def test_roundtrip_with_trailing_payload():
    h = make_header()
    data = h.encode() + b"PAYLOAD"
    parsed, consumed = LslHeader.decode(data)
    assert parsed == h
    assert data[consumed:] == b"PAYLOAD"


def test_magic_validated():
    data = bytearray(make_header().encode())
    data[:4] = b"XXXX"
    with pytest.raises(ProtocolError):
        LslHeader.decode(bytes(data))


def test_version_validated():
    data = bytearray(make_header().encode())
    data[4] = 99
    with pytest.raises(ProtocolError):
        LslHeader.decode(bytes(data))


def test_incomplete_raises_incomplete():
    data = make_header().encode()
    for cut in (0, 1, 10, len(data) - 1):
        with pytest.raises(IncompleteHeader):
            LslHeader.decode(data[:cut])


def test_bad_session_id_length():
    with pytest.raises(ProtocolError):
        make_header(session_id=b"short")


def test_empty_route_rejected():
    with pytest.raises(RouteError):
        make_header(route=())


def test_too_many_hops_rejected():
    hops = tuple(RouteHop(f"h{i}", 1000 + i) for i in range(MAX_HOPS + 1))
    with pytest.raises(RouteError):
        make_header(route=hops)


def test_hop_index_bounds():
    with pytest.raises(RouteError):
        make_header(hop_index=2)
    with pytest.raises(RouteError):
        make_header(hop_index=-1)


def test_bad_port_rejected():
    with pytest.raises(RouteError):
        make_header(route=(RouteHop("h", 0),))
    with pytest.raises(RouteError):
        make_header(route=(RouteHop("h", 70000),))


def test_is_last_hop_and_next_hop():
    h = make_header(hop_index=0)
    assert not h.is_last_hop
    assert h.next_hop == RouteHop("server", 5000)
    last = make_header(hop_index=1)
    assert last.is_last_hop
    with pytest.raises(RouteError):
        last.next_hop


def test_onward_header_increments_hop():
    h = make_header(hop_index=0)
    onward, _ = LslHeader.decode(onward_header(h.encode()))
    assert onward.hop_index == 1
    assert onward.route == h.route


def test_flags_roundtrip_all_combos():
    for digest in (False, True):
        for rebind in (False, True):
            for sync in (False, True):
                h = make_header(
                    digest=digest, rebind=rebind, sync=sync, resume_offset=7 if rebind else 0
                )
                parsed, _ = LslHeader.decode(h.encode())
                assert (parsed.digest, parsed.rebind, parsed.sync) == (
                    digest,
                    rebind,
                    sync,
                )


def test_stream_until_fin_roundtrip():
    h = make_header(payload_length=STREAM_UNTIL_FIN)
    parsed, _ = LslHeader.decode(h.encode())
    assert parsed.payload_length == STREAM_UNTIL_FIN


def test_accumulator_byte_at_a_time():
    h = make_header()
    acc = HeaderAccumulator()
    data = h.encode() + b"XYZ"
    result = None
    for i, byte in enumerate(data):
        result = acc.feed(bytes([byte]))
        if result is not None:
            break
    assert result == h
    rest = data[i + 1 :]
    assert acc.surplus + rest == b"XYZ"


def test_accumulator_single_feed():
    h = make_header()
    acc = HeaderAccumulator()
    assert acc.feed(h.encode() + b"tail") == h
    assert acc.surplus == b"tail"


def test_accumulator_refuses_double_parse():
    h = make_header()
    acc = HeaderAccumulator()
    acc.feed(h.encode())
    with pytest.raises(ProtocolError):
        acc.feed(b"more")


hostnames = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.", min_size=1, max_size=40
)
hops_strategy = st.lists(
    st.tuples(hostnames, st.integers(min_value=1, max_value=65535)),
    min_size=1,
    max_size=MAX_HOPS,
).map(lambda hs: tuple(RouteHop(h, p) for h, p in hs))


@given(
    session_id=st.binary(min_size=16, max_size=16),
    route=hops_strategy,
    payload_length=st.one_of(
        st.integers(min_value=0, max_value=1 << 60), st.just(STREAM_UNTIL_FIN)
    ),
    digest=st.booleans(),
    sync=st.booleans(),
    resume=st.integers(min_value=0, max_value=1 << 40),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_roundtrip_property(session_id, route, payload_length, digest, sync, resume, data):
    hop_index = data.draw(st.integers(min_value=0, max_value=len(route) - 1))
    h = LslHeader(
        session_id=session_id,
        route=route,
        hop_index=hop_index,
        payload_length=payload_length,
        digest=digest,
        rebind=resume > 0,
        sync=sync,
        resume_offset=resume,
    )
    parsed, consumed = LslHeader.decode(h.encode() + b"\x00" * 5)
    assert parsed == h
    assert consumed == len(h.encode())
