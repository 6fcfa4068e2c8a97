"""Wire-level trace context: codec round-trip and hop semantics."""

import pytest

from repro.lsl.core import ProtocolError
from repro.lsl.core.wire import (
    FLAG_TRACE,
    IncompleteHeader,
    LslHeader,
    RouteHop,
    TraceContext,
    onward_header,
)

TID = bytes(range(16))


def _header(**kw):
    return LslHeader(
        session_id=bytes(16),
        route=(RouteHop("d", 4000), RouteHop("s", 5000)),
        payload_length=1234,
        **kw,
    )


def test_untraced_encoding_unchanged():
    """FLAG_TRACE off: byte-identical to the pre-trace wire format."""
    plain = _header()
    assert plain.trace is None
    data = plain.encode()
    assert not data[4] & FLAG_TRACE if len(data) > 4 else True
    decoded, consumed = LslHeader.decode(data)
    assert decoded == plain
    assert consumed == len(data)
    traced = plain.with_trace(TraceContext(TID))
    assert len(traced.encode()) == len(data) + 25  # 16 + 8 + 1


def test_trace_round_trip():
    h = _header().with_trace(TraceContext(TID, parent_span=77, hop=3))
    decoded, consumed = LslHeader.decode(h.encode() + b"extra")
    assert consumed == len(h.encode())
    assert decoded == h
    assert decoded.trace is not None
    assert decoded.trace.trace_id == TID
    assert decoded.trace.parent_span == 77
    assert decoded.trace.hop == 3


def test_trace_descriptor_truncation_is_incomplete():
    data = _header().with_trace(TraceContext(TID)).encode()
    for cut in range(len(data) - 25, len(data)):
        with pytest.raises(IncompleteHeader):
            LslHeader.decode(data[:cut])


def test_traced_onward_advances_hop_and_parent():
    h = _header().with_trace(TraceContext(TID, parent_span=1, hop=0))
    onward = h.traced_onward(42)
    assert onward.hop_index == h.hop_index + 1
    assert onward.trace.trace_id == TID
    assert onward.trace.parent_span == 42
    assert onward.trace.hop == 1
    # round-trips like any other header
    decoded, _ = LslHeader.decode(onward.encode())
    assert decoded == onward


def test_traced_onward_requires_trace():
    with pytest.raises(ProtocolError):
        _header().traced_onward(42)


def test_onward_header_forwards_trace_verbatim():
    """An untraced depot must not disturb the upstream parent link."""
    tctx = TraceContext(TID, parent_span=9, hop=1)
    raw = _header().with_trace(tctx).encode()
    advanced, _ = LslHeader.decode(onward_header(raw))
    assert advanced.hop_index == 1
    assert advanced.trace == tctx


def test_trace_context_validation():
    with pytest.raises(ProtocolError):
        TraceContext(b"short")
    with pytest.raises(ProtocolError):
        TraceContext(TID, parent_span=-1)
    with pytest.raises(ProtocolError):
        TraceContext(TID, hop=256)
    assert TraceContext(TID, hop=255).child(5).hop == 255  # saturates
