"""RelayCore: the depot header phase in isolation — including the
FIN-timing rules the cascaded-relay bugfix sweep pinned down."""

import pytest

from repro.lsl.core import Chunk, ProtocolError, RelayCore, RelayForward, RelayReject
from repro.lsl.core.wire import LslHeader, RouteHop


def make_header(**kw):
    defaults = dict(
        session_id=bytes(16),
        route=(RouteHop("depot", 4000), RouteHop("srv", 5000)),
        hop_index=0,
        payload_length=50,
    )
    defaults.update(kw)
    return LslHeader(**defaults)


def test_forward_decision_advances_header():
    h = make_header()
    core = RelayCore()
    decision = core.feed([Chunk.real(h.encode())])
    assert isinstance(decision, RelayForward)
    assert decision.next_hop == RouteHop("srv", 5000)
    assert decision.onward_bytes == h.advanced().encode()
    assert decision.surplus == ()


def test_incremental_feed_returns_none_until_complete():
    h = make_header()
    wire = h.encode()
    core = RelayCore()
    assert core.feed([Chunk.real(wire[:10])]) is None
    assert not core.header_complete
    decision = core.feed([Chunk.real(wire[10:])])
    assert isinstance(decision, RelayForward)


def test_surplus_payload_carried_in_order():
    h = make_header()
    core = RelayCore()
    decision = core.feed(
        [Chunk.real(h.encode() + b"abc"), Chunk.real(b"def"), Chunk.virtual(5)]
    )
    assert isinstance(decision, RelayForward)
    assert decision.surplus == (Chunk.real(b"abc"), Chunk.real(b"def"), Chunk.virtual(5))


def test_final_hop_is_rejected():
    h = make_header(route=(RouteHop("depot", 4000),), hop_index=0)
    decision = RelayCore().feed([Chunk.real(h.encode())])
    assert isinstance(decision, RelayReject)
    assert "final hop" in str(decision.error)


def test_virtual_bytes_before_header_rejected():
    decision = RelayCore().feed([Chunk.virtual(100)])
    assert isinstance(decision, RelayReject)


def test_garbage_header_rejected():
    decision = RelayCore().feed([Chunk.real(b"NOPE" + bytes(60))])
    assert isinstance(decision, RelayReject)


def test_fin_before_header_is_an_error():
    core = RelayCore()
    core.feed([Chunk.real(b"LSL")])  # incomplete
    error = core.on_upstream_fin()
    assert isinstance(error, ProtocolError)


def test_fin_in_dial_window_is_legal():
    core = RelayCore()
    core.feed([Chunk.real(make_header().encode())])
    assert core.on_upstream_fin() is None


def test_second_feed_after_decision_raises():
    core = RelayCore()
    core.feed([Chunk.real(make_header().encode())])
    with pytest.raises(ProtocolError):
        core.feed([Chunk.real(b"more")])
