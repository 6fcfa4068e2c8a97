"""A header that trickles in costs a decode per field, not one per byte.

A depot reads whatever the kernel hands it; a slow or hostile sender
can feed the header one byte per read. :class:`HeaderAccumulator`
decodes again only once its buffer holds what the last
``IncompleteHeader`` asked for, so the largest header the route cap
allows (16 hops of 245-byte host names: 4,008 bytes) costs the fixed
part, then two decodes per hop — not 4,008.
"""

import pytest

from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.wire import (
    HeaderAccumulator,
    LslHeader,
    MAX_HOPS,
    RouteHop,
)


@pytest.fixture
def decodes(monkeypatch):
    """Count ``LslHeader.decode`` calls."""
    calls = []
    decode = LslHeader.decode

    def counting(data):
        calls.append(len(data))
        return decode(data)

    monkeypatch.setattr(LslHeader, "decode", counting)
    return calls


def _widest_header() -> bytes:
    route = tuple(RouteHop(f"{i:02d}" + "h" * 243, 4000 + i) for i in range(MAX_HOPS))
    return LslHeader(
        session_id=bytes(range(16)), route=route, hop_index=0, payload_length=5
    ).encode()


def test_a_header_fed_a_byte_at_a_time_decodes_once_per_field(decodes):
    raw = _widest_header()
    assert len(raw) == 4_008
    whole, _ = LslHeader.decode(raw)
    decodes.clear()
    acc = HeaderAccumulator()
    for i in range(len(raw) - 1):
        assert acc.feed(raw[i:i + 1]) is None
        assert acc.hint >= 1
    assert acc.feed(raw[-1:]) == whole
    assert acc.raw == raw and acc.surplus == b""
    # the first byte, the fixed part, then each hop's length byte and body
    assert len(decodes) == 2 + 2 * MAX_HOPS


def test_a_trickled_header_is_rejected_at_the_byte_a_whole_one_is(decodes):
    raw = bytearray(_widest_header())
    raw[0:4] = b"NOPE"
    acc = HeaderAccumulator()
    with pytest.raises(ProtocolError):
        for i in range(len(raw)):
            acc.feed(bytes(raw[i:i + 1]))
    assert i == 39  # the last byte of the fixed part
