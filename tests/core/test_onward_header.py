"""The depot's onward header: the received bytes, one hop on.

A depot forwards the header it received with the hop index advanced
and every flag bit this version does not know cleared
(:func:`~repro.lsl.core.wire.onward_header`), instead of re-encoding the
decoded header. The property: for every header ``LslHeader.decode``
accepts at a depot, those bytes equal the re-encoding, and however the
header arrives — one read, a byte at a time, or with payload behind it
— the decision is the same.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsl.core import Chunk, RelayCore, RelayForward
from repro.lsl.core.wire import (
    FLAG_DIGEST,
    FLAG_FRAMED,
    FLAG_REBIND,
    FLAG_RESUME_QUERY,
    FLAG_SYNC,
    FLAG_TRACE,
    HeaderAccumulator,
    KNOWN_FLAGS,
    LslHeader,
    MAX_HOPS,
    RouteHop,
    STREAM_UNTIL_FIN,
    TraceContext,
    onward_header,
)

hosts = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=90
).filter(lambda host: len(host.encode()) <= 255)
routes = st.lists(
    st.builds(RouteHop, hosts, st.integers(min_value=1, max_value=65535)),
    min_size=2,
    max_size=MAX_HOPS,
).map(tuple)
# every combination of the known flags a header may carry
known_flags = st.integers(min_value=0, max_value=KNOWN_FLAGS).filter(
    lambda flags: not flags & FLAG_RESUME_QUERY
    or flags & (FLAG_REBIND | FLAG_SYNC) == FLAG_REBIND | FLAG_SYNC
)
unknown_flags = st.integers(min_value=0, max_value=0xFF & ~KNOWN_FLAGS).map(
    lambda bits: bits & ~KNOWN_FLAGS
)
traces = st.builds(
    TraceContext,
    st.binary(min_size=16, max_size=16),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=255),
)


@st.composite
def received_headers(draw):
    """The bytes of a header a depot accepts, unknown flag bits and all."""
    route = draw(routes)
    flags = draw(known_flags)
    header = LslHeader(
        session_id=draw(st.binary(min_size=16, max_size=16)),
        route=route,
        hop_index=draw(st.integers(min_value=0, max_value=len(route) - 2)),
        payload_length=draw(st.one_of(
            st.integers(min_value=0, max_value=1 << 62), st.just(STREAM_UNTIL_FIN)
        )),
        digest=bool(flags & FLAG_DIGEST),
        rebind=bool(flags & FLAG_REBIND),
        sync=bool(flags & FLAG_SYNC),
        framed=bool(flags & FLAG_FRAMED),
        resume_offset=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
        resume_query=bool(flags & FLAG_RESUME_QUERY),
        trace=draw(traces) if flags & FLAG_TRACE else None,
    )
    raw = bytearray(header.encode())
    raw[5] |= draw(unknown_flags)
    return bytes(raw)


def _decide(chunks_per_feed):
    core = RelayCore()
    decision = None
    for chunks in chunks_per_feed:
        assert decision is None
        decision = core.feed(chunks)
    assert isinstance(decision, RelayForward)
    return decision


@given(raw=received_headers(), payload=st.binary(min_size=1, max_size=64))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_onward_bytes_are_the_reencoding_however_the_header_arrives(raw, payload):
    header, consumed = LslHeader.decode(raw)
    assert consumed == len(raw)
    reference = replace(header, hop_index=header.hop_index + 1).encode()
    assert onward_header(raw) == reference

    whole = _decide([[Chunk.real(raw)]])
    bytewise = _decide([[Chunk.real(raw[i:i + 1])] for i in range(len(raw))])
    one_feed = _decide([[Chunk.real(raw[i:i + 1]) for i in range(len(raw))]])
    for decision in (whole, bytewise, one_feed):
        assert decision.header == header
        assert decision.next_hop == header.route[header.hop_index + 1]
        assert decision.onward_bytes == reference
        assert decision.surplus == ()

    with_payload = _decide([[Chunk.real(raw + payload)]])
    split = _decide([
        [Chunk.real(raw[:len(raw) // 2])],
        [Chunk.real(raw[len(raw) // 2:] + payload[:1]), Chunk.real(payload[1:])],
    ])
    for decision in (with_payload, split):
        assert decision.header == header
        assert decision.onward_bytes == reference
        assert b"".join(c.data for c in decision.surplus) == payload


@given(raw=received_headers(), payload=st.binary(max_size=64))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_accumulator_keeps_the_header_bytes_and_the_surplus(raw, payload):
    bytewise = [raw[i:i + 1] for i in range(len(raw))]
    for reads in (
        [raw + payload],
        [bytearray(raw + payload)],  # not bytes: parsed from a copy
        bytewise + ([payload] if payload else []),
    ):
        acc = HeaderAccumulator()
        header = None
        for n, read in enumerate(reads):
            header = acc.feed(read)
            if header is not None:
                break
        assert header == LslHeader.decode(raw)[0]
        assert acc.raw == raw
        assert acc.surplus + b"".join(reads[n + 1:]) == payload
        assert acc.hint == 0
