"""SessionAcceptor / negotiate_resume / establishment_reply."""

import struct

import pytest

from repro.lsl.core import (
    AcceptNew,
    AcceptRebind,
    LslError,
    ProtocolError,
    RejectSession,
    RestartSession,
    SESSION_ACK,
    SessionAcceptor,
    SessionRegistry,
    establishment_reply,
    negotiate_resume,
)
from repro.lsl.core.wire import LslHeader, RouteHop


def make_header(**kw):
    defaults = dict(
        session_id=b"\x01" * 16,
        route=(RouteHop("srv", 5000),),
        hop_index=0,
        payload_length=100,
    )
    defaults.update(kw)
    return LslHeader(**defaults)


def test_fresh_session_accepted_with_ack():
    acceptor = SessionAcceptor(SessionRegistry())
    decision = acceptor.decide(make_header(sync=True), now=1.0)
    assert isinstance(decision, AcceptNew)
    assert decision.reply == SESSION_ACK
    assert decision.record.created_at == 1.0


def test_async_fresh_session_gets_empty_reply():
    decision = SessionAcceptor(SessionRegistry()).decide(
        make_header(sync=False), now=0.0
    )
    assert isinstance(decision, AcceptNew)
    assert decision.reply == b""


def test_intermediate_hop_rejected():
    h = make_header(route=(RouteHop("srv", 5000), RouteHop("x", 1)), hop_index=0)
    decision = SessionAcceptor(SessionRegistry()).decide(h, now=0.0)
    assert isinstance(decision, RejectSession)


def test_rebind_finds_live_session_and_counts():
    registry = SessionRegistry()
    acceptor = SessionAcceptor(registry)
    first = acceptor.decide(make_header(), now=0.0)
    assert isinstance(first, AcceptNew)
    decision = acceptor.decide(
        make_header(rebind=True, resume_offset=0), now=1.0
    )
    assert isinstance(decision, AcceptRebind)
    assert decision.record is first.record
    assert decision.record.rebinds == 1


def test_rebind_of_unknown_session_rejected():
    decision = SessionAcceptor(SessionRegistry()).decide(
        make_header(rebind=True), now=0.0
    )
    assert isinstance(decision, RejectSession)


def test_restart_on_lost_ack_replaces_live_record():
    registry = SessionRegistry()
    acceptor = SessionAcceptor(registry)
    first = acceptor.decide(make_header(), now=0.0)
    first.record.attachment = "stale-conn"
    decision = acceptor.decide(make_header(), now=2.0)
    assert isinstance(decision, RestartSession)
    assert decision.stale == "stale-conn"
    assert decision.record is not first.record
    assert decision.reply == SESSION_ACK


def test_closed_session_id_reuse_rejected():
    registry = SessionRegistry()
    acceptor = SessionAcceptor(registry)
    acceptor.decide(make_header(), now=0.0)
    registry.close(b"\x01" * 16)
    decision = acceptor.decide(make_header(), now=1.0)
    assert isinstance(decision, RejectSession)


def test_resume_query_without_rebind_is_invalid_at_the_codec():
    # the wire codec refuses the combination outright, so no acceptor
    # can ever see it in a decoded header
    with pytest.raises(ProtocolError):
        make_header(resume_query=True, rebind=False, sync=True)


def test_negotiate_resume_grants_received_count():
    h = make_header(rebind=True, resume_query=True, sync=True)
    reply = negotiate_resume(h, bytes_received=42)
    assert reply == SESSION_ACK + struct.pack(">Q", 42)


def test_negotiate_resume_rejects_wrong_asserted_offset():
    h = make_header(rebind=True, resume_offset=10)
    with pytest.raises(ProtocolError):
        negotiate_resume(h, bytes_received=42)


def test_negotiate_resume_accepts_matching_offset():
    h = make_header(rebind=True, resume_offset=42, sync=True)
    assert negotiate_resume(h, bytes_received=42) == SESSION_ACK


def test_establishment_reply_needs_offset_for_query():
    h = make_header(rebind=True, resume_query=True, sync=True)
    with pytest.raises(LslError):
        establishment_reply(h)
