"""The client session against a scripted server: no socket, no clock.

:class:`ClientSession` is everything the three client drivers share —
establishment, rebase on a granted offset, the frame and trailer
bytes, the accounting, the spans — so it is driven here by hand, the
way a driver would, with the server's answer cut at every byte and a
recording tracer counting every span begun and ended.
"""

import hashlib
import sys
import threading

import pytest

from repro.lsl.core import SESSION_ACK, real_digest_factory
from repro.lsl.core.errors import LslError, ProtocolError
from repro.lsl.core.framing import encode_frame_header
from repro.sockets import client as client_module
from repro.sockets.client import ClientSession, plan_client_session

SID = bytes(range(16))
PAYLOAD = bytes(range(256)) * 4
ROUTE = [("depot", 4000), ("server", 5000)]


class RecordingTracer:
    """The ``begin``/``end`` a session calls, in order."""

    def __init__(self):
        self.calls = []
        self._next = 0

    def begin(self, name, trace_id, parent=0, **attrs):
        self._next += 1
        self.calls.append(("begin", self._next, name, parent, attrs))
        return self._next

    def end(self, span, **attrs):
        self.calls.append(("end", span, attrs))

    def names(self):
        """(event, span name, end attrs) — ids resolved to names."""
        name_of = {c[1]: c[2] for c in self.calls if c[0] == "begin"}
        return [
            (c[0], name_of[c[1]], c[2] if c[0] == "end" else None)
            for c in self.calls
        ]


@pytest.fixture(autouse=True)
def no_parked_digests():
    """The parked-digest table is per process: start and end empty."""
    client_module._parked.clear()
    yield
    client_module._parked.clear()


def _session(tracer=None, sid=SID, **options):
    options.setdefault("payload_length", len(PAYLOAD))
    return ClientSession(
        plan_client_session(ROUTE, session_id=sid, **options),
        tracer, trace_id=b"\x07" * 16 if tracer else None,
    )


def _establish(session, answer, cuts=()):
    """Feed ``answer`` the way a driver reads it: at most
    ``bytes_needed`` at a time, and also cut at each of ``cuts``."""
    assert session.dial().host == "depot"
    assert session.initial_bytes() == session.header.encode()
    pos, done = 0, False
    bounds = sorted(set(cuts) | {len(answer)})
    while session.bytes_needed:
        end = min(pos + session.bytes_needed, next(b for b in bounds if b > pos))
        done = session.feed(answer[pos:end])
        pos = end
    assert done and pos == len(answer)


# -- establishment -------------------------------------------------------------


@pytest.mark.parametrize("cut", range(1, 9))
def test_ack_and_granted_offset_cut_at_every_byte(cut):
    offset = 300
    session = _session(
        rebind=True, resume_query=True,
        digest_factory=real_digest_factory(PAYLOAD),
    )
    _establish(session, SESSION_ACK + offset.to_bytes(8, "big"), [1, 1 + cut])
    assert session.granted_offset == offset
    assert session.bytes_sent == offset
    assert session.remaining == len(PAYLOAD) - offset
    assert session.digest.digest() != hashlib.md5(PAYLOAD).digest()
    session.digest.update(PAYLOAD[offset:])
    assert session.digest.digest() == hashlib.md5(PAYLOAD).digest()


def test_sync_session_is_established_by_the_ack_alone():
    session = _session()
    _establish(session, SESSION_ACK)
    assert session.granted_offset is None
    assert session.bytes_sent == 0
    assert session.declared_length == len(PAYLOAD)


def test_async_session_needs_no_answer():
    session = _session(sync=False)
    session.dial()
    session.initial_bytes()
    assert session.bytes_needed == 0


def test_eof_and_a_bad_ack_fail_establishment():
    session = _session()
    session.dial()
    session.initial_bytes()
    with pytest.raises(ProtocolError, match="EOF during session establishment"):
        session.feed(b"")
    with pytest.raises(ProtocolError, match="bad session ack"):
        _session().feed(b"\x00")


def test_a_read_past_the_handshake_is_refused():
    session = _session()
    session.dial()
    session.initial_bytes()
    with pytest.raises(ProtocolError, match="past handshake"):
        session.feed(SESSION_ACK + b"reply")


def test_rebase_without_a_digest_needs_no_factory():
    session = _session(digest=False, rebind=True, resume_query=True)
    before = session.digest
    _establish(session, SESSION_ACK + (200).to_bytes(8, "big"))
    assert session.bytes_sent == 200
    assert session.digest is before  # nothing to rebuild


def test_rebase_with_a_digest_rebuilds_the_prefix_state():
    built = []

    def factory(offset):
        built.append(offset)
        return real_digest_factory(PAYLOAD)(offset)

    session = _session(rebind=True, resume_query=True, digest_factory=factory)
    _establish(session, SESSION_ACK + (512).to_bytes(8, "big"))
    assert built == [512]
    assert session.digest.digest() == hashlib.md5(PAYLOAD[:512]).digest()


def test_a_grant_past_the_declared_length_fails_establishment():
    session = _session(
        rebind=True, resume_query=True,
        digest_factory=real_digest_factory(PAYLOAD),
    )
    session.dial()
    session.initial_bytes()
    session.feed(SESSION_ACK)
    grant = (len(PAYLOAD) + 1).to_bytes(8, "big")
    with pytest.raises(ProtocolError, match="past the declared payload length"):
        session.feed(grant)
    assert session.granted_offset is None and session.bytes_sent == 0


@pytest.mark.parametrize(
    "options, reason",
    [
        ({"payload_length": None}, "digest=True requires payload_length"),
        ({"payload_length": None, "digest": False, "framed": True},
         "framed=True requires payload_length"),
        ({"resume_query": True}, "resume_query only applies to rebinds"),
        ({"rebind": True, "resume_query": True, "sync": False},
         "resume_query requires sync"),
        ({"rebind": True, "resume_query": True},
         "resume_query with digest needs digest_factory"),
        ({"rebind": True, "resume_offset": 5},
         "rebind with digest needs the prior digest_state"),
    ],
)
def test_every_option_check_is_the_planners(options, reason):
    with pytest.raises(LslError, match=reason):
        _session(**options)


# -- payload and trailer bytes ----------------------------------------------------


def _send(session, data):
    return b"".join(session.payload_writes(data))


def test_unframed_writes_are_the_payload_and_the_trailer_is_the_md5():
    session = _session()
    _establish(session, SESSION_ACK)
    assert list(session.payload_writes(PAYLOAD[:100])) == [PAYLOAD[:100]]
    assert _send(session, PAYLOAD[100:]) == PAYLOAD[100:]
    assert session.remaining == 0
    assert session.trailer() == hashlib.md5(PAYLOAD).digest()


def test_framed_writes_and_trailer_match_the_frame_encoder(monkeypatch):
    monkeypatch.setattr(client_module, "MAX_FRAME_PAYLOAD", 300)
    session = _session(framed=True)
    _establish(session, SESSION_ACK)
    expected = b"".join(
        encode_frame_header(off, len(PAYLOAD[off:off + 300]))
        + PAYLOAD[off:off + 300]
        for off in range(0, len(PAYLOAD), 300)
    )
    assert _send(session, PAYLOAD) == expected
    assert session.trailer() == (
        encode_frame_header(len(PAYLOAD), 16) + hashlib.md5(PAYLOAD).digest()
    )


def test_framed_rebind_frames_from_the_asserted_offset():
    state = real_digest_factory(PAYLOAD)(600)
    session = _session(
        framed=True, rebind=True, resume_offset=600, digest_state=state
    )
    _establish(session, SESSION_ACK)
    assert _send(session, PAYLOAD[600:]) == (
        encode_frame_header(600, len(PAYLOAD) - 600) + PAYLOAD[600:]
    )
    assert session.trailer()[-16:] == hashlib.md5(PAYLOAD).digest()


def test_a_write_that_raises_is_not_accounted():
    session = _session()
    _establish(session, SESSION_ACK)
    writes = session.payload_writes(PAYLOAD[:10])
    next(writes)  # the driver's send raised here: never resumed
    assert session.bytes_sent == 0


def test_overrun_and_send_after_finish_are_refused():
    session = _session()
    _establish(session, SESSION_ACK)
    with pytest.raises(LslError, match="overrun"):
        _send(session, PAYLOAD + b"x")
    _send(session, PAYLOAD)
    session.trailer()
    with pytest.raises(LslError, match="after finish"):
        _send(session, b"x")


def test_no_payload_before_the_offset_is_granted():
    session = _session(
        rebind=True, resume_query=True,
        digest_factory=real_digest_factory(PAYLOAD),
    )
    session.dial()
    session.initial_bytes()
    session.feed(SESSION_ACK)
    with pytest.raises(LslError, match="resume offset was granted"):
        _send(session, b"x")


# -- parked digests -----------------------------------------------------------------


class CountingFactory:
    """A ``real_digest_factory`` over PAYLOAD that records its calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, offset):
        self.calls.append(offset)
        return real_digest_factory(PAYLOAD)(offset)


def _suspend(cut, sid=SID, **options):
    """Send ``cut`` bytes, then close without finishing."""
    session = _session(sid=sid, **options)
    _establish(session, SESSION_ACK)
    _send(session, PAYLOAD[:cut])
    session.release()
    return session


def _rebind(granted, factory, **options):
    session = _session(
        rebind=True, resume_query=True, digest_factory=factory, **options
    )
    _establish(session, SESSION_ACK + granted.to_bytes(8, "big"))
    return session


def _rest(session):
    """The wire bytes that complete ``session``: payload and trailer."""
    return _send(session, PAYLOAD[session.bytes_sent :]) + session.trailer()


def test_an_unfinished_close_parks_and_a_finished_one_does_not():
    _suspend(300)
    ((sid, (sent, digest)),) = client_module._parked.items()
    assert (sid, sent) == (SID, 300)
    assert digest.digest() == hashlib.md5(PAYLOAD[:300]).digest()
    client_module._parked.clear()
    finished = _session()
    _establish(finished, SESSION_ACK)
    _rest(finished)
    finished.release()
    _suspend(0)  # nothing sent: nothing to park
    _suspend(300, digest=False)  # no MD5 to park
    assert not client_module._parked


@pytest.mark.parametrize("framed", [False, True])
def test_a_matching_grant_adopts_the_parked_digest(framed):
    cut = 400
    factory = CountingFactory()
    _suspend(cut, framed=framed)
    warm = _rebind(cut, factory, framed=framed)
    assert factory.calls == []
    cold = _rebind(cut, factory, framed=framed)
    assert factory.calls == [cut]
    on_the_wire = _rest(warm)
    assert on_the_wire == _rest(cold)
    assert on_the_wire.endswith(hashlib.md5(PAYLOAD).digest())


def test_a_smaller_grant_calls_the_factory_once_at_the_grant():
    factory = CountingFactory()
    _suspend(400)
    session = _rebind(250, factory)
    assert factory.calls == [250]
    assert _rest(session).endswith(hashlib.md5(PAYLOAD).digest())


@pytest.mark.parametrize("first_grant", [400, 250])
def test_a_grant_takes_the_entry_used_or_not(first_grant):
    factory = CountingFactory()
    _suspend(400)
    _rebind(first_grant, factory)
    assert SID not in client_module._parked
    _rebind(400, factory)
    assert factory.calls[-1] == 400
    assert len(factory.calls) == (1 if first_grant == 400 else 2)


def test_the_table_keeps_the_last_sixteen_suspends():
    sids = [i.to_bytes(16, "big") for i in range(200)]
    for sid in sids:
        _suspend(100, sid=sid)
    assert client_module.PARKED_DIGESTS == 16
    assert list(client_module._parked) == sids[-16:]


def test_parking_from_many_threads_keeps_the_bound_and_the_latest_entry():
    digest = real_digest_factory(PAYLOAD)(100)
    errors = []

    def churn(worker):
        try:
            for i in range(2_000):
                sid = bytes([worker]) + i.to_bytes(15, "big")
                client_module._park(sid, i, digest)
                if i % 3 == 0:
                    client_module._unpark(sid)
        except Exception as exc:  # a lost update shows as a KeyError
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(client_module._parked) == client_module.PARKED_DIGESTS
    for sid, (sent, _) in client_module._parked.items():
        assert sent == int.from_bytes(sid[1:], "big")


def test_a_rebind_does_not_change_the_digest_the_first_session_holds():
    first = _suspend(400)
    held = first.digest
    second = _rebind(400, CountingFactory())
    _rest(second)
    assert first.digest is held
    assert held.digest() == hashlib.md5(PAYLOAD[:400]).digest()
    assert held.total_bytes == 400


def test_a_driver_that_does_not_park_neither_parks_nor_adopts(monkeypatch):
    monkeypatch.setattr(ClientSession, "parks_digest", False)
    _suspend(400)
    assert not client_module._parked
    monkeypatch.setattr(ClientSession, "parks_digest", True)
    _suspend(400)
    monkeypatch.setattr(ClientSession, "parks_digest", False)
    factory = CountingFactory()
    _rebind(400, factory)
    assert factory.calls == [400]
    assert SID in client_module._parked  # not consulted, not taken


# -- spans ------------------------------------------------------------------------


def test_spans_of_a_session_that_succeeds():
    tracer = RecordingTracer()
    session = _session(tracer)
    assert session.header.trace.trace_id == session.trace_id
    assert session.header.trace.parent_span == 1
    _establish(session, SESSION_ACK)
    _send(session, PAYLOAD)
    session.trailer()
    session._end_trace("ok")
    assert tracer.names() == [
        ("begin", "client.session", None),
        ("begin", "client.dial", None),
        ("end", "client.dial", {}),
        ("begin", "client.handshake", None),
        ("end", "client.handshake", {"granted": -1}),
        ("end", "client.session", {"status": "ok", "bytes": len(PAYLOAD)}),
    ]
    begin = tracer.calls[0]
    assert begin[4] == {
        "session": SID.hex()[:8], "route": ["depot:4000", "server:5000"],
        "rebind": False,
    }


def test_spans_of_a_failed_dial():
    tracer = RecordingTracer()
    session = _session(tracer)
    session.dial()
    session._end_trace("error", ConnectionRefusedError("refused"))
    error = {"status": "error", "error": "refused"}
    assert tracer.names() == [
        ("begin", "client.session", None),
        ("begin", "client.dial", None),
        ("end", "client.dial", error),
        ("end", "client.session", {**error, "bytes": 0}),
    ]


def test_spans_of_a_failed_handshake():
    tracer = RecordingTracer()
    session = _session(tracer)
    session.dial()
    session.initial_bytes()
    with pytest.raises(ProtocolError) as failed:
        session.feed(b"")
    session._end_trace("error", failed.value)
    error = {"status": "error", "error": "EOF during session establishment"}
    assert tracer.names()[-2:] == [
        ("end", "client.handshake", error),
        ("end", "client.session", {**error, "bytes": 0}),
    ]


def test_spans_of_a_close_before_finish():
    tracer = RecordingTracer()
    session = _session(tracer)
    _establish(session, SESSION_ACK)
    _send(session, PAYLOAD[:64])
    session._end_trace("aborted")
    assert tracer.names()[-1] == (
        "end", "client.session", {"status": "aborted", "bytes": 64}
    )


def test_end_trace_ends_each_span_once():
    tracer = RecordingTracer()
    session = _session(tracer)
    session.dial()
    session._end_trace("error", OSError("down"))
    session._end_trace("aborted")
    session._end_trace("ok")
    ended = [c[1] for c in tracer.calls if c[0] == "end"]
    assert sorted(ended) == [1, 2]


def test_untraced_session_carries_no_trace_context():
    session = _session()
    session.dial()
    session._end_trace("error", OSError("down"))  # no tracer: a no-op
    assert session.header.trace is None and session.trace_id is None
