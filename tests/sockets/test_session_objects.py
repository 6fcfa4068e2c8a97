"""The session objects against a scripted link: no sockets, no clocks.

``TerminalSublink`` (under a plain ``TerminalEngine``, a store-backed
cluster ``StoreNode`` or a ``StripedTerminalEngine``) and the depot's
``RelaySession`` touch the transport only through their links
(``write`` / ``close`` / ``closed``, and for a relay ``peer`` / ``eof``
/ ``finish``), so a fake link that records them can replay any delivery
schedule — every cut of a stream, a reset before the header, bytes on a
displaced sublink, both directions ending — and the outcome is asserted
by counts.
"""

import random
import struct
import sys
import threading

import pytest

from repro.cluster import InMemoryStore
from repro.cluster import node as cluster_node
from repro.cluster.node import (
    DEFAULT_CHECKPOINT_BYTES,
    PARKED_SESSIONS,
    StoreNode,
)
from repro.lsl.core import (
    SESSION_ACK,
    Chunk,
    RelayCore,
    TraceContext,
    real_digest_factory,
)
from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.framing import encode_frame_header
from repro.lsl.core.session import FINISHED_KEPT
from repro.lsl.core.wire import LslHeader, RouteHop
from repro.sockets.client import plan_client_session
from repro.sockets.lsd import DepotCounters, DepotEngine, RelaySession
from repro.sockets.striped import StripedTerminalEngine, _StripedSend
from repro.sockets.striped import _frame_of
from repro.sockets.terminal import TerminalEngine, TerminalSublink
from repro.sockets.wire import SHUTDOWN
from repro.telemetry.tracing import TraceSpool

SID = bytes(range(16))
PAYLOAD = bytes(range(256)) * 2
ME = [("server", 9)]


class FakeLink:
    """Records what a session object does to its transport."""

    def __init__(self, peer=None):
        self.closed = self.eof = self.finished = False
        self.peer = peer
        self.written = b""

    def write(self, data):
        assert not self.closed, "write after close"
        self.written += bytes(data)

    def finish(self):
        self.finished = True

    def pause(self):
        pass

    def resume(self):
        pass

    def close(self):
        self.closed = True


def _stream(payload=PAYLOAD, route=ME, **options):
    """The bytes a client puts on the wire for one whole session."""
    header, _, sender = plan_client_session(
        route, payload_length=len(payload), session_id=SID, **options
    )
    sender.record(payload)
    return header.encode() + payload + sender.finish()


def _engine(**kwargs):
    events = []
    options = dict(
        on_session=None, reply=None, observer=events.append,
        session_ttl=None, tracer=None,
    )
    options.update(kwargs)
    return TerminalEngine(**options), events


# -- TerminalSublink ----------------------------------------------------------


def _deliver(stream, cut):
    engine, events = _engine(reply=b"THANKS")
    link, sublink = FakeLink(), TerminalSublink(engine)
    for piece in (stream[:cut], stream[cut:]):
        if piece:
            sublink.received(link, piece)
    assert not engine.errors
    (result,) = engine.results
    return result, link.written, link.closed, events


def test_a_stream_cut_at_every_byte_gives_the_same_session():
    stream = _stream()
    whole = _deliver(stream, 0)
    result, written, closed, events = whole
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert (result.route_len, result.rebinds) == (1, 0)
    assert written == SESSION_ACK + b"THANKS" and closed
    assert [e.kind for e in events] == ["session-accepted", "payload-complete"]
    for cut in range(1, len(stream)):
        assert _deliver(stream, cut) == whole, cut


def test_the_completion_reply_is_written_outside_the_session_lock():
    # on the event loop a write into a reset calls the sublink's broken()
    # back, which takes the session lock: writing under it would hang
    class ResetLink(FakeLink):
        def write(self, data):
            live = sublink.live
            assert live is None or not live.lock.locked(), "write under lock"
            if data == b"THANKS":
                self.owner_broken(self, ConnectionResetError())
            else:
                FakeLink.write(self, data)

    store_engine = FakeNode(InMemoryStore())  # a cluster worker's engine
    store_engine.reply = b"THANKS"
    for engine in (_engine(reply=b"THANKS")[0], store_engine):
        link, sublink = ResetLink(), TerminalSublink(engine)
        link.owner_broken = sublink.broken
        sublink.received(link, _stream())
        assert not engine.errors and link.closed
        (result,) = engine.results
        assert result.payload == PAYLOAD and result.digest_ok is True


def test_header_surplus_reaches_the_receiver():
    # a read may run past the header; nothing is lost — the overshoot
    # is fed to the receiver ahead of the remaining stream
    engine, _ = _engine()
    header = LslHeader(
        session_id=SID, route=(RouteHop("server", 9),),
        payload_length=7, digest=False,
    )
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, header.encode() + b"PAY")
    assert sublink.live.receiver.payload_received == 3
    sublink.received(link, b"LOAD")
    (result,) = engine.results
    assert result.payload == b"PAYLOAD" and result.digest_ok is None
    assert link.closed and not engine.errors


def test_bad_magic_is_one_error():
    engine, _ = _engine()
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, b"NOPE" + bytes(60))
    (error,) = engine.errors
    assert isinstance(error, ProtocolError)
    assert link.closed and not link.written and not engine.results


def test_truncated_header_stream_is_one_error():
    engine, _ = _engine()
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, _stream()[:10])
    sublink.ended(link)
    (error,) = engine.errors
    assert isinstance(error, ProtocolError) and "EOF before" in str(error)
    assert link.closed and len(engine.registry) == 0


def test_reset_before_any_header_is_one_error():
    engine, _ = _engine()
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.broken(link, ConnectionResetError("peer reset"))
    (error,) = engine.errors
    assert isinstance(error, ConnectionResetError)
    assert link.closed and not engine.results


def _half_sent(engine, cut, **options):
    """A session whose first sublink delivered ``cut`` payload bytes."""
    stream = _stream(**options)
    header_len = len(stream) - len(PAYLOAD) - 16
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, stream[: header_len + cut])
    return link, sublink


def _rebind(engine, trace=None):
    """Attach a resume-query rebind; returns its link, sublink and the
    rest of the stream from the granted offset."""
    header, _, sender = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=SID, rebind=True,
        resume_query=True, digest_factory=real_digest_factory(PAYLOAD),
        trace=trace,
    )
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, header.encode())
    assert link.written[:1] == SESSION_ACK
    (granted,) = struct.unpack(">Q", link.written[1:])
    sender.rebase(granted)
    sender.record(PAYLOAD[granted:])
    return link, sublink, granted, PAYLOAD[granted:] + sender.finish()


def test_reset_mid_payload_keeps_the_receiver_and_a_rebind_resumes_it():
    engine, events = _engine()
    old, sublink = _half_sent(engine, 200)
    receiver = sublink.live.receiver
    sublink.broken(old, ConnectionResetError("peer reset"))
    assert old.closed and not engine.errors and not engine.results
    assert engine.registry.get(SID).attachment.receiver is receiver
    new, resumed, granted, rest = _rebind(engine)
    assert granted == 200 and resumed.live.receiver is receiver
    resumed.received(new, rest)
    (result,) = engine.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1 and new.closed and not engine.errors
    assert [e.kind for e in events] == [
        "session-accepted", "session-rebound", "resume-granted",
        "payload-complete",
    ]


def test_bytes_and_eof_on_a_displaced_link_change_nothing():
    from repro.lsl.core import TraceContext

    tracer = TraceSpool("server")
    engine, events = _engine(tracer=tracer)
    trace = TraceContext(bytes(16), 7, 0)
    old, displaced = _half_sent(engine, 200, trace=trace)
    new, resumed, granted, rest = _rebind(engine, trace=trace)
    # the rebind closed the old link itself and waited for nobody
    assert granted == 200 and old.closed and not new.closed
    live = resumed.live
    assert live is displaced.live and live.link is new
    before = (tracer.total_records, len(events), live.span)
    displaced.received(old, PAYLOAD[200:300])  # still sending: stale
    assert live.receiver.payload_received == 200
    displaced.ended(old)  # no suspend, no span, the session is not over
    assert (tracer.total_records, len(events), live.span) == before
    # the mirror holds what the live sublink delivered, not the stale one
    assert engine.registry.get(SID).bytes_received == 200
    assert live.link is new and not new.closed and old.written == SESSION_ACK
    resumed.received(new, rest)
    (result,) = engine.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1 and not engine.errors
    statuses = [
        r["attrs"].get("status") for r in tracer.tail()
        if r["rt"] == "e" and r["name"] == "server.session"
    ]
    assert statuses == ["rebound", "ok"] and tracer.open_span_count() == 0


def test_restart_orphans_the_stale_session():
    engine, events = _engine()
    old, stale = _half_sent(engine, 200)
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, _stream())  # fresh connect, same id, from 0
    assert old.closed and stale.live.link is None
    (result,) = engine.results
    assert result.payload == PAYLOAD and result.rebinds == 0
    # what the stale sublink still delivers must not finish (and so
    # close the record of) the session that replaced it
    stale.received(old, _stream()[-(len(PAYLOAD) - 200 + 16):])
    assert len(engine.results) == 1 and not engine.errors
    assert "session-restarted" in [e.kind for e in events]


def test_sessions_closing_on_many_threads_keep_the_registry_bound():
    # closing a record may forget the oldest closed one: two sessions
    # finishing at once must not both forget it
    engine, _ = _engine(observer=None)
    streams = []
    for i in range(FINISHED_KEPT + 200):
        header, _, sender = plan_client_session(
            ME, payload_length=64, session_id=i.to_bytes(16, "big")
        )
        sender.record(PAYLOAD[:64])
        streams.append(header.encode() + PAYLOAD[:64] + sender.finish())

    def deliver(mine):
        for stream in mine:
            TerminalSublink(engine).received(FakeLink(), stream)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=deliver, args=(streams[k::8],))
            for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not engine.errors and len(engine.results) == len(streams)
    assert len(engine.registry) == FINISHED_KEPT
    assert engine.registry.live_count == 0


# -- TerminalSublink over a StripedTerminalEngine ------------------------------


def _striped_engine():
    return StripedTerminalEngine(on_session=None, observer=None, tracer=None)


def _striped_sublinks(payload, routes=2):
    """Per sublink: its header, then its frames, as a sender deals them."""
    send = _StripedSend(
        [ME] * routes, payload, SID, 64, "none", True,
        None, None, None, None, 0,
    )
    streams = [[send.begin(i)] for i in range(routes)]
    live = set(range(routes))
    while live:
        for i in sorted(live):
            assignment = send.next_assignment(i)
            if assignment is None:
                live.discard(i)
                continue
            streams[i].append(_frame_of(assignment))
            send.sent(i, assignment)
    assert send.report().per_sublink_bytes == [
        len(payload) // 2, len(payload) // 2
    ]
    return streams


@pytest.mark.parametrize(
    "header",
    [
        LslHeader(session_id=SID, route=(RouteHop("server", 9),),
                  payload_length=512),  # unframed
        LslHeader(session_id=SID,
                  route=(RouteHop("server", 9), RouteHop("beyond", 1)),
                  payload_length=512, framed=True),  # mis-routed
    ],
)
def test_striped_sublink_refuses_an_unframed_or_misrouted_header(header):
    engine = _striped_engine()
    link, sublink = FakeLink(), TerminalSublink(engine)
    sublink.received(link, header.encode() + b"junk")
    (error,) = engine.errors
    assert "unframed or mis-routed" in str(error)
    assert link.closed and not engine.registry


def test_striped_sublinks_must_agree_on_the_payload_length():
    engine = _striped_engine()
    first, second = (
        LslHeader(session_id=SID, route=(RouteHop("server", 9),),
                  payload_length=length, framed=True, sync=False)
        for length in (512, 513)
    )
    a, b = FakeLink(), FakeLink()
    TerminalSublink(engine).received(a, first.encode())
    TerminalSublink(engine).received(b, second.encode())
    (error,) = engine.errors
    assert "disagrees on payload length" in str(error)
    assert b.closed and not a.closed
    assert engine.registry.get(SID).attachment.sublinks == 1


def test_striped_sublink_drains_after_completion():
    engine = _striped_engine()
    streams = _striped_sublinks(PAYLOAD)
    links = [FakeLink(), FakeLink()]
    sublinks = [TerminalSublink(engine), TerminalSublink(engine)]
    for link, sublink, stream in zip(links, sublinks, streams):
        sublink.received(link, b"".join(stream))
    (result,) = engine.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.sublinks == 2 and not engine.errors
    # completed, but a peer may still be mid-send: closing now would
    # reset it, so the sublinks only drain until their own EOF
    assert not links[0].closed and not links[1].closed
    sublinks[0].received(links[0], streams[0][-1])
    assert len(engine.results) == 1 and not links[0].closed
    for link, sublink in zip(links, sublinks):
        sublink.ended(link)
        assert link.closed
    assert list(engine.registry._closed) == [SID] and SID in engine.registry


def test_a_shutdown_under_a_draining_sublink_records_nothing():
    engine = _striped_engine()
    links = [FakeLink(), FakeLink()]
    sublinks = [TerminalSublink(engine), TerminalSublink(engine)]
    for link, sublink, stream in zip(links, sublinks, _striped_sublinks(PAYLOAD)):
        sublink.received(link, b"".join(stream))
    assert len(engine.results) == 1 and not engine.errors
    # the session completed: a crash that cuts its sublinks while they
    # drain is no failure of it
    for link, sublink in zip(links, sublinks):
        sublink.broken(link, SHUTDOWN)
        assert link.closed
    assert len(engine.results) == 1 and not engine.errors


# -- TerminalSublink over a StoreNode -----------------------------------------


@pytest.fixture(autouse=True)
def no_parked_sessions():
    """The parked-session table is per process: start and end empty."""
    cluster_node._parked.clear()
    yield
    cluster_node._parked.clear()


class FakeService:
    """The depot half of a :class:`FakeNode`: nothing to stop."""

    def shutdown(self, drain=True):
        self.drained = drain


class FakeNode(StoreNode, FakeService):
    def __init__(self, store, worker="w0", checkpoint_bytes=64, tracer=None):
        super().__init__(store, worker, None, None, checkpoint_bytes, None, None)
        self.counters = DepotCounters()
        self._observer = None
        self._tracer = tracer
        self.handed_over = []

    def _dial(self, relay, hop):
        surplus = b"".join(chunk.data for chunk in relay.decision.surplus)
        self.handed_over.append((relay.up, relay.decision.header, surplus))


def test_node_sublink_hands_a_relay_over_once_with_the_surplus():
    node = FakeNode(InMemoryStore())
    stream = _stream(route=[("node", 1), ("server", 9)])
    header_len = len(stream) - len(PAYLOAD) - 16
    link, sublink = FakeLink(), TerminalSublink(node)
    sublink.received(link, stream[:10])
    assert not node.handed_over
    sublink.received(link, stream[10 : header_len + 5])
    ((got_link, header, surplus),) = node.handed_over
    assert got_link is link and surplus == PAYLOAD[:5]
    assert header.encode() == stream[:header_len] and not header.is_last_hop
    # the link has a new owner: the sublink neither closed nor counted it
    assert not link.closed and sublink.live is None
    assert node.counters.sessions_completed == node.counters.sessions_failed == 0


def test_node_sublink_that_loses_ownership_mid_stream_ends_suspended():
    store = InMemoryStore()
    node = FakeNode(store)
    stream = _stream()
    header_len = len(stream) - len(PAYLOAD) - 16
    link, sublink = FakeLink(), TerminalSublink(node)
    sublink.received(link, stream[: header_len + 100])  # one checkpoint
    assert store.load(SID).bytes_received == 100
    assert store.claim(SID, "w1", 0.0) is not None  # a takeover elsewhere
    sublink.received(link, stream[header_len + 100 : header_len + 200])
    assert link.closed and not node.results
    assert node.counters.sessions_suspended == 1
    assert node.counters.sessions_failed == 0
    assert store.load(SID).owner == "w1"
    assert store.load(SID).bytes_received == 100


def test_node_sublink_resume_primes_the_digest_from_the_spool():
    store = InMemoryStore()
    first = FakeNode(store, "w0")
    stream = _stream()
    header_len = len(stream) - len(PAYLOAD) - 16
    link, sublink = FakeLink(), TerminalSublink(first)
    sublink.received(link, stream[: header_len + 200])
    sublink.ended(link)  # suspends: everything received is spooled
    assert first.counters.sessions_suspended == 1
    assert store.payload(SID) == PAYLOAD[:200]
    first.shutdown()  # and its worker goes: only the spool is left

    second = FakeNode(store, "w1")  # the rebind lands on another worker
    header, _, sender = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=SID, rebind=True,
        resume_query=True, digest_factory=real_digest_factory(PAYLOAD),
    )
    link, sublink = FakeLink(), TerminalSublink(second)
    sublink.received(link, header.encode())
    assert link.written == SESSION_ACK + struct.pack(">Q", 200)
    sender.rebase(200)
    sender.record(PAYLOAD[200:])
    sublink.received(link, PAYLOAD[200:] + sender.finish())
    (result,) = second.results
    # the MD5 covers the re-fed spool and the live bytes
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1 and link.closed
    assert second.counters.takeovers == 1
    assert second.counters.sessions_completed == 1


class CountingStore(InMemoryStore):
    """An in-memory store that counts spool read-backs (what a resume
    costs when it rebuilds the receiver from the spool) and records the
    size and the quoted owner of every checkpoint append."""

    def __init__(self):
        super().__init__()
        self.reads = 0
        self.appends = []
        self.owners = []

    def payload(self, session_id):
        self.reads += 1
        return super().payload(session_id)

    def append_payload(self, session_id, owner, epoch, data, now):
        self.appends.append(len(data))
        self.owners.append(owner)
        return super().append_payload(session_id, owner, epoch, data, now)


def _on_wire(data, offset, framed):
    """``data`` (payload from ``offset``, or the trailer) as a sublink
    carries it."""
    if not framed:
        return data
    return encode_frame_header(offset, len(data)) + data


def _suspended(node, cut, sid=SID, framed=False, trace=None):
    """A first sublink to ``node`` that delivers ``cut`` bytes, then
    FINs mid-payload."""
    header, _, _ = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=sid, framed=framed,
        trace=trace,
    )
    link, sublink = FakeLink(), TerminalSublink(node)
    sublink.received(link, header.encode() + _on_wire(PAYLOAD[:cut], 0, framed))
    sublink.ended(link)
    assert link.closed
    return sublink


def _resumed(node, sid=SID, framed=False, trace=None, upto=None,
             hashed=PAYLOAD):
    """A resume-query rebind to ``node`` that sends from the grant up to
    ``upto`` (the trailer too when ``upto`` is None); the client's MD5
    covers ``hashed``."""
    header, _, sender = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=sid, rebind=True,
        resume_query=True, digest_factory=real_digest_factory(hashed),
        framed=framed, trace=trace,
    )
    link, sublink = FakeLink(), TerminalSublink(node)
    sublink.received(link, header.encode())
    assert link.written[:1] == SESSION_ACK
    (granted,) = struct.unpack(">Q", link.written[1:9])
    if upto is not None:
        sublink.received(link, _on_wire(PAYLOAD[granted:upto], granted, framed))
        sublink.ended(link)
        return link, sublink, granted
    sender.rebase(granted)
    sender.record(hashed[granted:])
    sublink.received(
        link,
        _on_wire(PAYLOAD[granted:], granted, framed)
        + _on_wire(sender.finish(), len(PAYLOAD), framed),
    )
    return link, sublink, granted


@pytest.mark.parametrize(
    "framed, completed, appends",
    [
        (False, True, [279_951, 280_000, 280_000]),
        (True, True, [279_939, 280_000, 280_000]),
        (False, False, [279_951, 280_000, 280_000, 160_049]),
        (True, False, [279_939, 280_000, 280_000, 160_061]),
    ],
)
def test_checkpoints_append_the_same_sizes_in_the_same_order(
    framed, completed, appends
):
    """1 MiB in 40,000-byte reads: a checkpoint once 256 KiB is pending,
    none in the read that completes the session, the rest on suspend."""
    big = random.Random(30).randbytes(1 << 20)
    header, _, sender = plan_client_session(
        ME, payload_length=len(big), session_id=SID, framed=framed,
    )
    sender.record(big)
    wire = header.encode() + _on_wire(big, 0, framed)
    if completed:
        wire += _on_wire(sender.finish(), len(big), framed)
    else:
        wire = wire[:-(len(big) - 1_000_000)]
    store = CountingStore()
    node = FakeNode(store, checkpoint_bytes=DEFAULT_CHECKPOINT_BYTES)
    link, sublink = FakeLink(), TerminalSublink(node)
    for pos in range(0, len(wire), 40_000):
        sublink.received(link, wire[pos : pos + 40_000])
    sublink.ended(link)
    assert store.appends == appends
    if completed:
        (result,) = node.results
        assert result.payload == big and result.digest_ok is True
    else:
        assert node.counters.sessions_suspended == 1
        assert store.payload(SID) == big[:1_000_000]


@pytest.mark.parametrize("framed", [False, True])
def test_a_rebind_on_the_parking_worker_reads_no_spool(framed):
    store = CountingStore()
    node = FakeNode(store)
    first = _suspended(node, 200, framed=framed)
    assert node.counters.sessions_suspended == 1
    assert SID in cluster_node._parked
    link, sublink, granted = _resumed(node, framed=framed)
    assert granted == 200 and sublink.live is first.live
    assert store.reads == 0
    (result,) = node.results
    # the MD5 the parked receiver ran over the first sublink's bytes
    # carries on over the rebind's
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1 and link.closed
    assert node.counters.sessions_completed == 1
    assert node.counters.takeovers == 0 and not cluster_node._parked


def test_a_wrong_trailer_after_a_warm_resume_fails_the_session():
    store = CountingStore()
    node = FakeNode(store)
    _suspended(node, 200)
    link, _, granted = _resumed(node, hashed=bytes(len(PAYLOAD)))
    assert granted == 200 and store.reads == 0
    assert link.closed and not node.results
    assert node.counters.sessions_failed == 1
    assert store.load(SID).closed  # the id cannot be resumed again


def test_a_takeover_reads_the_spool_once():
    """Once the parking worker has shut down, a takeover has only the
    spool to resume from."""
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)
    w0.shutdown()
    assert not cluster_node._parked
    _, _, granted = _resumed(w1)
    assert granted == 200 and store.reads == 1
    (result,) = w1.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert w1.counters.takeovers == 1


@pytest.mark.parametrize("framed", [False, True])
def test_a_sibling_takeover_reads_no_spool(framed):
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    first = _suspended(w0, 200, framed=framed)
    link, sublink, granted = _resumed(w1, framed=framed)
    assert granted == 200 and sublink.live is first.live
    assert store.reads == 0
    (result,) = w1.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1 and link.closed
    # the store decided a takeover; where the bytes came from is ours
    assert w1.counters.takeovers == 1 and w0.counters.takeovers == 0
    assert w1.counters.sessions_completed == 1 and not w0.results
    assert not cluster_node._parked


def test_a_session_moves_between_siblings_from_memory():
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)
    _resumed(w1, upto=300)  # taken over, 100 more bytes, suspended
    assert cluster_node._parked[SID][0] is w1
    _, _, granted = _resumed(w0)  # and taken back
    assert granted == 300 and store.reads == 0
    (result,) = w0.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 2
    assert w0.counters.takeovers == w1.counters.takeovers == 1


def test_an_adopted_session_is_the_deciding_workers():
    """What belongs to a worker comes from the one that adopts: the
    owner its checkpoints quote, its checkpoint size, its tracer."""
    store = CountingStore()
    w0_spans, w1_spans = TraceSpool("w0"), TraceSpool("w1")
    w0 = FakeNode(store, "w0", checkpoint_bytes=64, tracer=w0_spans)
    w1 = FakeNode(store, "w1", checkpoint_bytes=1_000, tracer=w1_spans)
    _suspended(w0, 200, trace=TraceContext(bytes(16), 5, 0))
    assert store.owners == ["w0"] and store.appends == [200]
    since = w0_spans.total_records
    header, _, _ = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=SID, rebind=True,
        resume_query=True, digest_factory=real_digest_factory(PAYLOAD),
        trace=TraceContext(bytes(16), 7, 0),
    )
    link, sublink = FakeLink(), TerminalSublink(w1)
    sublink.received(link, header.encode())
    assert link.written == SESSION_ACK + struct.pack(">Q", 200)
    for pos in range(200, 450, 50):
        sublink.received(link, PAYLOAD[pos : pos + 50])
    sublink.ended(link)
    assert sublink.live.worker == "w1" and store.reads == 0
    # 250 bytes under w1's 1,000-byte checkpoint (w0's is 64): one
    # append, on FIN, that quotes w1 (the store's owner now) and is
    # accepted
    assert store.owners == ["w0", "w1"] and store.appends == [200, 250]
    assert w1.counters.sessions_suspended == 1 and link.closed
    assert store.load(SID).bytes_received == 450
    assert w0_spans.total_records == since
    assert [r["name"] for r in w1_spans.tail(since=0)] == [
        "server.session", "server.resume-grant", "store.cas", "store.cas",
        "server.suspend", "server.session",
    ]
    assert w1_spans.open_span_count() == 0


def test_an_entry_parked_against_another_store_is_not_adopted():
    first, other = CountingStore(), CountingStore()
    _suspended(FakeNode(first, "w0"), 200)
    # the same id, suspended at the same offset, in another store
    other.create(SID, 0.0, "w0")
    assert other.append_payload(SID, "w0", 1, PAYLOAD[:200], 0.0) == 200
    node = FakeNode(other, "w1")
    _, _, granted = _resumed(node)
    assert granted == 200 and other.reads == 1 and first.reads == 0
    (result,) = node.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert not cluster_node._parked  # the decision ended its parking


@pytest.mark.parametrize("claimed_by", ["w1", "w0"])
def test_a_parked_session_claimed_since_is_resumed_from_the_spool(claimed_by):
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)  # parked on w0 at epoch 1
    if claimed_by == "w1":
        # taken over (from memory), 100 more bytes, suspended again
        # over there; then w1 shuts down and takes its entry along
        _resumed(w1, upto=300)
        w1.shutdown()
        expected = 300
    else:
        # a rebind here that overtook the park: same owner, same offset,
        # but a later epoch than the parked one
        assert store.claim(SID, "w0", 0.0).epoch == 2
        expected = 200
    _, sublink, granted = _resumed(w0)
    assert granted == expected and store.reads == 1
    (result,) = w0.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 2


def test_a_sibling_claim_in_between_sends_the_rebind_to_the_spool():
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)  # parked on w0 at epoch 1
    assert store.claim(SID, "w1", 0.0).epoch == 2  # never reached w1's receiver
    _, _, granted = _resumed(w1)  # epoch 3
    assert granted == 200 and store.reads == 1
    (result,) = w1.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_a_worker_that_shuts_down_parks_nothing():
    """Neither what it parked before nor a sublink that ends during the
    shutdown: a dead worker's memory never serves a resume."""
    store = CountingStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    other = bytes(reversed(range(16)))
    _suspended(w0, 200, sid=other)
    _suspended(w1, 200)
    header, _, _ = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=bytes(16),
    )
    link, sublink = FakeLink(), TerminalSublink(w0)
    sublink.received(link, header.encode() + PAYLOAD[:100])
    assert set(cluster_node._parked) == {other, SID}
    w0.shutdown(drain=False)
    assert w0.drained is False and set(cluster_node._parked) == {SID}
    sublink.ended(link)  # its sublink suspends after the shutdown began
    assert w0.counters.sessions_suspended == 2
    assert set(cluster_node._parked) == {SID}
    _, _, granted = _resumed(w1, sid=other)
    assert granted == 200 and store.reads == 1
    assert w1.results[0].digest_ok is True


def test_a_spool_shorter_than_the_grant_fails_the_rebind_before_a_reply():
    store = InMemoryStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)
    w0.shutdown()
    del store._records[SID].spool[150:]  # the store lost spooled bytes
    header, _, _ = plan_client_session(
        ME, payload_length=len(PAYLOAD), session_id=SID, rebind=True,
        resume_query=True, digest_factory=real_digest_factory(PAYLOAD),
    )
    link, sublink = FakeLink(), TerminalSublink(w1)
    sublink.received(link, header.encode())
    assert link.written == b"" and link.closed
    assert w1.counters.sessions_failed == 1 and not w1.results


def test_a_spool_longer_than_the_grant_primes_only_the_grant():
    store = InMemoryStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")
    _suspended(w0, 200)
    w0.shutdown()
    # a torn append on a backend that does not trim: bytes past the
    # record's count, which the grant does not cover
    store._records[SID].spool.extend(bytes(1_000))
    _, _, granted = _resumed(w1)
    assert granted == 200
    (result,) = w1.results
    assert result.payload == PAYLOAD and result.digest_ok is True


@pytest.mark.parametrize("first_traced", [False, True])
def test_a_warm_resume_traces_like_a_cold_one(first_traced):
    """The rebind's header sets tracing, not the first sublink's."""

    def rebind_records(warm):
        tracer = TraceSpool("node")
        store = CountingStore()
        node = FakeNode(store, tracer=tracer)
        first = TraceContext(bytes(16), 5, 0) if first_traced else None
        _suspended(node, 200, trace=first)
        if not warm:
            cluster_node._parked.clear()
        since = tracer.total_records
        _resumed(node, trace=TraceContext(bytes(16), 7, 0))
        (result,) = node.results
        assert result.digest_ok is True and result.route_len == 1
        assert store.reads == (0 if warm else 1)
        assert tracer.open_span_count() == 0
        return [
            (r["rt"], r["name"], r["parent"] == 7, r["attrs"])
            for r in tracer.tail(since=since)
        ]

    warm = rebind_records(warm=True)
    assert [name for _, name, _, _ in warm] == [
        "server.session", "server.resume-grant", "store.cas", "store.cas",
        "server.session",
    ]
    assert warm == rebind_records(warm=False)


@pytest.mark.parametrize("ending", ["abandoned", "taken-over"])
def test_parked_sessions_stay_bounded(ending):
    """The bound is the process's, whichever workers park: abandoned
    sessions from both, or sessions taken over and either completed
    (nothing parked) or suspended again by the sibling."""
    store = InMemoryStore()
    w0, w1 = FakeNode(store, "w0"), FakeNode(store, "w1")  # no TTL sweep
    sids = [i.to_bytes(16, "big") for i in range(200)]
    for i, sid in enumerate(sids):
        if ending == "abandoned":
            _suspended((w0, w1)[i % 2], 100, sid=sid)
        else:
            _suspended(w0, 100, sid=sid)
            _resumed(w1, sid=sid, upto=300 if i % 2 else None)
        assert len(cluster_node._parked) <= PARKED_SESSIONS
    owners = [node.worker for node, _ in cluster_node._parked.values()]
    if ending == "abandoned":
        assert list(cluster_node._parked) == sids[-PARKED_SESSIONS:]
        assert owners == ["w0", "w1"] * (PARKED_SESSIONS // 2)
    else:
        assert list(cluster_node._parked) == sids[1::2][-PARKED_SESSIONS:]
        assert owners == ["w1"] * PARKED_SESSIONS
        assert len(w1.results) == 100


def test_parking_from_many_threads_keeps_the_bound_and_the_purge():
    """Eight workers park, take and (half of them) shut down at once: the
    table stays bounded and holds nothing of a worker that shut down.

    The even workers park their last ``PARKED_SESSIONS`` ids only once
    every odd worker has shut down (the barrier), so the table ends full
    of even entries whatever the schedule: each of those ids they take
    back is followed by a park of their own."""
    store = InMemoryStore()
    nodes = [FakeNode(store, f"w{i}") for i in range(8)]
    errors = []
    odd_ones_down = threading.Barrier(8)

    class Parked:
        def __init__(self, session_id):
            self.session_id = session_id

    def churn(index):
        node = nodes[index]
        try:
            for i in range(2_000):
                if not index % 2 and i == 2_000 - PARKED_SESSIONS:
                    odd_ones_down.wait(timeout=30)
                sid = bytes([index]) + i.to_bytes(15, "big")
                cluster_node._park(node, Parked(sid))
                if i % 3 == 0:
                    taken = cluster_node._unpark(sid)
                    assert taken is None or taken.session_id == sid
                if index % 2 and i == 1_000:
                    node.shutdown()
                    odd_ones_down.wait(timeout=30)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cluster_node._parked) == PARKED_SESSIONS
    for sid, (node, parked) in cluster_node._parked.items():
        assert parked.session_id == sid and node is nodes[sid[0]]
        assert sid[0] % 2 == 0 and not node._retired


@pytest.mark.parametrize("suspend_first", [True, False])
def test_a_crash_racing_a_suspend_accounts_the_sublink_once(suspend_first):
    node = FakeNode(InMemoryStore())
    stream = _stream()
    header_len = len(stream) - len(PAYLOAD) - 16
    link, sublink = FakeLink(), TerminalSublink(node)
    sublink.received(link, stream[: header_len + 200])
    if suspend_first:
        sublink._finish(link, "suspended")
        sublink.broken(link, SHUTDOWN)
    else:
        sublink.broken(link, SHUTDOWN)
        sublink._finish(link, "suspended")
    counters = node.counters
    outcomes = (
        counters.sessions_suspended, counters.sessions_failed,
        counters.sessions_completed,
    )
    assert outcomes == ((1, 0, 0) if suspend_first else (0, 1, 0))
    assert len(cluster_node._parked) == (1 if suspend_first else 0)
    assert link.closed


# -- RelaySession -------------------------------------------------------------

RELAYED = [("depot", 1), ("server", 9)]


class FakeDepot(DepotEngine):
    """A depot whose every dial connects at once, to a fake link."""

    address = ("depot", 1)
    _driver = "fake"

    def __init__(self, tracer=None):
        self.events = []
        super().__init__(self.events.append, 30.0, tracer)
        self.dials = []

    def _dial(self, relay, hop):
        self.dials.append(hop)
        relay._dialed(None)

    def _link(self, sock, owner, peer=None):
        return FakeLink(peer)

    def failures(self):
        return [e for e in self.events if e.kind == "relay-failed"]


def _relay(tracer=None):
    depot = FakeDepot(tracer)
    depot.counters.session_started()  # what _open counts
    return depot, FakeLink(), RelaySession(depot)


def _relaying(stream):
    """A relay that has dialed and forwarded the whole ``stream``."""
    depot, up, relay = _relay()
    relay.received(up, stream)
    assert relay.down is not None and up.peer is relay.down
    return depot, up, relay


@pytest.mark.parametrize("traced", [False, True])
def test_a_relay_header_cut_at_every_byte_dials_once(traced):
    trace = TraceContext(bytes(16), 7, 0) if traced else None
    stream = _stream(route=RELAYED, trace=trace)
    header_len = len(stream) - len(PAYLOAD) - 16
    decision = RelayCore().feed([Chunk.real(stream[:header_len])])
    for cut in range(1, len(stream)):
        tracer = TraceSpool("depot") if traced else None
        depot, up, relay = _relay(tracer)
        for piece in (stream[:cut], stream[cut:]):
            relay.received(up, piece)
        assert depot.dials == [RouteHop("server", 9)], cut
        onward = decision.onward_bytes
        if traced:
            onward = decision.header.traced_onward(relay.relay_span).encode()
            assert onward != decision.onward_bytes
        # the onward header, then the surplus, then every later byte
        assert relay.down.written == onward + stream[header_len:], cut
        assert [e.kind for e in depot.events] == ["relay-forward"]
        assert not up.closed


def test_eof_in_both_directions_ends_the_relay_once_and_completed():
    stream = _stream(route=RELAYED)
    header_len = len(stream) - len(PAYLOAD) - 16
    depot, up, relay = _relaying(stream)
    down = relay.down
    relay.received(down, b"REPLY")
    assert up.written == b"REPLY"
    up.eof = True
    relay.ended(up)
    # a half-close is passed on; the reverse direction still flows
    assert down.finished and not up.closed and not down.closed
    relay.received(down, b"MORE")
    down.eof = True
    relay.ended(down)
    relay.ended(up)  # both readers may report the end
    assert up.finished and up.closed and down.closed
    counters = depot.counters
    assert (counters.sessions_completed, counters.sessions_failed) == (1, 0)
    assert counters.active_sessions == 0
    assert counters.bytes_relayed == len(stream) - header_len + 9
    assert not depot.failures()


def test_a_reset_while_relaying_counts_as_completed():
    depot, up, relay = _relaying(_stream(route=RELAYED))
    relay.broken(relay.down, ConnectionResetError("peer reset"))
    relay.broken(up, ConnectionResetError("peer reset"))
    assert up.closed and relay.down.closed
    assert depot.counters.sessions_completed == 1
    assert depot.counters.sessions_failed == 0 and not depot.failures()


def test_a_shutdown_while_relaying_counts_as_failed_once():
    depot, up, relay = _relaying(_stream(route=RELAYED))
    relay.broken(up, SHUTDOWN)
    relay.broken(relay.down, SHUTDOWN)
    assert up.closed and relay.down.closed
    assert depot.counters.sessions_failed == 1
    assert depot.counters.sessions_completed == 0
    assert depot.counters.active_sessions == 0
    (event,) = depot.failures()
    assert "service shutdown" in event.detail["reason"]


@pytest.mark.parametrize("ending", ["rejected", "fin"])
def test_a_relay_that_fails_its_header_phase_never_dials(ending):
    depot, up, relay = _relay()
    if ending == "rejected":
        relay.received(up, b"NOPE" + bytes(60))
    else:
        relay.received(up, _stream(route=RELAYED)[:10])
        up.eof = True
        relay.ended(up)
    assert not depot.dials and relay.down is None and up.closed
    assert depot.counters.sessions_failed == 1
    assert depot.counters.sessions_completed == 0
    assert len(depot.failures()) == 1
