"""The simulator's server runs the shared terminal engine.

``LslServer`` is ``TerminalEngine`` behind a ``SimLink``, so the engine
paths the real-socket tests pin (``tests/sockets/test_terminal.py``,
``tests/sockets/test_session_objects.py``) hold on simulated sockets
too: a restart displaces the stale sublink, a rebind over a sublink
that is still sending takes the session from it, and a sublink that
ends or carries virtual bytes before its header is one error.
"""

from repro.lsl.client import lsl_connect, lsl_rebind, virtual_digest_factory
from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.wire import LslHeader, RouteHop

SID = bytes(range(16))
N = 2_000_000


def _streaming(world, limit, **options):
    """A client sublink that sends virtual payload up to ``limit``."""
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=N,
        session_id=SID, **options,
    )
    closed = []
    conn.on_close = closed.append

    def pump():
        if conn.bytes_sent < limit:
            conn.send_virtual(limit - conn.bytes_sent)
        if conn.bytes_sent == N:
            conn.finish()
            conn.on_writable = None

    conn.on_writable = pump
    conn._user_on_connected = pump
    return conn, closed


def _raw(world):
    """A bare TCP sublink to the server; returns it and its close log."""
    sock = world.stacks["client"].socket()
    closed = []
    sock.on_close = closed.append
    return sock, closed


def test_restart_of_a_live_session_displaces_the_stale_sublink(world):
    old, old_closed = _streaming(world, N // 4)
    world.run(until=2.0)
    stale = world.server.sessions[0]
    assert stale.payload_received == N // 4 and not old_closed
    # the same id again, not a rebind: the ack was "lost"
    _streaming(world, N)
    world.run(until=10.0)
    assert world.server.errors == [] and world.errors == []
    assert stale.link is None and old_closed and old_closed[0] is not None
    stale.close()  # no sublink left to close: nothing happens
    fresh = world.server.sessions[1]
    assert world.completed == [fresh] and fresh.digest_ok is True
    assert fresh.payload_received == N
    record = world.server.registry.get(SID)
    assert record.attachment is fresh and record.closed
    assert record.rebinds == 0 and record.bytes_received == N


def test_rebind_over_a_still_sending_sublink_drops_its_later_bytes(world):
    old, old_closed = _streaming(world, N - 1)  # never finishes
    world.run(until=0.15)  # mid-stream: the old sublink is still sending
    (live,) = world.server.sessions
    new = lsl_rebind(
        world.stacks["client"], world.route_direct, session_id=SID,
        resume_offset=0, payload_length=N, resume_query=True,
        digest_factory=virtual_digest_factory,
    )

    def pump():
        if new.bytes_sent < N:
            new.send_virtual(N - new.bytes_sent)
        if new.bytes_sent == N:
            new.finish()
            new.on_writable = None

    new.on_writable = pump
    new._user_on_connected = pump
    world.run(until=10.0)
    assert world.server.errors == [] and world.errors == []
    assert old_closed and old_closed[0] is not None  # reset, not a FIN
    # bytes the old sublink had in flight never reached the receiver:
    # it resumed at the grant and counted every byte exactly once
    assert 0 < new.granted_offset < old.bytes_sent
    assert world.completed == [live]
    assert live.payload_received == N and live.digest_ok is True
    record = world.server.registry.get(SID)
    assert record.attachment is live and record.rebinds == 1
    assert record.bytes_received == N and world.server.sessions == [live]


def test_fin_during_the_header_phase_is_one_error(world):
    sock, closed = _raw(world)
    header = LslHeader(
        session_id=SID, route=(RouteHop("server", 5000),), payload_length=10
    )

    def go():
        sock.send(header.encode()[:10])
        sock.close()

    sock.connect(("server", 5000), on_connected=go)
    world.run()
    (error,) = world.server.errors
    assert isinstance(error, ProtocolError) and "EOF before" in str(error)
    assert len(world.server.registry) == 0 and world.server.sessions == []
    assert closed == [None]  # the server's side closed with a FIN too


def test_a_connection_that_sends_no_byte_records_nothing(world):
    sock, closed = _raw(world)
    sock.connect(("server", 5000), on_connected=sock.close)
    world.run()
    assert world.server.errors == [] and world.server.sessions == []
    assert closed == [None]


def test_virtual_bytes_before_the_header_are_one_error(world):
    sock, closed = _raw(world)
    sock.connect(("server", 5000), on_connected=lambda: sock.send_virtual(100))
    world.run()
    (error,) = world.server.errors
    assert isinstance(error, ProtocolError) and "virtual" in str(error)
    assert len(world.server.registry) == 0 and world.server.sessions == []
    assert closed and closed[0] is not None  # refused with a reset
