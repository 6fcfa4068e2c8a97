"""Session mobility: rebinding a session to a new transport sublink."""

import pytest

from repro.lsl.client import lsl_connect, lsl_rebind
from repro.lsl.core.errors import SessionUnknown
from repro.lsl.core.wire import LslHeader, RouteHop
from tests.lsl.conftest import LslWorld


def test_rebind_resumes_session(world):
    """Send half the payload, kill the sublink, rebind, send the rest:
    the server must see one session with a verified digest."""
    N = 100_000
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=N
    )
    sent = {"n": 0}

    def pump_half():
        if sent["n"] < N // 2:
            sent["n"] += conn.send_virtual(N // 2 - sent["n"])

    conn.on_writable = pump_half
    conn._user_on_connected = pump_half
    world.run(until=3.0)
    assert sent["n"] == N // 2

    # wait until the server has everything so far, then cut the transport
    world.run(until=10.0)
    server_conn = world.server.sessions[0]
    assert server_conn.payload_received == N // 2
    conn.abort()
    world.run(until=12.0)
    assert not world.completed

    # rebind with the digest state carried over
    conn2 = lsl_rebind(
        world.stacks["client"],
        world.route_direct,
        session_id=conn.session_id,
        resume_offset=N // 2,
        payload_length=N,
        digest_state=conn.digest,
    )

    def pump_rest():
        rem = conn2.remaining
        if rem and rem > 0:
            conn2.send_virtual(rem)
        if conn2.remaining == 0:
            conn2.finish()
            conn2.on_writable = None

    conn2.on_writable = pump_rest
    conn2._user_on_connected = pump_rest
    world.run(until=60.0)

    assert len(world.completed) == 1
    done = world.completed[0]
    assert done.payload_received == N
    assert done.digest_ok is True
    assert done.session_id == conn.session_id
    record = world.server.registry.lookup_closed = world.server.registry.get(
        conn.session_id
    )
    assert record.rebinds == 1


def test_rebind_unknown_session_rejected(world):
    bogus = bytes(16)
    conn = lsl_rebind(
        world.stacks["client"],
        world.route_direct,
        session_id=bogus,
        resume_offset=0,
        payload_length=10,
    )
    closed = []
    conn.on_close = closed.append
    world.run(until=10.0)
    assert world.server.errors
    assert isinstance(world.server.errors[0], SessionUnknown)
    assert closed and closed[0] is not None


def test_rebind_wrong_offset_rejected(world):
    N = 50_000
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=N
    )
    sent = {"n": 0}

    def pump():
        if sent["n"] < N // 2:
            sent["n"] += conn.send_virtual(N // 2 - sent["n"])

    conn.on_writable = pump
    conn._user_on_connected = pump
    world.run(until=5.0)
    conn.abort()
    world.run(until=6.0)

    conn2 = lsl_rebind(
        world.stacks["client"],
        world.route_direct,
        session_id=conn.session_id,
        resume_offset=12345,  # wrong: server got N//2
        payload_length=N,
        digest_state=conn.digest,
    )
    world.run(until=20.0)
    assert world.server.errors


def test_rebind_through_different_depot_route(world):
    """Mobility across routes: start direct, resume via the depot."""
    N = 80_000
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=N
    )
    sent = {"n": 0}

    def pump():
        if sent["n"] < N // 2:
            sent["n"] += conn.send_virtual(N // 2 - sent["n"])

    conn.on_writable = pump
    conn._user_on_connected = pump
    world.run(until=5.0)
    conn.abort()
    world.run(until=7.0)

    conn2 = lsl_rebind(
        world.stacks["client"],
        world.route_via_depot,  # new path through the depot
        session_id=conn.session_id,
        resume_offset=N // 2,
        payload_length=N,
        digest_state=conn.digest,
    )

    def pump_rest():
        rem = conn2.remaining
        if rem and rem > 0:
            conn2.send_virtual(rem)
        if conn2.remaining == 0:
            conn2.finish()
            conn2.on_writable = None

    conn2.on_writable = pump_rest
    conn2._user_on_connected = pump_rest
    world.run(until=60.0)
    assert world.completed and world.completed[0].digest_ok is True
    assert world.depot.stats.sessions_completed == 1


def test_rebind_requires_digest_state(world):
    from repro.lsl.core.errors import LslError

    with pytest.raises(LslError):
        lsl_rebind(
            world.stacks["client"],
            world.route_direct,
            session_id=bytes(16),
            resume_offset=100,
            payload_length=200,
        )
