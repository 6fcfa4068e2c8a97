"""End-to-end LSL session tests (simulated network)."""

import pytest

from repro.lsl.client import lsl_connect
from repro.lsl.core.errors import LslError
from tests.lsl.conftest import LslWorld


def drive(conn, nbytes, data=None):
    """Standard payload pump used by these tests."""
    state = {"virtual": nbytes if data is None else 0, "data": data or b""}

    def pump():
        if state["data"]:
            sent = conn.send(state["data"])
            state["data"] = state["data"][sent:]
            if state["data"]:
                return
        if state["virtual"] > 0:
            state["virtual"] -= conn.send_virtual(state["virtual"])
        if state["virtual"] == 0 and not state["data"]:
            conn.finish()
            conn.on_writable = None

    conn.on_writable = pump
    conn._user_on_connected = pump
    return state


def test_direct_session_completes_with_digest(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=100_000
    )
    drive(conn, 100_000)
    world.run()
    assert len(world.completed) == 1
    assert world.completed[0].payload_received == 100_000
    assert world.completed[0].digest_ok is True
    assert not world.errors


def test_depot_session_completes_with_digest(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=250_000
    )
    drive(conn, 250_000)
    world.run()
    assert len(world.completed) == 1
    assert world.completed[0].digest_ok is True
    assert world.depot.counters.sessions_completed == 1
    assert world.depot.counters.bytes_relayed >= 250_000


def test_real_payload_bytes_survive_relay(world):
    data = bytes(range(256)) * 200
    received = []

    def on_session(conn):
        conn.on_readable = lambda: received.extend(conn.recv())
        conn.on_complete = world.completed.append
        conn.on_error = world.errors.append

    world.server.on_session = on_session
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=len(data)
    )
    drive(conn, 0, data=data)
    world.run()
    assert world.completed
    out = b"".join(c.data for c in received if c.data is not None)
    assert out == data
    assert world.completed[0].digest_ok is True


def test_session_id_matches_between_ends(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=10_000
    )
    drive(conn, 10_000)
    world.run()
    assert world.completed[0].session_id == conn.session_id


def test_sync_establishment_delays_on_connected(world):
    times = {}
    conn = lsl_connect(
        world.stacks["client"],
        world.route_via_depot,
        payload_length=1000,
        on_connected=lambda: times.setdefault("sync", world.net.sim.now),
    )
    world.run(until=5.0)
    # one-way ~21ms; sync needs client->depot handshake, depot->server
    # handshake, ack back: >= 2 end-to-end RTTs worth
    assert times["sync"] > 0.05


def test_async_establishment_is_faster(world):
    t_sync, t_async = {}, {}
    w2 = LslWorld(seed=2)
    c1 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=1000,
        on_connected=lambda: t_sync.setdefault("t", world.net.sim.now),
    )
    c2 = lsl_connect(
        w2.stacks["client"], w2.route_via_depot, payload_length=1000,
        sync=False,
        on_connected=lambda: t_async.setdefault("t", w2.net.sim.now),
    )
    world.run(until=5.0)
    w2.run(until=5.0)
    assert t_async["t"] < t_sync["t"]


def test_digest_requires_payload_length(world):
    with pytest.raises(LslError):
        lsl_connect(world.stacks["client"], world.route_direct)


def test_stream_until_fin_without_digest(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, digest=False
    )
    sent = {"n": 50_000}

    def pump():
        if sent["n"] > 0:
            sent["n"] -= conn.send_virtual(sent["n"])
            if sent["n"] == 0:
                conn.close()

    conn.on_writable = pump
    conn._user_on_connected = pump
    world.run()
    assert world.completed
    assert world.completed[0].payload_received == 50_000
    assert world.completed[0].digest_ok is None


def test_payload_overrun_rejected(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=10
    )
    errors = []

    def go():
        conn.send_virtual(10)
        with pytest.raises(LslError):
            conn.send_virtual(1)
        errors.append(True)
        conn.finish()

    conn._user_on_connected = go
    world.run()
    assert errors
    assert world.completed


def test_finish_before_payload_complete_rejected(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_direct, payload_length=100
    )
    checked = []

    def go():
        conn.send_virtual(50)
        with pytest.raises(LslError):
            conn.finish()
        checked.append(True)
        conn.send_virtual(50)
        conn.finish()

    conn._user_on_connected = go
    world.run()
    assert checked and world.completed


def test_reverse_direction_data(world):
    """Server sends a response back through the cascade."""
    got_back = []

    def on_session(conn):
        conn.on_readable = lambda: conn.recv()

        def complete(c):
            world.completed.append(c)
            c.send(b"OK:response")
            c.close()

        conn.on_complete = complete

    world.server.on_session = on_session
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=5_000
    )
    conn.on_readable = lambda: got_back.extend(conn.recv())
    drive(conn, 5_000)
    world.run()
    assert b"".join(c.data for c in got_back if c.data) == b"OK:response"


def test_corrupted_payload_fails_digest(world):
    """Tamper with the stream at the depot: server must detect it."""
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=50_000
    )
    drive(conn, 0, data=b"A" * 50_000)

    # tamper: flip the payload of one full data segment arriving at the
    # server (models in-network corruption that slips past checksums,
    # the case the paper's end-to-end MD5 exists for)
    server_stack = world.stacks["server"]
    orig = server_stack.handle_packet
    state = {"done": False}

    def corrupting(packet):
        seg = packet.payload
        if (
            not state["done"]
            and seg.length >= 1000
            and seg.payload is not None
            and not seg.payload.startswith(b"LSL1")
        ):
            seg.payload = b"X" * seg.length
            state["done"] = True
        orig(packet)

    world.net.host("server").protocol_handlers["tcp"] = type(
        "Tamper", (), {"handle_packet": staticmethod(corrupting)}
    )()
    world.run()
    assert state["done"], "no segment was corrupted"
    assert world.errors, "digest mismatch not detected"
    from repro.lsl.core.errors import DigestMismatch

    assert isinstance(world.errors[0], DigestMismatch)


def test_two_concurrent_sessions_isolated(world):
    c1 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=60_000
    )
    c2 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=90_000
    )
    drive(c1, 60_000)
    drive(c2, 90_000)
    world.run()
    assert len(world.completed) == 2
    sizes = sorted(c.payload_received for c in world.completed)
    assert sizes == [60_000, 90_000]
    assert all(c.digest_ok for c in world.completed)
    assert c1.session_id != c2.session_id
