"""Store-and-forward depot: disconnected-endpoint sessions."""

import pytest

from repro.lsl.client import lsl_connect
from repro.lsl.server import LslServer
from repro.lsl.storeforward import StoreForwardDepot
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack


def build(seed=1):
    net = Network(seed=seed)
    for h in ("client", "depot", "server"):
        net.add_host(h)
    net.add_link("client", "depot", 50e6, 10.0)
    net.add_link("depot", "server", 50e6, 10.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "depot", "server")}
    return net, stacks


def upload(stacks, nbytes, data=None, port=4000):
    conn = lsl_connect(
        stacks["client"],
        [("depot", port), ("server", 5000)],
        payload_length=nbytes,
        sync=False,  # deferred: nobody may be home to ack
    )
    state = {"virtual": nbytes if data is None else 0, "data": data or b""}

    def pump():
        if state["data"]:
            sent = conn.send(state["data"])
            state["data"] = state["data"][sent:]
            if state["data"]:
                return
        if state["virtual"] > 0:
            state["virtual"] -= conn.send_virtual(state["virtual"])
        if not state["virtual"] and not state["data"]:
            conn.finish()
            conn.on_writable = None

    conn.on_writable = pump
    conn._user_on_connected = pump
    return conn


def start_server(stacks, completed):
    def on_session(conn):
        conn.on_readable = lambda: conn.recv()
        conn.on_complete = completed.append

    return LslServer(stacks["server"], 5000, on_session)


def test_delivery_while_receiver_offline_then_online():
    """The headline: sender and receiver never overlap in time."""
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000)
    completed = []

    upload(stacks, 300_000)
    net.sim.run(until=5.0)
    # upload done, receiver absent: the depot holds the object
    assert depot.pending_sessions == 1
    assert depot.spooled_bytes_total >= 300_000
    assert not completed

    # receiver appears much later
    net.sim.schedule_at(30.0, start_server, stacks, completed)
    net.sim.run(until=120.0)
    assert len(completed) == 1
    assert completed[0].payload_received == 300_000
    assert completed[0].digest_ok is True
    assert depot.pending_sessions == 0
    assert depot.counters.sessions_completed == 1


def test_immediate_delivery_when_receiver_present():
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000)
    completed = []
    start_server(stacks, completed)
    upload(stacks, 100_000)
    net.sim.run(until=60.0)
    assert len(completed) == 1
    assert completed[0].digest_ok is True


def test_real_payload_survives_spool():
    net, stacks = build()
    StoreForwardDepot(stacks["depot"], 4000)
    data = bytes(range(256)) * 300
    received = []
    done = []

    def on_session(conn):
        conn.on_readable = lambda: received.extend(conn.recv())
        conn.on_complete = done.append

    net.sim.schedule_at(10.0, LslServer, stacks["server"], 5000, on_session)
    upload(stacks, len(data), data=data)
    net.sim.run(until=60.0)
    assert done and done[0].digest_ok is True
    assert b"".join(c.data for c in received if c.data) == data


def test_retention_expiry_drops_object():
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000, retention_s=5.0)
    upload(stacks, 50_000)
    net.sim.run(until=30.0)  # receiver never appears
    assert depot.pending_sessions == 0
    assert depot.counters.sessions_failed == 1
    assert depot.counters.sessions_completed == 0


def test_oversized_object_rejected():
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000, max_object_bytes=10_000)
    conn = upload(stacks, 50_000)
    closed = []
    conn.on_close = closed.append
    net.sim.run(until=30.0)
    assert depot.counters.sessions_failed == 1
    assert closed and closed[0] is not None  # sender saw the abort


def test_sync_session_rejected():
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000)
    conn = lsl_connect(
        stacks["client"],
        [("depot", 4000), ("server", 5000)],
        payload_length=100,
        sync=True,
    )
    closed = []
    conn.on_close = closed.append
    net.sim.run(until=30.0)
    assert depot.counters.sessions_failed == 1


def test_retry_backoff_counts_attempts():
    net, stacks = build()
    depot = StoreForwardDepot(stacks["depot"], 4000)
    upload(stacks, 10_000)
    net.sim.run(until=20.0)
    (session,) = depot.sessions
    assert session._attempts >= 3  # retried against the missing server
    completed = []
    start_server(stacks, completed)
    net.sim.run(until=120.0)
    assert completed


def test_validation():
    net, stacks = build()
    with pytest.raises(ValueError):
        StoreForwardDepot(stacks["depot"], 4001, max_object_bytes=0)
    with pytest.raises(ValueError):
        StoreForwardDepot(stacks["depot"], 4002, retention_s=0)
