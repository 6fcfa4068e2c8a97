"""Depot behaviour: header handling, routing errors, stats, shutdown."""

import pytest

from repro.lsl.client import lsl_connect
from repro.lsl.core.errors import RouteError
from tests.lsl.conftest import LslWorld
from tests.lsl.test_client_server import drive


def test_depot_counts_sessions(world):
    for _ in range(3):
        conn = lsl_connect(
            world.stacks["client"], world.route_via_depot, payload_length=20_000
        )
        drive(conn, 20_000)
    world.run()
    assert world.depot.stats.sessions_accepted == 3
    assert world.depot.stats.sessions_completed == 3
    assert world.depot.stats.sessions_failed == 0
    assert not world.depot.active_sessions


def test_depot_as_final_hop_rejected(world):
    """A route that ends at the depot is a client error: the depot
    must abort the sublink."""
    closed = []
    conn = lsl_connect(
        world.stacks["client"], [("depot", 4000)], payload_length=100
    )
    conn.on_close = closed.append
    world.run(until=10.0)
    assert world.depot.stats.sessions_failed == 1
    assert closed and closed[0] is not None  # RST reached the client


def test_raw_garbage_to_depot_fails_session(world):
    """Non-LSL bytes on the depot port must be rejected."""
    sock = world.stacks["client"].socket()

    def go():
        sock.send(b"GET / HTTP/1.0\r\n\r\n" + b"\x00" * 64)

    sock.connect(("depot", 4000), on_connected=go)
    world.run(until=10.0)
    assert world.depot.stats.sessions_failed == 1


def test_depot_dial_failure_aborts_upstream(world):
    """Next hop is a closed port: the client's sublink must die."""
    closed = []
    conn = lsl_connect(
        world.stacks["client"],
        [("depot", 4000), ("server", 9999)],  # nothing listens on 9999
        payload_length=100,
    )
    conn.on_close = closed.append
    world.run(until=30.0)
    assert world.depot.stats.sessions_failed == 1
    assert closed and closed[0] is not None


def test_depot_shutdown_aborts_active_sessions(world):
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=10_000_000
    )
    drive(conn, 10_000_000)
    world.run(until=0.5)
    assert world.depot.active_sessions
    world.depot.shutdown()
    world.run(until=30.0)
    assert not world.depot.active_sessions
    assert not world.completed


def test_multi_depot_cascade():
    """Three sublinks through two depots."""
    from repro.lsl.depot import Depot
    from repro.net.topology import Network
    from repro.tcp.sockets import TcpStack

    net = Network(seed=3)
    for h in ("client", "d1", "d2", "server"):
        net.add_host(h)
    net.add_link("client", "d1", 50e6, 8.0)
    net.add_link("d1", "d2", 50e6, 8.0)
    net.add_link("d2", "server", 50e6, 8.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "d1", "d2", "server")}
    dep1 = Depot(stacks["d1"], 4000)
    dep2 = Depot(stacks["d2"], 4000)

    from repro.lsl.server import LslServer

    completed = []

    def on_session(conn):
        conn.on_readable = lambda: conn.recv()
        conn.on_complete = completed.append

    LslServer(stacks["server"], 5000, on_session)
    conn = lsl_connect(
        stacks["client"],
        [("d1", 4000), ("d2", 4000), ("server", 5000)],
        payload_length=300_000,
    )
    drive(conn, 300_000)
    net.sim.run(until=120.0)
    assert completed and completed[0].digest_ok
    assert dep1.stats.sessions_completed == 1
    assert dep2.stats.sessions_completed == 1
    assert dep1.stats.bytes_relayed_forward >= 300_000


def test_depot_relays_trailer_bytes(world):
    """The MD5 trailer crosses the depot intact (sessions_completed
    implies the server verified it)."""
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=1_000
    )
    drive(conn, 1_000)
    world.run()
    assert world.completed[0].digest_ok is True
    # 1000 payload + 16 trailer
    assert world.depot.stats.bytes_relayed_forward == 1_016
