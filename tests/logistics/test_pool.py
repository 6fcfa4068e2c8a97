"""Tests for depot pools and admission control."""

import pytest

from repro.logistics.pool import DepotPool
from repro.lsl.client import lsl_connect
from repro.lsl.depot import Depot
from repro.lsl.server import LslServer
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack


def pool_world(ndepots=3, max_sessions=None, seed=1):
    net = Network(seed=seed)
    net.add_host("client")
    net.add_host("server")
    net.add_router("pop")
    net.add_link("client", "pop", 50e6, 10.0)
    net.add_link("pop", "server", 50e6, 10.0)
    depots = []
    stacks = {"client": None, "server": None}
    for i in range(ndepots):
        net.add_host(f"d{i}")
        net.add_link("pop", f"d{i}", 622e6, 0.5)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in net.nodes if not h == "pop"}
    for i in range(ndepots):
        depots.append(Depot(stacks[f"d{i}"], 4000, max_sessions=max_sessions))
    completed = []

    def on_session(conn):
        conn.on_readable = lambda: conn.recv()
        conn.on_complete = completed.append

    LslServer(stacks["server"], 5000, on_session)
    return net, stacks, depots, completed


def start_transfer(stacks, depot_host, nbytes=200_000):
    conn = lsl_connect(
        stacks["client"],
        [(depot_host, 4000), ("server", 5000)],
        payload_length=nbytes,
    )
    pending = [nbytes]

    def pump():
        if pending[0] > 0:
            pending[0] -= conn.send_virtual(pending[0])
            if pending[0] == 0:
                conn.finish()

    conn.on_writable = pump
    conn._user_on_connected = pump
    return conn


def test_round_robin_cycles():
    net, stacks, depots, _ = pool_world()
    pool = DepotPool(depots, policy="round-robin")
    picks = [pool.pick().host_name for _ in range(6)]
    assert picks == ["d0", "d1", "d2", "d0", "d1", "d2"]


def test_least_loaded_prefers_idle():
    net, stacks, depots, completed = pool_world()
    pool = DepotPool(depots, policy="least-loaded")
    # occupy d0 with a long session
    start_transfer(stacks, "d0", nbytes=5_000_000)
    net.sim.run(until=0.5)
    assert depots[0].counters.active_sessions == 1
    assert pool.pick(net.sim.now).host_name != "d0"


def test_weighted_distribution():
    net, stacks, depots, _ = pool_world()
    pool = DepotPool(depots, policy="weighted", weights=[8.0, 1.0, 1.0])
    picks = [pool.pick().host_name for _ in range(500)]
    assert picks.count("d0") > 300


def test_refusal_cooldown_skips_depot():
    net, stacks, depots, _ = pool_world()
    pool = DepotPool(depots, policy="round-robin", refusal_cooldown_s=10.0)
    first = pool.pick(0.0)
    pool.report_refusal(first, now=0.0)
    upcoming = {pool.pick(1.0).host_name for _ in range(4)}
    assert first.host_name not in upcoming
    # after cooldown it returns
    later = {pool.pick(20.0).host_name for _ in range(3)}
    assert first.host_name in later


def test_pool_validation():
    net, stacks, depots, _ = pool_world()
    with pytest.raises(ValueError):
        DepotPool([])
    with pytest.raises(ValueError):
        DepotPool(depots, policy="magic")
    with pytest.raises(ValueError):
        DepotPool(depots, weights=[1.0])
    pool = DepotPool(depots)
    other = Depot(stacks["client"], 4999)
    with pytest.raises(ValueError):
        pool.report_refusal(other, now=0.0)


def test_load_snapshot():
    net, stacks, depots, _ = pool_world()
    pool = DepotPool(depots, policy="round-robin")
    pool.pick()
    snap = pool.load_snapshot()
    assert len(snap) == 3
    assert snap[0] == ("d0", 0, 1)


def test_admission_control_refuses_beyond_limit():
    net, stacks, depots, completed = pool_world(ndepots=1, max_sessions=2)
    depot = depots[0]
    conns = [start_transfer(stacks, "d0", nbytes=3_000_000) for _ in range(4)]
    errors = []
    for c in conns:
        c.on_close = lambda err, c=c: errors.append(err) if err else None
    net.sim.run(until=2.0)
    assert depot.counters.sessions_refused == 2
    assert depot.counters.active_sessions == 2
    net.sim.run(until=120.0)
    # the two admitted sessions complete
    assert len(completed) == 2
    # the refused clients saw their sublink reset
    assert len([e for e in errors if e is not None]) == 2


def test_admitted_sessions_unaffected_by_refusals():
    net, stacks, depots, completed = pool_world(ndepots=1, max_sessions=1)
    start_transfer(stacks, "d0", nbytes=100_000)
    net.sim.run(until=0.2)
    start_transfer(stacks, "d0", nbytes=100_000)  # refused
    net.sim.run(until=60.0)
    assert len(completed) == 1
    assert completed[0].digest_ok is True
