"""Fault injection: link flaps, depot crashes, fault plans and processes."""

import math
import random

import pytest

from repro.faults import (
    DepotFault,
    FaultPlan,
    LinkFault,
    random_depot_crashes,
    random_link_flaps,
)
from repro.lsl.client import lsl_connect
from tests.helpers import PumpClient, SinkServer, two_host_net
from tests.lsl.conftest import LslWorld
from tests.lsl.test_client_server import drive


# -- fault records and plans ------------------------------------------------


def test_fault_record_validation():
    with pytest.raises(ValueError):
        LinkFault("a", "b", -1.0, 1.0)
    with pytest.raises(ValueError):
        LinkFault("a", "b", 0.0, 0.0)
    with pytest.raises(ValueError):
        DepotFault("d", 1.0, 0.0)
    # a crash with no restart is legal (fail-stop forever)
    assert math.isinf(DepotFault("d", 1.0).duration_s)


def test_plan_of_count_and_merged():
    lf = LinkFault("a", "b", 1.0, 0.5)
    df = DepotFault("d", 2.0)
    plan = FaultPlan.of(lf, df)
    assert plan.link_faults == (lf,)
    assert plan.depot_faults == (df,)
    assert plan.count == 2
    merged = plan.merged(FaultPlan.of(LinkFault("a", "b", 3.0, 0.1)))
    assert merged.count == 3
    with pytest.raises(TypeError):
        FaultPlan.of("not a fault")


def test_arm_unknown_targets_raise():
    net, _, _ = two_host_net()
    with pytest.raises(KeyError):
        FaultPlan.of(LinkFault("a", "nowhere", 1.0, 1.0)).arm(net)
    with pytest.raises(KeyError):
        FaultPlan.of(DepotFault("ghost", 1.0)).arm(net, ())


def test_arm_schedules_flap_and_restore():
    net, _, _ = two_host_net()
    link = net.link_between("a", "b")
    FaultPlan.of(LinkFault("a", "b", 1.0, 2.0)).arm(net)
    net.sim.run(until=0.5)
    assert link.up
    net.sim.run(until=1.5)
    assert not link.up
    net.sim.run(until=3.5)
    assert link.up
    assert link.forward.stats.down_transitions == 1
    assert link.reverse.stats.down_transitions == 1


# -- link up/down semantics -------------------------------------------------


def test_link_down_drops_enqueues_and_is_idempotent():
    net, sa, _ = two_host_net()
    link = net.link_between("a", "b")
    link.set_up(False)
    link.set_up(False)  # idempotent: one transition
    assert not link.up
    assert link.forward.stats.down_transitions == 1
    PumpClient(sa, ("b", 5000), nbytes=10)  # SYN into a downed link
    net.sim.run(until=0.5)
    assert link.forward.stats.dropped_down_packets >= 1
    link.set_up(True)
    assert link.up


def test_link_flap_kills_in_flight_but_tcp_recovers():
    net, sa, sb = two_host_net(seed=3, delay_ms=20.0)
    FaultPlan.of(LinkFault("a", "b", 0.1, 0.3)).arm(net)
    server = SinkServer(sb)
    client = PumpClient(sa, ("b", 5000), nbytes=500_000)
    net.sim.run(until=300.0)
    stats = net.link_between("a", "b").forward.stats
    assert stats.down_transitions == 1
    assert stats.dropped_down_packets > 0  # queue and/or wire losses
    # retransmission rides out the outage: everything still arrives
    assert server.received == 500_000
    assert client.closed and client.error is None


# -- depot crash / restart --------------------------------------------------


def test_depot_crash_aborts_sessions_then_restart_accepts():
    world = LslWorld()
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=5_000_000
    )
    drive(conn, 5_000_000)
    closed = []
    conn.on_close = closed.append
    world.run(until=0.5)
    assert world.depot.counters.active_sessions

    world.depot.crash()
    world.depot.crash()  # idempotent
    assert world.depot.crashed
    assert not world.depot.counters.active_sessions
    assert world.depot.crashes == 1
    assert world.depot.counters.sessions_failed == 1
    world.run(until=10.0)
    assert closed and closed[0] is not None  # the reset reached the client

    world.depot.restart()
    assert not world.depot.crashed
    conn2 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=10_000
    )
    drive(conn2, 10_000)
    world.run(until=120.0)
    assert world.depot.counters.sessions_completed == 1
    assert len(world.completed) == 1 and world.completed[0].digest_ok


def test_restart_without_crash_is_a_noop():
    world = LslWorld()
    world.depot.restart()
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=1_000
    )
    drive(conn, 1_000)
    world.run()
    assert world.depot.counters.sessions_completed == 1


def test_armed_depot_fault_without_restore_stays_down():
    world = LslWorld()
    FaultPlan.of(DepotFault("depot", 0.1)).arm(world.net, [world.depot])
    world.run(until=60.0)
    assert world.depot.crashed
    assert world.depot.crashes == 1


def test_armed_depot_fault_with_restore_comes_back():
    world = LslWorld()
    FaultPlan.of(DepotFault("depot", 0.1, 1.0)).arm(world.net, [world.depot])
    world.run(until=0.5)
    assert world.depot.crashed
    world.run(until=5.0)
    assert not world.depot.crashed


# -- stochastic fault processes ---------------------------------------------


def test_random_processes_are_seed_deterministic():
    p1 = random_link_flaps(random.Random(7), "a", "b", 100.0, 10.0, 1.0)
    p2 = random_link_flaps(random.Random(7), "a", "b", 100.0, 10.0, 1.0)
    assert p1 == p2
    assert all(f.at_s < 100.0 and f.duration_s > 0 for f in p1.link_faults)

    d1 = random_depot_crashes(random.Random(7), "h", 100.0, 10.0, 1.0)
    d2 = random_depot_crashes(random.Random(8), "h", 100.0, 10.0, 1.0)
    assert all(f.at_s < 100.0 and f.duration_s > 0 for f in d1.depot_faults)
    assert d1 != d2  # different seeds sample different schedules


def test_random_process_validation():
    with pytest.raises(ValueError):
        random_link_flaps(random.Random(1), "a", "b", -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        random_depot_crashes(random.Random(1), "h", 10.0, 0.0, 1.0)
