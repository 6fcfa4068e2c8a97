"""Depot and relay lifecycle edges: early FIN, aborts with CPU work
pending, shutdown with sessions in flight, admission refusal — asserting
the depot's counters agree with what happened and the simulator heap drains."""

from repro.lsl.client import lsl_connect
from tests.helpers import two_host_net
from tests.lsl.conftest import LslWorld
from tests.lsl.test_client_server import drive


def drain(world, until=600.0):
    """Run far past the interesting window; the heap must empty."""
    world.run(until=until)
    assert world.net.sim.pending_count == 0


def test_early_fin_during_dial_window_still_relays():
    """The client's FIN lands at the depot while the depot is still
    dialling the next hop (forced by a long per-session setup delay);
    the pumps must replay the peer-FIN state and finish the relay."""
    world = LslWorld(depot_kwargs=dict(session_setup_delay_s=0.2))
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=500
    )
    drive(conn, 500)
    world.run()
    assert len(world.completed) == 1
    assert world.completed[0].payload_received == 500
    assert world.completed[0].digest_ok is True
    assert world.depot.counters.sessions_completed == 1
    assert world.depot.counters.sessions_failed == 0
    drain(world)


def test_upstream_abort_with_cpu_batch_pending():
    """Abort the client sublink while the forward pump has a CPU batch
    in flight: the pump must cancel its scheduled completions and zero
    its byte accounting, and the depot must log one failed session."""
    world = LslWorld(
        depot_kwargs=dict(per_byte_cost_s=2e-7, fixed_delay_s=0.02)
    )
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=4_000_000
    )
    drive(conn, 4_000_000)
    world.run(until=0.4)
    assert world.depot.counters.active_sessions
    pump = next(iter(world.depot.sessions)).pump
    assert pump is not None
    assert pump._cpu_events or pump._processing_bytes > 0

    conn.sock.abort()
    world.run(until=60.0)
    assert not world.depot.counters.active_sessions
    assert world.depot.counters.sessions_failed == 1
    assert pump.finished
    assert pump._processing_bytes == 0
    assert pump._ready_bytes == 0
    assert not pump._cpu_events
    drain(world)


def test_shutdown_with_inflight_sessions_counts_aborts():
    world = LslWorld()
    conns = []
    for _ in range(2):
        c = lsl_connect(
            world.stacks["client"],
            world.route_via_depot,
            payload_length=10_000_000,
        )
        drive(c, 10_000_000)
        conns.append(c)
    world.run(until=0.5)
    assert world.depot.counters.active_sessions == 2

    world.depot.shutdown()
    assert not world.depot.counters.active_sessions
    assert world.depot.counters.sessions_failed == 2
    assert world.depot.counters.sessions_completed == 0
    world.run(until=60.0)
    assert not world.completed
    drain(world)


def test_max_sessions_refusal_and_recovery():
    world = LslWorld(depot_kwargs=dict(max_sessions=1))
    c1 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=5_000_000
    )
    drive(c1, 5_000_000)
    world.run(until=0.3)
    assert world.depot.counters.active_sessions == 1

    closed = []
    c2 = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=1_000
    )
    drive(c2, 1_000)
    c2.on_close = closed.append
    world.run(until=30.0)
    assert world.depot.counters.sessions_refused == 1
    assert closed and closed[0] is not None  # refused with a reset

    # the admitted session is unharmed and completes
    world.run(until=300.0)
    assert world.depot.counters.sessions_completed == 1
    assert len(world.completed) == 1 and world.completed[0].digest_ok
    drain(world)


def test_listener_close_during_handshake_resets_client():
    """A listener that closes while a handshake is half-open must RST
    the would-be connection, not strand it established-but-unserviced."""
    net, sa, sb = two_host_net(delay_ms=20.0)
    accepted = []
    listener = sb.socket()
    listener.listen(5000, accepted.append)

    closed = []
    sock = sa.socket()
    sock.on_close = closed.append
    sock.connect(("b", 5000))
    net.sim.run(until=0.03)  # SYN arrived; SYN|ACK in flight
    listener.close_listener()
    net.sim.run(until=30.0)
    assert not accepted
    assert closed and closed[0] is not None
    net.sim.run(until=600.0)
    assert net.sim.pending_count == 0
