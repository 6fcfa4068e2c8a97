"""Session failover: backoff policy, negotiated resume, recovery runs."""

import random

import pytest

from repro.experiments.scenarios import SCENARIOS
from repro.experiments.transfer import run_failover_transfer
from repro.faults import DepotFault, FaultPlan, LinkFault
from repro.lsl.client import (
    FailoverTransfer,
    lsl_connect,
    lsl_rebind,
    virtual_digest_factory,
)
from repro.lsl.core.errors import LslError, RouteError
from repro.lsl.core.session import BackoffPolicy, new_session_id
from tests.helpers import two_host_net
from tests.lsl.conftest import LslWorld
from tests.lsl.test_client_server import drive

MIB = 1024 * 1024


# -- backoff policy ---------------------------------------------------------


def test_backoff_progression_and_cap():
    b = BackoffPolicy(base_s=0.2, factor=2.0, max_s=5.0, jitter=0.0)
    assert b.delay(0) == pytest.approx(0.2)
    assert b.delay(1) == pytest.approx(0.4)
    assert b.delay(3) == pytest.approx(1.6)
    assert b.delay(10) == pytest.approx(5.0)  # truncated
    assert b.delay(-1) == pytest.approx(0.2)  # clamped


def test_backoff_jitter_bounds():
    b = BackoffPolicy(jitter=0.1)
    rng = random.Random(3)
    for attempt in range(8):
        base = min(0.2 * 2.0 ** attempt, 5.0)
        d = b.delay(attempt, rng)
        assert 0.9 * base <= d <= 1.1 * base


def test_backoff_validation():
    with pytest.raises(ValueError):
        BackoffPolicy(base_s=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(max_s=0.01)  # below base
    with pytest.raises(ValueError):
        BackoffPolicy(jitter=1.5)


# -- negotiated resume (FLAG_RESUME_QUERY) ----------------------------------


def test_resume_query_requires_sync():
    world = LslWorld()
    with pytest.raises(LslError):
        lsl_rebind(
            world.stacks["client"],
            world.route_direct,
            session_id=bytes(16),
            resume_offset=0,
            payload_length=10,
            sync=False,
            resume_query=True,
            digest_factory=virtual_digest_factory,
        )


def test_resume_query_negotiates_server_offset():
    """Kill a sublink mid-transfer, rebind asking the server where to
    resume, and finish the payload with the digest intact."""
    world = LslWorld()
    sid = new_session_id(random.Random(11))
    total = 200_000
    conn = lsl_connect(
        world.stacks["client"],
        world.route_direct,
        payload_length=total,
        session_id=sid,
    )
    sent = {"n": 0}

    def pump():
        # push only the first half, then go quiet
        room = min(120_000 - sent["n"], total - sent["n"])
        if room > 0:
            sent["n"] += conn.send_virtual(room)

    conn.on_writable = pump
    conn._user_on_connected = pump
    world.run(until=5.0)
    assert sent["n"] == 120_000
    conn.sock.abort()  # simulated sublink loss
    world.run(until=10.0)

    record = world.server.registry.get(sid)
    assert record is not None
    server_has = record.bytes_received
    assert 0 < server_has <= 120_000

    conn2 = lsl_rebind(
        world.stacks["client"],
        world.route_direct,
        session_id=sid,
        resume_offset=0,
        payload_length=total,
        resume_query=True,
        digest_factory=virtual_digest_factory,
    )
    def pump2():
        if conn2.bytes_sent < total:
            conn2.send_virtual(total - conn2.bytes_sent)
        if conn2.bytes_sent == total:
            conn2.finish()
            conn2.on_writable = None

    conn2.on_writable = pump2
    conn2._user_on_connected = pump2
    world.run(until=60.0)

    assert conn2.granted_offset == server_has
    assert len(world.completed) == 1
    assert world.completed[0].payload_received == total
    assert world.completed[0].digest_ok is True


# -- FailoverTransfer unit behaviour ----------------------------------------


def test_failover_requires_routes_and_positive_size():
    net, sa, _ = two_host_net()
    with pytest.raises(RouteError):
        FailoverTransfer(sa, [], 100)
    with pytest.raises(ValueError):
        FailoverTransfer(sa, [[("b", 5000)]], -1)


def test_failover_exhausts_attempts_on_dead_route():
    net, sa, _ = two_host_net()  # nothing listens on b
    outcome = []
    xfer = FailoverTransfer(
        sa,
        [[("b", 7000)]],
        1000,
        backoff=BackoffPolicy(base_s=0.05, max_s=0.2, jitter=0.0),
        max_attempts=3,
        on_done=outcome.append,
    )
    net.sim.run(until=120.0)
    assert xfer.failed is not None
    assert not xfer.done
    assert xfer.attempts == 3
    assert outcome and outcome[0] is not None
    net.sim.run(until=600.0)
    assert net.sim.pending_count == 0  # no stray retry timers


def test_failover_fault_free_completes_on_primary_route():
    sc = SCENARIOS["depot-failure"]()
    r = run_failover_transfer(sc, 2 * MIB, deadline_s=120.0)
    assert r.completed and r.digest_ok
    assert r.attempts == 1 and r.failovers == 0
    assert r.bytes_delivered == 2 * MIB


def test_failover_rides_out_link_flap_without_route_switch():
    sc = SCENARIOS["depot-failure"]()
    plan = FaultPlan.of(LinkFault("ucsb", "denver-pop", 0.5, 0.3))
    r = run_failover_transfer(sc, 2 * MIB, fault_plan=plan, deadline_s=120.0)
    assert r.completed and r.digest_ok
    assert r.failovers == 0  # TCP retransmission absorbs a short flap


def test_failover_requeries_route_provider_on_retry():
    """Regression: the candidate list must not be a plan-time snapshot.
    With ``route_provider``, each retry runs on a freshly ranked ladder
    — here the provider drops the dead route after the first failure,
    so the transfer completes on the live route instead of burning
    attempts round-robin on the stale one."""
    world = LslWorld()
    dead = [[("server", 9999)]]
    rankings = {"current": dead}
    xfer = FailoverTransfer(
        world.stacks["client"],
        dead,  # plan-time snapshot: only the dead route
        200_000,
        backoff=BackoffPolicy(base_s=0.05, max_s=0.2, jitter=0.0),
        max_attempts=4,
    )

    def provider():
        return rankings["current"]

    xfer.route_provider = provider
    # the forecast flips while the first attempt is failing
    rankings["current"] = [world.route_direct, [("server", 9999)]]
    world.run(until=120.0)
    assert xfer.done, xfer.failed
    assert xfer.replans == 1
    assert xfer.attempts == 2  # one failure, then the fresh ladder
    assert world.completed and world.completed[0].digest_ok is True


def test_failover_without_provider_keeps_snapshot():
    world = LslWorld()
    xfer = FailoverTransfer(
        world.stacks["client"],
        [[("server", 9999)]],
        1000,
        backoff=BackoffPolicy(base_s=0.05, max_s=0.2, jitter=0.0),
        max_attempts=3,
    )
    world.run(until=120.0)
    assert xfer.failed is not None
    assert xfer.replans == 0


# -- the acceptance run -----------------------------------------------------


def test_acceptance_64mib_depot_crash_mid_transfer():
    """64 MiB through the 2-hop cascade; the primary depot crashes
    mid-transfer; the session must fail over to the warm spare, resume
    from the server's offset, and deliver a verified payload at goodput
    within 2x of the fault-free run."""
    nbytes = 64 * MIB
    sc = SCENARIOS["depot-failure"]()

    clean = run_failover_transfer(sc, nbytes, deadline_s=600.0)
    assert clean.completed and clean.digest_ok
    assert clean.attempts == 1 and clean.failovers == 0

    crash_at = clean.duration_s / 2.0  # genuinely mid-transfer
    plan = FaultPlan.of(DepotFault(sc.depots[0], crash_at))
    faulty = run_failover_transfer(sc, nbytes, fault_plan=plan, deadline_s=600.0)

    assert faulty.completed, faulty.error
    assert faulty.failovers >= 1 and faulty.attempts >= 2
    # delivered bytes are contiguous and complete, digest verified
    assert faulty.bytes_delivered == nbytes
    assert faulty.digest_ok is True
    # goodput within 2x of fault-free at one fault per transfer
    assert faulty.duration_s <= 2.0 * clean.duration_s
