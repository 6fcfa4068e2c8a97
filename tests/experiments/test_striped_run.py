"""run_striped_transfer: multipath runs, redundancy, online re-planning."""

import pytest

from repro.experiments.scenarios import SCENARIOS
from repro.experiments.striped import StripedTransferResult, run_striped_transfer
from repro.experiments.transfer import run_failover_transfer
from repro.faults import DepotFault, FaultPlan, LinkFault
from repro.telemetry import Telemetry

MIB = 1 << 20


def test_striped_plain_completes_across_ladder():
    sc = SCENARIOS["depot-failure"]()
    r = run_striped_transfer(sc, 8 * MIB, n_routes=3, deadline_s=120.0)
    assert r.completed and r.digest_ok
    assert r.resume_queries == 0
    assert len(r.per_sublink_bytes) == 3
    assert all(b > 0 for b in r.per_sublink_bytes)
    assert sum(r.per_sublink_bytes) == 8 * MIB
    assert r.throughput_mbps > 0


def test_striped_rejects_bad_arguments():
    sc = SCENARIOS["depot-failure"]()
    with pytest.raises(ValueError):
        run_striped_transfer(sc, 0)
    with pytest.raises(ValueError):
        run_striped_transfer(sc, MIB, n_routes=0)


def test_duplicate1_rides_out_depot_kill_with_zero_resume():
    """The headline degrade path: the primary depot dies mid-transfer
    and the duplicate-covered session completes without a single
    negotiated-resume round-trip — against the failover baseline which
    must rebind and resume."""
    sc = SCENARIOS["depot-failure"]()
    plan = FaultPlan.of(DepotFault(sc.depots[0], 0.5))
    r = run_striped_transfer(
        sc, 8 * MIB, n_routes=3, redundancy="duplicate-1",
        fault_plan=plan, deadline_s=120.0,
    )
    assert r.completed, r.error
    assert r.digest_ok
    assert r.resume_queries == 0
    assert r.redundant_stripes > 0

    baseline = run_failover_transfer(
        sc, 8 * MIB, fault_plan=FaultPlan.of(DepotFault(sc.depots[0], 0.5)),
        deadline_s=120.0,
    )
    assert baseline.completed and baseline.failovers >= 1


def test_parity_reconstructs_after_depot_kill():
    sc = SCENARIOS["depot-failure"]()
    plan = FaultPlan.of(DepotFault(sc.depots[0], 0.5))
    r = run_striped_transfer(
        sc, 4 * MIB, n_routes=3, redundancy="parity",
        fault_plan=plan, deadline_s=120.0,
    )
    assert r.completed, r.error
    assert r.digest_ok
    assert r.resume_queries == 0


def test_replan_forecast_flip_triggers_migration():
    """Acceptance: a mid-transfer forecast flip (link fault seen by the
    prober) migrates at least one sublink — visible in the telemetry
    aggregate counter — and the payload still arrives byte-identical
    with zero resume round-trips."""
    sc = SCENARIOS["depot-failure"]()
    plan = FaultPlan.of(LinkFault("denver-pop", sc.depots[0], 0.5, 2.0))
    tel = Telemetry()
    r = run_striped_transfer(
        sc, 16 * MIB, n_routes=2, fault_plan=plan,
        replan=True, probe_interval_s=0.25,
        deadline_s=120.0, telemetry=tel,
    )
    assert r.completed, r.error
    assert r.digest_ok  # byte-identical: every stripe verified + MD5
    assert r.migrations >= 1
    assert r.resume_queries == 0
    counters = tel.metrics.snapshot()["counters"]
    assert counters["lsl.sublink_migrations"] >= 1
    assert counters["lsl.sublink_migrations"] == r.migrations


def test_replan_quiet_network_never_migrates_spuriously_after_warmup():
    """Without a fault the ranking may settle once (priors -> empirical)
    but the transfer must complete either way with the payload intact."""
    sc = SCENARIOS["depot-failure"]()
    r = run_striped_transfer(
        sc, 8 * MIB, n_routes=2, replan=True,
        probe_interval_s=0.25, deadline_s=120.0,
    )
    assert r.completed and r.digest_ok
    assert r.resume_queries == 0


def test_result_throughput_zero_when_incomplete():
    r = StripedTransferResult(nbytes=100, duration_s=1.0, completed=False)
    assert r.throughput_mbps == 0.0
    assert r.resume_queries == 0
