"""Robustness under faults: goodput degradation vs fault rate.

The paper's availability story (Section VI) is qualitative; with the
simulator we can measure it. One transfer runs through the depot
cascade while the primary depot suffers 0, 1 or 2 crash/restart cycles
("flaps") spread across the transfer window; the client fails over to
the warm-spare depot and resumes from the server's negotiated offset.
Reported per fault rate: goodput (delivered payload over wall-clock
including every retry and backoff) and the recovery accounting.

Quick mode: the conftest's default ``REPRO_MAX_SIZE=8M`` keeps this
under a few seconds; a full run (``REPRO_MAX_SIZE=64M``) reproduces
the acceptance bound at the paper's transfer scale.
"""

import os

import pytest

from repro.experiments.scenarios import SCENARIOS
from repro.experiments.transfer import run_failover_transfer
from repro.faults import DepotFault, FaultPlan
from repro.lsl.core.session import BackoffPolicy
from repro.util.units import fmt_bytes, parse_size

FAULT_RATES = (0, 1, 2)  # depot flaps per transfer


def _size() -> int:
    cap = parse_size(os.environ.get("REPRO_MAX_SIZE", "8M"))
    return min(cap, 64 << 20)


def _flap_plan(flaps: int, window_s: float, outage_s: float) -> FaultPlan:
    """``flaps`` crash/restart cycles spread evenly over the window."""
    faults = [
        DepotFault(
            "denver-depot",
            window_s * (k + 1) / (flaps + 1),
            outage_s,
        )
        for k in range(flaps)
    ]
    return FaultPlan.of(*faults)


@pytest.mark.benchmark(group="robustness")
def test_goodput_vs_depot_fault_rate(benchmark):
    scenario = SCENARIOS["depot-failure"]()
    nbytes = _size()
    backoff = BackoffPolicy(base_s=0.2, max_s=2.0)

    def sweep():
        out = {}
        clean = run_failover_transfer(
            scenario, nbytes, deadline_s=600.0, backoff=backoff
        )
        out[0] = clean
        for flaps in FAULT_RATES[1:]:
            plan = _flap_plan(
                flaps, window_s=clean.duration_s, outage_s=1.0
            )
            out[flaps] = run_failover_transfer(
                scenario, nbytes, fault_plan=plan, deadline_s=600.0,
                backoff=backoff,
            )
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print(f"  {fmt_bytes(_size())} through the Case 1 cascade:")
    for flaps, r in sorted(results.items()):
        print(
            f"  {flaps} flap(s): {r.throughput_mbps:6.2f} Mbit/s goodput, "
            f"{r.attempts} attempt(s), {r.failovers} failover(s), "
            f"digest={'ok' if r.digest_ok else 'FAIL'}"
        )

    clean = results[0]
    assert clean.completed and clean.attempts == 1
    for flaps, r in results.items():
        assert r.completed, f"{flaps} flaps: {r.error}"
        assert r.digest_ok is True
        assert r.bytes_delivered == nbytes
    # the acceptance bound: goodput within 2x of fault-free at 1 flap
    assert results[1].duration_s <= 2.0 * clean.duration_s
    # more faults never help
    assert results[1].duration_s >= clean.duration_s
