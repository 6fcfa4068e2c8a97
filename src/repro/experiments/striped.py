"""Run one measured *striped* (multipath) transfer in the simulator.

The striped transfer deals stripes across several routes at once
(:mod:`repro.lsl.striped`); this runner adds the operational loop
around it:

- an optional :class:`~repro.faults.plan.FaultPlan` kills depots or
  flaps links mid-transfer — under ``duplicate-k`` redundancy the
  session completes with **zero resume round-trips** because the
  survivors already carry coverage;
- ``replan=True`` wires the online re-planner
  (:mod:`repro.logistics.replan`): a periodic prober feeds empirical
  loss into the monitor, a route watch re-ranks on every sample, and
  sublinks whose route falls out of the top-N migrate mid-transfer;
- every protocol event is counted (and bridged to the telemetry plane
  when one is attached), so results report redundant stripes,
  re-deals, migrations, discarded duplicates, and — crucially for the
  comparison against :func:`~repro.experiments.transfer.run_failover_transfer`
  — how many ``resume-granted`` round-trips the run needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.scenarios import (
    DEPOT_PORT,
    SERVER_PORT,
    Scenario,
    ScenarioEnv,
)
from repro.experiments.transfer import (
    DEFAULT_DEADLINE_S,
    _telemetry_begin,
    _telemetry_finish,
)
from repro.faults.plan import FaultPlan
from repro.logistics.monitor import NetworkMonitor
from repro.logistics.planner import DepotPlanner
from repro.logistics.replan import PathProber, StripedReplanner
from repro.lsl.core.events import ProtocolEvent
from repro.lsl.core.striping import DEFAULT_STRIPE
from repro.lsl.core.session import new_session_id
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.telemetry import Telemetry
from repro.telemetry.protocol import protocol_observer


@dataclass
class StripedTransferResult:
    """Outcome of one measured striped transfer."""

    nbytes: int
    duration_s: float
    completed: bool
    digest_ok: Optional[bool] = None
    error: Optional[str] = None
    #: Data payload carried per sublink, in sublink-creation order
    #: (migration replacements appended at the end).
    per_sublink_bytes: List[int] = field(default_factory=list)
    redundant_stripes: int = 0
    redeals: int = 0
    migrations: int = 0
    duplicate_bytes: int = 0
    reconstructed_blocks: int = 0
    #: Protocol events by kind, both ends combined.
    event_counts: Dict[str, int] = field(default_factory=dict)
    telemetry: Optional[Telemetry] = None
    mode: str = "lsl-striped"

    @property
    def resume_queries(self) -> int:
        """Negotiated-resume round-trips the run needed (the striped
        degrade path needs none; the failover baseline needs >= 1 per
        mid-transfer loss)."""
        return self.event_counts.get("resume-granted", 0)

    @property
    def throughput_mbps(self) -> float:
        if not self.completed or self.duration_s <= 0:
            return 0.0
        return self.nbytes * 8.0 / self.duration_s / 1e6


def run_striped_transfer(
    scenario: Scenario,
    nbytes: int,
    n_routes: int = 2,
    redundancy: str = "none",
    stripe_bytes: int = DEFAULT_STRIPE,
    fault_plan: Optional[FaultPlan] = None,
    replan: bool = False,
    probe_interval_s: float = 0.5,
    seed: int = 0,
    deadline_s: float = DEFAULT_DEADLINE_S,
    env: Optional[ScenarioEnv] = None,
    telemetry: Optional[Telemetry] = None,
) -> StripedTransferResult:
    """One striped transfer across the scenario's candidate routes.

    The first ``n_routes`` rungs of the scenario's failover ladder
    become sublinks (cycling when the ladder is shorter), so a
    depot-failure scenario stripes across primary depot, warm spare,
    and the direct path.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if n_routes <= 0:
        raise ValueError("need at least one route")
    if env is None:
        env = scenario.build(seed)
    net = env.net
    if fault_plan is not None:
        fault_plan.arm(net, env.depots)

    candidates = scenario.candidate_routes
    routes = [candidates[i % len(candidates)] for i in range(n_routes)]

    done: Dict[str, object] = {}
    counts: Dict[str, int] = {}

    tel, tel_outdir = _telemetry_begin(
        env, telemetry, lambda: "t" not in done and "error" not in done
    )
    tel_observer = protocol_observer(tel, "striped") if tel else None

    def observer(event: ProtocolEvent) -> None:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if tel_observer is not None:
            tel_observer(event)

    def on_session(sess) -> None:
        def complete(s) -> None:
            done["t"] = net.sim.now
            done["digest_ok"] = s.digest_ok
            done["duplicate_bytes"] = s.assembler.duplicate_bytes
            done["reconstructed"] = s.assembler.reconstructed_blocks

        sess.on_complete = complete
        sess.on_error = lambda e: done.setdefault("error", str(e))

    StripedLslServer(
        env.server_stack, SERVER_PORT, on_session, observer=observer
    )
    data: Optional[bytes] = None
    if redundancy == "parity":
        # parity XOR needs real payload bytes; materialize the same
        # deterministic pattern the real-payload transfers use
        from repro.experiments.transfer import _PATTERN

        reps = nbytes // len(_PATTERN) + 1
        data = (_PATTERN * reps)[:nbytes]
    client = StripedClient(
        env.client_stack,
        routes,
        payload_length=nbytes,
        data=data,
        stripe_bytes=stripe_bytes,
        redundancy=redundancy,
        session_id=new_session_id(net.rng.stream("lsl-session-ids")),
        on_error=lambda e: done.setdefault("error", str(e)),
        observer=observer,
    )

    replanner: Optional[StripedReplanner] = None
    prober: Optional[PathProber] = None
    if replan:
        monitor = NetworkMonitor(net)
        depot_hosts = [*scenario.depots, *scenario.backup_depots]
        planner = DepotPlanner(monitor, depot_hosts)
        replanner = StripedReplanner(
            client,
            planner,
            scenario.client,
            scenario.server,
            depot_port=DEPOT_PORT,
            server_port=SERVER_PORT,
            max_routes=n_routes,
        )
        prober = PathProber(
            monitor,
            PathProber.legs_for(
                scenario.client, scenario.server, depot_hosts
            ),
            interval_s=probe_interval_s,
        )

    net.sim.run(until=deadline_s)

    if replanner is not None:
        replanner.close()
    if prober is not None:
        prober.close()

    completed = "t" in done
    result = StripedTransferResult(
        nbytes=nbytes,
        duration_s=float(done["t"]) if completed else deadline_s,  # type: ignore[arg-type]
        completed=completed,
        digest_ok=bool(done["digest_ok"]) if completed else None,
        error=None if completed else str(
            done.get("error", "deadline exceeded")
        ),
        per_sublink_bytes=client.per_sublink_bytes(),
        redundant_stripes=client.scheduler.redundant_stripes,
        redeals=client.scheduler.redeals,
        migrations=client.scheduler.migrations,
        duplicate_bytes=int(done.get("duplicate_bytes", 0)),  # type: ignore[arg-type]
        reconstructed_blocks=int(done.get("reconstructed", 0)),  # type: ignore[arg-type]
        event_counts=counts,
    )
    _telemetry_finish(tel, tel_outdir, result, seed)
    return result
