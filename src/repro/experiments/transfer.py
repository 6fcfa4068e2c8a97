"""Run one measured transfer, direct TCP or LSL-cascaded.

Matches the paper's measurement method: "we did not rely on TCP packet
trace timings, but rather we observed the host to host throughput
empirically so as to include all additional overheads associated with
traversing the relevant intermediate depot" — the clock starts when
the client initiates the connection and stops when the server has the
complete, verified payload.

The **direct** baseline is plain TCP (no LSL header, no session ACK,
no digest): exactly what the paper compares against. The **LSL**
transfer uses the full session machinery: synchronous establishment
through the cascade, MD5 trailer, depot store-and-forward.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.scenarios import (
    DEPOT_PORT,
    SERVER_PORT,
    Scenario,
    ScenarioEnv,
)
from repro.faults.plan import FaultPlan
from repro.lsl.client import FailoverTransfer, lsl_connect
from repro.lsl.server import LslServer
from repro.lsl.core.session import BackoffPolicy, new_session_id
from repro.tcp.trace import ConnectionTrace
from repro.telemetry import Telemetry
from repro.telemetry.protocol import protocol_observer

#: Direct (plain-TCP) transfers listen here, away from the LSL server.
DIRECT_PORT = 5001

#: Give up on a run after this much simulated time.
DEFAULT_DEADLINE_S = 3600.0


@dataclass
class TransferResult:
    """Outcome of one measured transfer."""

    mode: str  # "direct" | "lsl" | "lsl-failover"
    nbytes: int
    duration_s: float
    completed: bool
    digest_ok: Optional[bool] = None
    client_trace: Optional[ConnectionTrace] = None
    #: Depot-outbound sublink traces, route order (LSL only).
    sublink_traces: List[ConnectionTrace] = field(default_factory=list)
    error: Optional[str] = None
    #: Recovery accounting (lsl-failover mode only).
    attempts: int = 1
    failovers: int = 0
    #: Server-side contiguous byte count (lsl-failover mode only).
    bytes_delivered: Optional[int] = None
    #: The run's telemetry plane, when one was attached.
    telemetry: Optional[Telemetry] = None

    @property
    def throughput_mbps(self) -> float:
        if not self.completed or self.duration_s <= 0:
            return 0.0
        return self.nbytes * 8.0 / self.duration_s / 1e6

    @property
    def throughput_bps(self) -> float:
        return self.throughput_mbps * 1e6

    @property
    def retransmits(self) -> int:
        total = 0
        if self.client_trace is not None:
            total += self.client_trace.retransmit_count()
        for t in self.sublink_traces:
            total += t.retransmit_count()
        return total


#: Distinguishes artifact files when one process runs many transfers.
_artifact_seq = itertools.count()


def _telemetry_begin(env, telemetry, sample_while):
    """Resolve the run's telemetry plane.

    An explicit ``telemetry=`` argument wins; otherwise the
    ``REPRO_TELEMETRY_OUT`` environment variable (set by the
    ``repro-lsl --telemetry-out`` flag) turns capture on and names the
    artifact directory. Returns ``(telemetry_or_none, outdir_or_none)``.
    """
    outdir = os.environ.get("REPRO_TELEMETRY_OUT")
    if telemetry is None:
        if not outdir:
            return None, None
        telemetry = Telemetry()
    if telemetry.enabled and telemetry.net is None:
        telemetry.attach(env.net, sample_while=sample_while)
        for depot in env.depots:
            telemetry.sampler.add_depot(depot)
            telemetry.register_exporter(
                f"depot.{depot.host_name}", lambda d=depot: vars(d.stats)
            )
    return telemetry, outdir


def _telemetry_finish(telemetry, outdir, result, seed) -> None:
    """Stop sampling, dump the recorder on failure, write artifacts."""
    if telemetry is None:
        return
    result.telemetry = telemetry
    if telemetry.enabled:
        if not result.completed:
            telemetry.flight_dump(
                "transfer-abort",
                detail={"mode": result.mode, "error": result.error},
            )
        if telemetry.sampler is not None:
            telemetry.sampler.stop()
    if outdir:
        name = (
            f"{result.mode}-{result.nbytes}B-seed{seed}-"
            f"{next(_artifact_seq)}"
        )
        telemetry.write(outdir, name)
        if telemetry.enabled:
            # per-transfer FlowReport rides along with the raw streams
            from repro.telemetry.diagnose import diagnose_telemetry

            report = diagnose_telemetry(
                telemetry,
                mode=result.mode,
                nbytes=result.nbytes,
                duration_s=result.duration_s,
                source=name,
                seed=seed,
            )
            flow_path = os.path.join(outdir, f"{name}.flow.json")
            with open(flow_path, "w") as fp:
                json.dump(report.to_dict(), fp, indent=2, sort_keys=True)
                fp.write("\n")


#: Repeating block for materialized (``payload="real"``) transfers:
#: deterministic, cheap to slice, and every byte value occurs.
_PATTERN = bytes(range(256)) * 256  # 64 KiB


def _real_payload_pump(send, nbytes: int, on_drained) -> object:
    """Pump that pushes ``nbytes`` of actual pattern bytes via ``send``
    (which returns the accepted count) and calls ``on_drained`` once."""
    pending = [nbytes]
    block = _PATTERN
    blen = len(block)

    def pump() -> None:
        while pending[0] > 0:
            off = (nbytes - pending[0]) % blen
            take = blen - off
            if take > pending[0]:
                take = pending[0]
            accepted = send(block[off : off + take])
            if accepted == 0:
                return
            pending[0] -= accepted
        if pending[0] == 0:
            pending[0] = -1  # fire completion exactly once
            on_drained()

    return pump


def _drive_client_payload(conn, nbytes: int, payload: str = "virtual") -> None:
    """Wire a pump that pushes ``nbytes`` of payload through an LSL
    client connection and finishes with the digest trailer.

    ``payload="virtual"`` (the default) moves lengths + running
    checksums only — no payload bytes exist, so memory stays
    proportional to the TCP windows and throughput-shape experiments
    scale to arbitrary sizes. ``payload="real"`` materializes a
    deterministic byte pattern end to end (MD5 over actual content);
    both modes produce the identical simulated timeline.
    """
    if payload == "virtual":
        pending = [nbytes]

        def pump() -> None:
            if pending[0] > 0:
                pending[0] -= conn.send_virtual(pending[0])
                if pending[0] == 0:
                    conn.finish()
            elif pending[0] == 0:
                conn.finish()

    elif payload == "real":
        pump = _real_payload_pump(conn.send, nbytes, conn.finish)
    else:
        raise ValueError(f"unknown payload mode {payload!r}")

    conn.on_writable = pump
    conn._user_on_connected = pump
    if conn.established:  # already up (e.g. rebind completed instantly)
        pump()


def run_lsl_transfer(
    scenario: Scenario,
    nbytes: int,
    seed: int = 0,
    deadline_s: float = DEFAULT_DEADLINE_S,
    env: Optional[ScenarioEnv] = None,
    telemetry: Optional[Telemetry] = None,
    payload: str = "virtual",
) -> TransferResult:
    """One LSL transfer along the scenario's depot route."""
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if env is None:
        env = scenario.build(seed)
    net = env.net

    # trace every depot's outbound sublink, in route order
    sublink_traces: List[ConnectionTrace] = []
    for depot in env.depots:
        def factory(header, d=depot):
            t = ConnectionTrace(label=f"sublink-from-{d.host_name}")
            sublink_traces.append(t)
            return t

        depot.trace_factory = factory

    done: Dict[str, object] = {}

    def on_session(conn) -> None:
        conn.on_readable = lambda: conn.recv()

        def complete(c) -> None:
            done["t"] = net.sim.now
            done["digest_ok"] = c.digest_ok

        conn.on_complete = complete
        conn.on_error = lambda e: done.setdefault("error", str(e))

    server = LslServer(env.server_stack, SERVER_PORT, on_session)

    tel, tel_outdir = _telemetry_begin(
        env, telemetry, lambda: "t" not in done and "error" not in done
    )
    session_id = new_session_id(net.rng.stream("lsl-session-ids"))
    root_span = None
    if tel is not None and tel.enabled:
        sid = session_id.hex()[:8]
        root_span = tel.spans.begin(
            f"session:{sid}", cat="lsl", group=sid,
            args={"nbytes": nbytes, "mode": "lsl"},
        )

    client_trace = ConnectionTrace(label="sublink-1")
    conn = lsl_connect(
        env.client_stack,
        scenario.lsl_route,
        payload_length=nbytes,
        trace=client_trace,
        session_id=session_id,
        parent_span=root_span,
    )
    conn.on_close = lambda err: done.setdefault(
        "error", str(err)
    ) if err is not None else None
    _drive_client_payload(conn, nbytes, payload)
    if tel is not None and tel.enabled and conn.sock.conn is not None:
        tel.sampler.add_tcp_connection(conn.sock.conn, "client")

    net.sim.run(until=deadline_s)

    if "t" in done:
        result = TransferResult(
            mode="lsl",
            nbytes=nbytes,
            duration_s=float(done["t"]),  # type: ignore[arg-type]
            completed=True,
            digest_ok=bool(done.get("digest_ok")),
            client_trace=client_trace,
            sublink_traces=sublink_traces,
        )
    else:
        result = TransferResult(
            mode="lsl",
            nbytes=nbytes,
            duration_s=deadline_s,
            completed=False,
            client_trace=client_trace,
            sublink_traces=sublink_traces,
            error=str(done.get("error", "deadline exceeded")),
        )
    if root_span is not None:
        tel.spans.end(
            root_span,
            args={"completed": result.completed,
                  "duration_s": result.duration_s},
        )
    _telemetry_finish(tel, tel_outdir, result, seed)
    return result


def run_failover_transfer(
    scenario: Scenario,
    nbytes: int,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    deadline_s: float = DEFAULT_DEADLINE_S,
    env: Optional[ScenarioEnv] = None,
    backoff: Optional[BackoffPolicy] = None,
    max_attempts: int = 10,
    telemetry: Optional[Telemetry] = None,
) -> TransferResult:
    """One fault-tolerant LSL transfer under an (optional) fault plan.

    The client climbs the scenario's ``candidate_routes`` ladder on
    failures, resuming from the server's authoritative offset; the
    clock keeps running through outages, so the result's throughput is
    *goodput* — delivered payload over wall-clock time including every
    retry and backoff wait.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if env is None:
        env = scenario.build(seed)
    net = env.net
    if fault_plan is not None:
        fault_plan.arm(net, env.depots)

    done: Dict[str, object] = {}

    def on_session(conn) -> None:
        conn.on_readable = lambda: conn.recv()

        def complete(c) -> None:
            done["t"] = net.sim.now
            done["digest_ok"] = c.digest_ok
            done["payload_received"] = c.payload_received
            xfer.mark_complete()

        conn.on_complete = complete
        conn.on_error = lambda e: done.setdefault("server_error", str(e))

    LslServer(env.server_stack, SERVER_PORT, on_session)

    tel, tel_outdir = _telemetry_begin(
        env,
        telemetry,
        lambda: "t" not in done and "client_error" not in done,
    )

    xfer = FailoverTransfer(
        env.client_stack,
        scenario.candidate_routes,
        nbytes,
        backoff=backoff if backoff is not None else BackoffPolicy(),
        max_attempts=max_attempts,
        on_done=lambda err: done.setdefault(
            "client_error", str(err)
        ) if err is not None else None,
    )

    net.sim.run(until=deadline_s)

    if "t" in done:
        result = TransferResult(
            mode="lsl-failover",
            nbytes=nbytes,
            duration_s=float(done["t"]),  # type: ignore[arg-type]
            completed=True,
            digest_ok=bool(done.get("digest_ok")),
            attempts=xfer.attempts,
            failovers=xfer.failovers,
            bytes_delivered=int(done["payload_received"]),  # type: ignore[arg-type]
        )
    else:
        result = TransferResult(
            mode="lsl-failover",
            nbytes=nbytes,
            duration_s=deadline_s,
            completed=False,
            attempts=xfer.attempts,
            failovers=xfer.failovers,
            error=str(
                done.get("client_error")
                or done.get("server_error")
                or "deadline exceeded"
            ),
        )
    _telemetry_finish(tel, tel_outdir, result, seed)
    return result


def run_direct_transfer(
    scenario: Scenario,
    nbytes: int,
    seed: int = 0,
    deadline_s: float = DEFAULT_DEADLINE_S,
    env: Optional[ScenarioEnv] = None,
    telemetry: Optional[Telemetry] = None,
    payload: str = "virtual",
) -> TransferResult:
    """One plain-TCP transfer over the default path (the baseline)."""
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    if env is None:
        env = scenario.build(seed)
    net = env.net

    done: Dict[str, object] = {}
    received = [0]

    def on_accept(sock) -> None:
        def drain() -> None:
            for chunk in sock.recv():
                received[0] += chunk.length
            if received[0] >= nbytes and "t" not in done:
                done["t"] = net.sim.now

        sock.on_readable = drain

        def peer_fin() -> None:
            drain()
            sock.close()

        sock.on_peer_fin = peer_fin

    listener = env.server_stack.socket()
    listener.listen(DIRECT_PORT, on_accept)

    tel, tel_outdir = _telemetry_begin(
        env, telemetry, lambda: "t" not in done and "error" not in done
    )
    root_span = None
    if tel is not None and tel.enabled:
        root_span = tel.spans.begin(
            "direct-transfer", cat="tcp", args={"nbytes": nbytes}
        )

    client_trace = ConnectionTrace(label="direct")
    csock = env.client_stack.socket()
    if payload == "virtual":
        pending = [nbytes]

        def pump() -> None:
            if pending[0] > 0:
                pending[0] -= csock.send_virtual(pending[0])
                if pending[0] == 0:
                    csock.close()

    elif payload == "real":
        pump = _real_payload_pump(csock.send, nbytes, csock.close)
    else:
        raise ValueError(f"unknown payload mode {payload!r}")

    csock.on_writable = pump
    csock.connect(
        (scenario.server, DIRECT_PORT), on_connected=pump, trace=client_trace
    )
    csock.on_close = lambda err: done.setdefault(
        "error", str(err)
    ) if err is not None else None
    if tel is not None and tel.enabled and csock.conn is not None:
        csock.conn.telemetry_span = root_span
        tel.sampler.add_tcp_connection(csock.conn, "client")
        cc_obs = protocol_observer(tel, "tcp-client", lambda: root_span)
        if cc_obs is not None:
            csock.conn.attach_cc_observer(cc_obs, "direct")

    net.sim.run(until=deadline_s)

    if "t" in done:
        result = TransferResult(
            mode="direct",
            nbytes=nbytes,
            duration_s=float(done["t"]),  # type: ignore[arg-type]
            completed=True,
            client_trace=client_trace,
        )
    else:
        result = TransferResult(
            mode="direct",
            nbytes=nbytes,
            duration_s=deadline_s,
            completed=False,
            client_trace=client_trace,
            error=str(done.get("error", "deadline exceeded")),
        )
    if root_span is not None:
        tel.spans.end(
            root_span,
            args={"completed": result.completed,
                  "duration_s": result.duration_s},
        )
    _telemetry_finish(tel, tel_outdir, result, seed)
    return result
