"""``bulk`` and ``session_churn``: whole transfers over loopback
sockets, client -> depots -> server, on both real-socket drivers.

The two lanes are the two drivers: the same seeded payload through the
threaded stack (``repro.sockets``, lane 1) and through the asyncio
stack (``repro.asockets``, lane 2), taking turns, each reported on its
own; the traced run adds ``threads.*`` and ``asyncio.*`` layer metrics.

``bulk``: 16 MiB digested transfers through 2 cascaded depots. Relay
pumps, ``StreamDigest`` and receiver delivery do the work; session
set-up is under 1 % of an operation, so a set-up change must not move
it. ``session_churn``: 4 KiB sessions through 1 depot. The cost is
connect/accept, header encode/parse, ``ClientHandshake``, ``RelayCore``,
``SessionAcceptor.decide``, thread or task spawn and teardown; bytes
are negligible, so a pump change must not move it.

Servers keep every finished session's payload alive (``results`` and
``record.attachment``): 83 x 16 MiB through one server reaches 1.4 GB
RSS and goodput falls from ~250 to ~110 MB/s. So a stack serves a
bounded number of operations, then is shut down, dropped and collected
(harness rule 4) -- outside the timed region. For ``bulk`` the number
is one: already from the first to the sixth 16 MiB transfer on a stack
an operation slows by 10 % (78 -> 88 ms on threads, 88 -> 105 ms on
asyncio: the allocator must grow the heap for what the server retains
instead of reusing what the last stack freed), so with a stack per six
the windows' medians depend on where in the cycle they fall.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import Dict, List

from bench.drivers import DRIVERS, Delivery, Lane, Stack
from bench.harness import (
    MB,
    MIB,
    CheckFailed,
    Spans,
    Tally,
    check,
    closed_loop,
    rss_bytes,
    seeded_payload,
)
from bench.workload import Measured, Op, Workload, median_ms, probe

BULK_BYTES = 16 * MIB
BULK_DEPOTS = 2
BULK_RECYCLE = 1
CHURN_BYTES = 4096
CHURN_DEPOTS = 1
CHURN_RECYCLE = 5000
RSS_PROBE_BYTES = 64 * MIB
STRIPED_BYTES = 8 * MIB
STRIPED_SUBLINKS = 3
STRIPED_REDUNDANCY = "duplicate-1"
LAG_SAMPLES = 100


def verify(delivery: Delivery, session_id: bytes, payload: bytes) -> None:
    result = delivery.result
    check(result.session_id == session_id, "another session was delivered")
    check(len(result.payload) == len(payload), "delivered length differs")
    check(result.digest_ok is True, "digest not verified")
    check(result.payload == payload, "delivered bytes differ")


class StackLane(Lane):
    """A lane and its current server + depots."""

    def __init__(self, name: str, seed: int, depots: int) -> None:
        super().__init__(name, seed)
        self.stack: Stack = self.driver.stack(depots)

    def fresh_stack(self, depots: int) -> None:
        self.stack.close()
        del self.stack
        gc.collect()
        self.stack = self.driver.stack(depots)
        self.served = 0

    def close(self) -> None:
        self.stack.close()
        del self.stack
        gc.collect()
        super().close()


class Transfers(Workload):
    """Back-to-back transfers of one seeded payload, the drivers taking
    turns; each lane's stack is recycled every ``recycle`` operations."""

    LANES = tuple(DRIVERS)
    nbytes: int
    depots: int
    recycle: int

    def setup(self) -> None:
        self.payload = seeded_payload(self.seed, "payload", self.nbytes)
        self.lanes = [
            StackLane(name, self.seed, self.depots) for name in DRIVERS
        ]

    def teardown(self) -> None:
        for lane in self.lanes:
            lane.close()

    def lane_ops(self, spans: Spans) -> List[Op]:
        return [lambda lane=lane: self.leg(lane, spans) for lane in self.lanes]

    def leg(self, lane: StackLane, spans: Spans) -> float:
        if lane.served >= self.recycle:
            with spans.span("recycle", "harness"):
                lane.fresh_stack(len(lane.stack.depots))
        lane.served += 1
        return self.transfer(lane, spans)

    def transfer(self, lane: StackLane, spans: Spans) -> float:
        session_id = lane.next_id()
        delivery = lane.driver.transfer(
            lane.stack.route, self.payload, session_id, spans
        )
        with spans.span("verify", "harness"):
            verify(delivery, session_id, self.payload)
        if spans.enabled:
            lane.keep(delivery)
        return delivery.delivered - delivery.start

    def phase_metrics(self, lane: StackLane) -> Dict[str, float]:
        """Where an operation's time goes, from the traced loop."""
        runs = lane.deliveries
        return {
            f"{lane.name}.connect_to_grant_ms": median_ms(
                [d.granted - d.start for d in runs]
            ),
            f"{lane.name}.send_ms": median_ms([d.sent - d.granted for d in runs]),
            f"{lane.name}.finish_to_delivered_ms": median_ms(
                [d.delivered - d.sent for d in runs]
            ),
        }

    def depot_counters(self, lane: StackLane) -> Dict[str, float]:
        """Summed over the lane's current depots, once their relays
        have drained (counters are posted when a relay ends)."""
        deadline = time.monotonic() + 5.0
        depots = lane.stack.depots
        while (
            any(d.counters.active_sessions for d in depots)
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        snaps = [d.counters.snapshot() for d in depots]
        return {
            f"{lane.name}.depot.{name}": sum(s[name] for s in snaps)
            for name in ("bytes_relayed", "sessions_completed", "sessions_failed")
        }


def per_driver(*names: str) -> tuple:
    return tuple(f"{driver}.{name}" for driver in DRIVERS for name in names)


PHASES = ("connect_to_grant_ms", "send_ms", "finish_to_delivered_ms")
DEPOT_COUNTERS = (
    "depot.bytes_relayed", "depot.sessions_completed", "depot.sessions_failed",
)


class Bulk(Transfers):
    nbytes = BULK_BYTES
    depots = BULK_DEPOTS
    recycle = BULK_RECYCLE
    LAYER_METRICS = ("rss_amplification_x",) + per_driver(
        "rss_amplification_x", "relay_MBps", "relay_h0_MBps", "relay_h1_MBps",
        "relay_h2_MBps", "hop_cost_ms_per_MiB", "cpu_s_per_GB", "peak_threads",
        "striped_MBps", "striped_sublink_skew", "striped_redundant_stripes",
        *PHASES, *DEPOT_COUNTERS,
    )

    def fresh_layers(self, tally: Tally) -> Dict[str, float]:
        """Peak RSS growth of one 64 MiB transfer through 1 depot over
        its payload size, the larger of the two drivers: 2.00 while the
        server buffers every chunk and joins them. Taken first, in a
        heap nothing has fragmented yet (RSS of a long loop wanders
        300-450 MB; this repeats)."""
        payload = seeded_payload(self.seed, "rss-probe", RSS_PROBE_BYTES)
        out: Dict[str, float] = {}
        for name in DRIVERS:
            lane = StackLane(name, self.seed, 1)
            session_id = lane.next_id()
            tally.attempted += 1
            delivery = None
            try:
                gc.collect()
                before = rss_bytes()
                delivery = lane.driver.transfer(
                    lane.stack.route, payload, session_id, Spans(enabled=False)
                )
                # the server still holds the chunks and the joined
                # payload: resident now is the transfer's peak
                growth = rss_bytes() - before
                verify(delivery, session_id, payload)
                out[f"{name}.rss_amplification_x"] = growth / len(payload)
            except CheckFailed as exc:
                tally.fail(exc)
            finally:
                del delivery
                lane.close()
        if out:
            out["rss_amplification_x"] = max(out.values())
        return out

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        quiet = Spans(enabled=False)
        out: Dict[str, float] = {}
        share = seconds / (4 * len(self.lanes))
        for lane, estimate in zip(self.lanes, base.lanes):
            prefix = lane.name
            out.update(self.phase_metrics(lane))
            lane.deliveries.clear()
            out[f"{prefix}.relay_MBps"] = self.nbytes / estimate.value / MB

            # relay goodput and CPU at 0, 1 and 2 depots
            per_op: Dict[int, float] = {}
            for hops in (0, 1, 2):
                lane.fresh_stack(hops)
                cpu_s, ops = 0.0, 0

                def leg() -> float:
                    nonlocal cpu_s, ops
                    before = time.process_time()
                    spent = self.leg(lane, quiet)
                    cpu_s += time.process_time() - before
                    ops += 1
                    return spent

                per_op[hops] = probe(leg, share, tally, 3)
                out[f"{prefix}.relay_h{hops}_MBps"] = (
                    self.nbytes / per_op[hops] / MB
                )
            # process CPU (all threads, verification included) per GB
            # through 2 depots
            out[f"{prefix}.cpu_s_per_GB"] = cpu_s / (ops * self.nbytes / 1e9)
            out[f"{prefix}.hop_cost_ms_per_MiB"] = (
                (per_op[2] - per_op[0]) / 2 * 1e3 / (self.nbytes / MIB)
            )
            out.update(self.depot_counters(lane))
            out[f"{prefix}.peak_threads"] = threading.active_count()
            out.update(self.striped(lane, share, tally))
            lane.fresh_stack(self.depots)
        return out

    def striped(self, lane: StackLane, seconds: float, tally: Tally) -> Dict[str, float]:
        """8 MiB over 3 direct sublinks, every stripe sent twice."""
        quiet = Spans(enabled=False)
        payload = seeded_payload(self.seed, "striped", STRIPED_BYTES)
        stack = lane.driver.striped_stack()
        routes = [stack.route] * STRIPED_SUBLINKS
        reports = []

        def one() -> float:
            session_id = lane.next_id()
            delivery = lane.driver.striped(
                routes, payload, session_id, STRIPED_REDUNDANCY, quiet
            )
            verify(delivery, session_id, payload)
            reports.append(delivery.report)
            return delivery.delivered - delivery.start

        try:
            per_op = probe(one, seconds, tally, 3)
        finally:
            stack.close()
            del stack
            gc.collect()
        return {
            f"{lane.name}.striped_MBps": len(payload) / per_op / MB,
            f"{lane.name}.striped_sublink_skew": statistics.median(
                max(r.per_sublink_bytes) / max(1, min(r.per_sublink_bytes))
                for r in reports
            ),
            f"{lane.name}.striped_redundant_stripes": statistics.median(
                r.redundant_stripes for r in reports
            ),
        }


class Churn(Transfers):
    nbytes = CHURN_BYTES
    depots = CHURN_DEPOTS
    recycle = CHURN_RECYCLE
    LAYER_METRICS = per_driver(
        "session_p50_ms", "session_p50_all_ms", "session_p90_ms",
        "session_p99_ms", "session_worst_window_ms", "sessions_per_s",
        "retained_kb_per_session", "wait_for_sessions_lag_ms", "peak_threads",
        *PHASES, *DEPOT_COUNTERS,
    )

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        quiet = Spans(enabled=False)
        out: Dict[str, float] = {}
        share = seconds / len(self.lanes)
        for lane, estimate in zip(self.lanes, base.lanes):
            prefix = lane.name
            out.update(self.phase_metrics(lane))
            lane.deliveries.clear()
            out[f"{prefix}.session_p50_ms"] = estimate.value * 1e3

            # the latency distribution and what one stack retains per
            # session, from one uninterrupted loop on a fresh stack
            lane.fresh_stack(self.depots)
            before = rss_bytes()
            phase = closed_loop(
                [lambda: self.transfer(lane, quiet)], share * 0.8, tally
            )
            retained = rss_bytes() - before
            times = phase.lanes[0].seconds
            check(len(times) >= 100, "too few sessions for percentiles")
            centiles = statistics.quantiles(times, n=100)
            windows = phase.estimate(0)
            out.update({
                f"{prefix}.session_p50_all_ms": windows.whole_run * 1e3,
                f"{prefix}.session_p90_ms": centiles[89] / phase.slowdown() * 1e3,
                f"{prefix}.session_p99_ms": centiles[98] / phase.slowdown() * 1e3,
                f"{prefix}.session_worst_window_ms": windows.worst_window * 1e3,
                f"{prefix}.sessions_per_s": len(times) / sum(times),
                f"{prefix}.retained_kb_per_session": retained / len(times) / 1e3,
                f"{prefix}.peak_threads": threading.active_count(),
            })
            out.update(self.depot_counters(lane))

            # what timing through wait_for_sessions would add: from the
            # on_session callback to wait_for_sessions returning
            lane.fresh_stack(self.depots)
            server = lane.stack.server
            lags = []
            for count in range(1, LAG_SAMPLES + 1):
                returned: List[float] = []
                waiter = threading.Thread(
                    target=lambda: (
                        server.wait_for_sessions(count),
                        returned.append(time.perf_counter()),
                    )
                )
                waiter.start()
                delivery = lane.driver.transfer(
                    lane.stack.route, self.payload, lane.next_id(), quiet
                )
                waiter.join()
                lags.append(returned[0] - delivery.delivered)
            out[f"{prefix}.wait_for_sessions_lag_ms"] = median_ms(lags)
        return out
