"""``sim_cascade``: the seeded Case-1 64 MB direct + LSL pair.

The historic pin. All work is ``repro.sim`` kernel -> ``repro.net`` ->
``repro.tcp`` -> ``repro.lsl`` sim adapters, reached through
``repro.experiments.transfer``; no sockets, virtual payload.

Lane 1 is the direct transfer (~1.3 s of wall time), lane 2 the LSL
cascade (~4.3 s). A run holds three or four repetitions of the pair;
the repetitions are the estimator's windows.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List, Tuple

from repro.experiments.scenarios import case1_uiuc_via_denver
from repro.experiments.transfer import run_direct_transfer, run_lsl_transfer
from repro.sim import Simulator, Timer

from bench.harness import Spans, Tally, check
from bench.workload import Measured, Op, Workload, probe

SIZE = 64 << 20
WARM_SIZE = 1 << 20
PIN_DIRECT_S = 54.0810886400039
PIN_LSL_S = 24.527407335032155

LAYER = "repro.sim"


class SimCascade(Workload):
    LANES = ("direct", "lsl")
    LAYER_METRICS = (
        "sim.events_total", "sim.events_per_s", "sim.direct_wall_s",
        "sim.lsl_wall_s", "tcp.retransmits", "sim.kernel_10k_chain_ms",
        "sim.timer_rearm_5k_ms",
    )

    def setup(self) -> None:
        self.scenario = case1_uiuc_via_denver()
        #: per lane, what its first full-size repetition reported
        self.first: Dict[str, Tuple[float, int, int]] = {}

    def warm_up(self) -> None:
        # small transfers: same code paths, a fraction of a pair's 6 s
        for _ in range(self.WARMUPS):
            self.run(run_direct_transfer, WARM_SIZE, "warm", Spans(False))
            self.run(run_lsl_transfer, WARM_SIZE, "warm", Spans(False))

    def run(self, transfer, size: int, name: str, spans: Spans):
        env = self.scenario.build(self.seed)
        # every repetition starts from the same collector state: without
        # this the full collections the simulator's garbage triggers
        # fall into every third direct transfer (+12 %) and no other
        gc.collect()
        with spans.span(name, LAYER):
            start = time.perf_counter()
            result = transfer(self.scenario, size, seed=self.seed, env=env)
            seconds = time.perf_counter() - start
        return seconds, result, env.net.sim.events_processed

    def lane_ops(self, spans: Spans) -> List[Op]:
        return [lambda: self.direct(spans), lambda: self.lsl(spans)]

    def direct(self, spans: Spans) -> float:
        seconds, result, events = self.run(
            run_direct_transfer, SIZE, "run_direct_transfer", spans
        )
        with spans.span("verify", "harness"):
            check(result.completed, f"direct: {result.error}")
            retransmits = result.client_trace.retransmit_count()
            self.same("direct", result.duration_s, events, retransmits, PIN_DIRECT_S)
        return seconds

    def lsl(self, spans: Spans) -> float:
        seconds, result, events = self.run(
            run_lsl_transfer, SIZE, "run_lsl_transfer", spans
        )
        with spans.span("verify", "harness"):
            check(result.completed, f"lsl: {result.error}")
            check(result.digest_ok, "lsl digest mismatch")
            retransmits = sum(
                t.retransmit_count()
                for t in [result.client_trace] + result.sublink_traces
            )
            self.same("lsl", result.duration_s, events, retransmits, PIN_LSL_S)
        return seconds

    def same(
        self, lane: str, duration_s: float, events: int, retransmits: int,
        pin: float,
    ) -> None:
        """The pin at seed 0; at every seed, repetitions bit-identical."""
        if self.seed == 0:
            check(duration_s == pin, f"sim pin broken: {lane} {duration_s!r}")
        got = (duration_s, events, retransmits)
        first = self.first.setdefault(lane, got)
        check(got == first, f"{lane} repetitions differ: {got} {first}")

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        direct_wall, lsl_wall = (lane.value for lane in base.lanes)
        events = self.first["direct"][1] + self.first["lsl"][1]
        return {
            "sim.events_total": events,
            "sim.events_per_s": events / (direct_wall + lsl_wall),
            "sim.direct_wall_s": direct_wall,
            "sim.lsl_wall_s": lsl_wall,
            "tcp.retransmits": self.first["direct"][2] + self.first["lsl"][2],
            "sim.kernel_10k_chain_ms": probe(kernel_chain, 0.5, tally) * 1e3,
            "sim.timer_rearm_5k_ms": probe(timer_rearm, 0.5, tally) * 1e3,
        }


# The two loops of benchmarks/bench_core_primitives.py, re-timed here.


def kernel_chain() -> float:
    t0 = time.perf_counter()
    sim = Simulator()

    def chain(n: int) -> None:
        if n:
            sim.schedule(0.001, chain, n - 1)

    sim.schedule(0.0, chain, 10_000)
    sim.run()
    return time.perf_counter() - t0


def timer_rearm() -> float:
    t0 = time.perf_counter()
    sim = Simulator()
    timer = Timer(sim, lambda: None)
    timer.start(1.0)
    for i in range(5000):
        sim.schedule(i * 1e-4, timer.restart, 1.0)
    sim.run()
    return time.perf_counter() - t0
