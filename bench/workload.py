"""What every workload provides, and the measurement they share."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from bench.harness import CheckFailed, Estimate, Spans, Tally, closed_loop

Op = Callable[[], float]  # one verified operation; returns its seconds


@dataclass
class Measured:
    """One timed phase: per lane the quiet-window estimate of an
    operation's seconds at reference host speed, the same as measured,
    and how fast the host ran the calibration loop meanwhile."""

    lanes: List[Estimate]
    raw: List[Estimate]
    host_slowdown: float  # median calibration time / the reference's
    ops: int


class Workload:
    """One set of inputs, made from ``seed``.

    A workload has two lanes: two kinds of operation that take turns in
    one closed loop (the two real-socket drivers; the simulator's direct
    and LSL transfers; the core's framed and parity paths) and are
    reported apart, as ``lane1_ms`` and ``lane2_ms``.

    ``setup`` makes the inputs and brings the program up; ``warm_up``
    runs three operations per lane (rule 6); both can be repeated after
    ``teardown``, which is how ``setup_s`` gets several samples in one
    run. ``layers`` (traced runs only) probes single layers; every name
    in ``LAYER_METRICS`` must come back from it.
    """

    LANES: Tuple[str, str]
    LAYER_METRICS: Tuple[str, ...] = ()
    WARMUPS = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def lane_ops(self, spans: Spans) -> List[Op]:
        """One operation per lane, in ``LANES`` order."""
        raise NotImplementedError

    def warm_up(self) -> None:
        for _ in range(self.WARMUPS):
            for op in self.lane_ops(Spans(enabled=False)):
                op()

    def measure(self, seconds: float, tally: Tally, spans: Spans) -> Measured:
        def traced(op: Op) -> Op:
            def one() -> float:
                spans.op += 1
                with spans.span("op", "harness"):
                    return op()
            return one

        # two turns at least: a traced run's quarter share holds one
        # simulator pair, and one repetition is no estimate
        phase = closed_loop(
            [traced(op) for op in self.lane_ops(spans)], seconds, tally, 2
        )
        if not all(run.seconds for run in phase.lanes):
            raise CheckFailed(f"a lane completed no operation: {tally.errors}")
        lanes = range(len(phase.lanes))
        return Measured(
            lanes=[phase.estimate(lane) for lane in lanes],
            raw=[phase.estimate(lane, normalised=False) for lane in lanes],
            host_slowdown=phase.slowdown(),
            ops=sum(len(run.seconds) for run in phase.lanes),
        )

    def fresh_layers(self, tally: Tally) -> Dict[str, float]:
        """Layer probes that need a process nothing has run in yet
        (memory growth); called before the first ``setup``."""
        return {}

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        """Per-layer metrics by name; ``base`` is the untraced loop of
        the same run."""
        return {}


def probe(op: Op, budget_s: float, tally: Tally, min_calls: int = 5) -> float:
    """Quiet-window seconds at reference speed of ``op`` run alone for
    ``budget_s``: the same loop and estimator as the end-to-end lanes."""
    phase = closed_loop([op], budget_s, tally, min_calls)
    if not phase.lanes[0].seconds:
        raise CheckFailed(f"probe completed no operation: {tally.errors}")
    return phase.estimate(0).value


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3
