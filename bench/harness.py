"""Benchmark harness: pinning, seeded inputs, the closed loop with its
host-speed calibration, the quiet-window estimator, harness-side spans,
environment capture and the one JSON writer.

Nothing in this module imports ``repro``: :func:`pin_to_one_cpu` must
run before the program under test is imported (threads and children
inherit the affinity), and the estimator and span arithmetic are unit
tested without the program (``bench/tests``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: The timed phase is cut into this many equal windows (rule 5).
WINDOWS = 12
#: Operations run for this long between two calibration bursts.
ROUND_S = 0.15
#: Calibration loops per burst: about 7 % of the run.
BURST = 12
#: What one calibration loop takes at reference host speed. Reported
#: times are "ms at reference speed": measured time x this / measured
#: calibration time.
REFERENCE_S = 1e-3
MB = 1e6  # rates are payload bytes / 10^6 per second
MIB = 1 << 20


# -- rule 1: pin first ---------------------------------------------------


def pin_to_one_cpu() -> int:
    """Pin this process (and everything it later starts) to one CPU.

    Unpinned, the threaded depot's 4 KiB-session median flips between
    0.58 ms and 1.35 ms mid-run on a 2-vCPU box (cross-core wake-ups);
    pinned it stays at 0.59-0.67 ms. Every number is a per-core number.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- rule 7: seeded inputs -----------------------------------------------


def seeded_rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"bench/{seed}/{tag}")


def seeded_payload(seed: int, tag: str, nbytes: int) -> bytes:
    return seeded_rng(seed, tag).randbytes(nbytes)


def session_ids(seed: int, tag: str) -> Callable[[], bytes]:
    """A source of distinct 16-byte session ids, fixed by ``seed``."""
    rng = seeded_rng(seed, tag + "/session-ids")
    return lambda: rng.getrandbits(128).to_bytes(16, "big")


# -- verification and failure accounting ---------------------------------


class CheckFailed(Exception):
    """An operation's output did not verify."""


def check(ok: object, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Tally:
    """Operations attempted and failed. A failed check is a failed
    operation, never a dropped sample."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, exc: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(
                "".join(traceback.format_exception_only(type(exc), exc)).strip()
            )


# -- host-speed calibration ----------------------------------------------

_CAL_BLOCK = bytes(256 << 10)


def calibration_loop() -> float:
    """One fixed piece of work that is not the program: interpreter
    bytecode, then a copy and a hash of 256 KiB; returns its duration.

    The host this guest shares slows down in spells: the same pinned
    loop takes 1.0 ms for a while and 1.3 ms for the next 5-60 s, with
    ``steal`` at 0 and CPU time stretching with wall time. Whole
    operations stretch with it (16 MiB relay: 85 -> 112 ms in the same
    spell), so a run that happens to sit in a spell reads 20-30 % slow
    whatever the estimator. Dividing each operation by the calibration
    taken next to it removes what the host did and leaves what the
    program did: a change to the program moves the operation and not
    this loop.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(10500):
        x += i * i
    hashlib.md5(bytearray(_CAL_BLOCK)).digest()
    return time.perf_counter() - t0


def calibrate(loops: int = BURST) -> List[float]:
    return [calibration_loop() for _ in range(loops)]


def at_reference_speed(seconds: float, calibration: Sequence[float]) -> float:
    """``seconds`` as they would read on a host that runs the
    calibration loop in ``REFERENCE_S``."""
    return seconds * REFERENCE_S / statistics.median(calibration)


# -- rule 2: closed loop, one client -------------------------------------


@dataclass
class LaneRun:
    """One lane's verified operations in a timed phase, in order."""

    seconds: List[float] = field(default_factory=list)  # as measured
    #: per operation, how many calibration bursts had been taken when it
    #: started and when it ended
    began: List[int] = field(default_factory=list)
    ended: List[int] = field(default_factory=list)


@dataclass
class Phase:
    """A timed phase: each lane's operations and the calibration bursts
    taken between and inside them."""

    lanes: List[LaneRun]
    bursts: List[List[float]] = field(default_factory=list)

    def slowdown(self, first: int = 0, last: int = -1) -> float:
        """How slow the host ran the calibration loop, against the
        reference, from burst ``first`` to burst ``last``."""
        last = len(self.bursts) - 1 if last < 0 else last
        samples = [s for burst in self.bursts[first : last + 1] for s in burst]
        return statistics.median(samples) / REFERENCE_S

    def estimate(self, lane: int, normalised: bool = True) -> "Estimate":
        """Quiet-window estimate of one lane's operation, each window
        divided by the host's slowdown over that window: the bursts
        from the one before its first operation to the one after its
        last."""
        run = self.lanes[lane]
        if not normalised:
            return quiet_time(run.seconds)
        return quiet_time(
            run.seconds,
            lambda i, j: self.slowdown(run.began[i] - 1, run.ended[j]),
        )


def closed_loop(
    lanes: Sequence[Callable[[], float]],
    seconds: float,
    tally: Tally,
    min_turns: int = 1,
) -> Phase:
    """Run the lanes' operations in turn, one at a time, for ``seconds``
    (and at least ``min_turns`` turns). The next operation starts only
    once the previous one has been verified delivered; an operation
    times itself, returns its duration and raises when its output does
    not verify.

    A calibration burst is taken between operations whenever ``ROUND_S``
    has passed since the last one. An operation that runs on for
    another ``ROUND_S`` (a simulated transfer takes seconds) is
    interrupted by a timer for a burst, and for one more every
    ``ROUND_S``, so that the host's speed is sampled while it runs and
    not only at its edges; the bursts' own time is taken off the
    operation's."""
    phase = Phase([LaneRun() for _ in lanes])
    inside = 0.0  # seconds the current operation lost to timer bursts
    last_burst = 0.0  # when the latest burst ended

    def burst(timer_after: float) -> None:
        nonlocal last_burst
        signal.setitimer(signal.ITIMER_REAL, 0)
        phase.bursts.append(calibrate())
        last_burst = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, timer_after)

    def on_timer(signum, frame) -> None:
        nonlocal inside
        t0 = time.perf_counter()
        burst(ROUND_S)
        inside += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, on_timer)
    try:
        burst(2 * ROUND_S)
        turns = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or turns < min_turns:
            for run, lane in zip(phase.lanes, lanes):
                if time.perf_counter() - last_burst >= ROUND_S:
                    burst(2 * ROUND_S)
                tally.attempted += 1
                began, inside = len(phase.bursts), 0.0
                try:
                    spent = lane()
                except Exception as exc:  # noqa: BLE001 - counted and reported
                    tally.fail(exc)
                else:
                    run.seconds.append(spent - inside)
                    run.began.append(began)
                    run.ended.append(len(phase.bursts))
            turns += 1
            if tally.failed >= 3 and not any(r.seconds for r in phase.lanes):
                break  # nothing works: do not spin until the deadline
        burst(0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return phase


# -- rule 5: the quiet-window estimator ----------------------------------


def split_windows(items: Sequence, count: int = WINDOWS) -> List[Sequence]:
    """``count`` consecutive windows of equal size (the tail that does
    not fill a window is dropped); fewer windows when items are few."""
    count = min(count, len(items))
    if count == 0:
        raise ValueError("no samples to window")
    size = len(items) // count
    return [items[i * size : (i + 1) * size] for i in range(count)]


@dataclass
class Estimate:
    """A quiet-window estimate with its diagnostics."""

    value: float  # lower quartile of the window medians
    whole_run: float  # median over the whole run
    worst_window: float
    windows: List[float]


def quiet_time(
    seconds: Sequence[float],
    slowdown: Callable[[int, int], float] = lambda first, last: 1.0,
) -> Estimate:
    """The one estimator: cut the run into ``WINDOWS`` equal windows,
    take each window's median, report the lower quartile across
    windows. Interference on a shared box only ever adds time, and what
    calibration leaves of it comes in bursts that cover some windows and
    not others; the median inside a window drops single slow
    operations, the lower quartile across windows drops slow windows.
    (A rate is this time turned over: payload bytes / the estimate.)

    ``slowdown(first, last)`` is the host's slowdown while operations
    ``first`` to ``last`` ran; each window's median is divided by its
    own.
    """
    medians = [
        statistics.median(seconds[i] for i in w) / slowdown(w[0], w[-1])
        for w in split_windows(range(len(seconds)))
    ]
    return Estimate(
        value=lower_quartile(medians),
        whole_run=statistics.median(seconds) / slowdown(0, len(seconds) - 1),
        worst_window=max(medians),
        windows=medians,
    )


def lower_quartile(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


# -- tracing: spans recorded in the harness ------------------------------


@dataclass
class Span:
    name: str
    layer: str
    op: int
    parent: int  # index into Spans.records, -1 for a root
    start: float
    end: float = 0.0


_NO_SPAN = contextlib.nullcontext()


class Spans:
    """Spans around the harness's calls into the program, kept in
    memory. One thread records (the closed loop's), so nesting is a
    stack. ``Spans(enabled=False)`` records nothing: end-to-end numbers
    are taken with tracing off (rule 8)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[Span] = []
        self._stack: List[int] = []
        self.op = 0

    def span(self, name: str, layer: str):
        """Context manager around one call into the program."""
        return self._record(name, layer) if self.enabled else _NO_SPAN

    @contextlib.contextmanager
    def _record(self, name: str, layer: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, self.op, parent, time.perf_counter())
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def layer_table(self) -> List[Dict[str, object]]:
        """Per (layer, span name): calls, total time, self time."""
        selfs = span_self_times(self.records)
        rows: Dict[tuple, Dict[str, object]] = {}
        for index, record in enumerate(self.records):
            row = rows.setdefault(
                (record.layer, record.name),
                {"layer": record.layer, "span": record.name, "calls": 0,
                 "total_s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1  # type: ignore[operator]
            row["total_s"] += record.end - record.start  # type: ignore[operator]
            row["self_s"] += selfs[index]  # type: ignore[operator]
        return sorted(rows.values(), key=lambda r: (r["layer"], r["span"]))

    def chrome_trace(self, process: str) -> Dict[str, object]:
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = min((r.start for r in self.records), default=0.0)
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": 1,
             "args": {"name": process}},
        ]
        for index, record in enumerate(self.records):
            events.append({
                "name": record.name,
                "cat": record.layer,
                "ph": "X",
                "ts": (record.start - origin) * 1e6,
                "dur": (record.end - record.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"op": record.op, "span": index,
                         "parent": record.parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_self_times(records: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = {}
    for record in records:
        if record.parent >= 0:
            children.setdefault(record.parent, []).append(record)
    out: Dict[int, float] = {}
    for index, record in enumerate(records):
        covered = 0.0
        cursor = record.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, record.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[index] = (record.end - record.start) - covered
    return out


# -- memory ---------------------------------------------------------------


def rss_bytes() -> int:
    """Resident set size now."""
    with open("/proc/self/statm") as fp:
        return int(fp.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


# -- environment and the one writer --------------------------------------


def environment(cpu: int) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "network": "loopback",
        "load": "closed loop, 1 client, 1 pinned core",
    }


def load_catalogue() -> Dict[str, object]:
    """``BENCHMARK.json``: the one list of workloads, metric names,
    units, directions and bounds."""
    with (ROOT / "BENCHMARK.json").open() as fp:
        return json.load(fp)


def write_result(workload: str, entry: Dict[str, object]) -> Path:
    """Merge one workload's entry into ``bench/out/result.json``."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "result.json"
    try:
        with path.open() as fp:
            merged = json.load(fp)
    except (OSError, json.JSONDecodeError):
        merged = {}
    merged[workload] = entry
    with path.open("w") as fp:
        json.dump(merged, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return path


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def format_metrics(
    title: str,
    metrics: Dict[str, Dict[str, object]],
    directions: Dict[str, str],
) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(
            f"  {name:<40} {m['value']:>14.6g} {m['unit']} "
            f"({directions[name]} is better)"
        )
    return "\n".join(lines)
