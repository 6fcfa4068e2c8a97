#!/usr/bin/env python3
"""Run the benchmark: one workload, the whole suite, or the A/A check.

    python3 bench/run.py --workload bulk --seed 3 --seconds 20 --trace 0
    python3 bench/run.py                  # every workload, one after another
    python3 bench/run.py --trace          # the same, traced (per-layer metrics)
    python3 bench/run.py --aa             # two sides of 3 suites; medians vs bounds

(``PYTHONPATH=src python -m bench.run ...`` is the same program.)

A single-workload run prints every metric by name with unit and
direction, verifies every operation's output, and ends with one JSON
line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer metrics with ``--trace 1``). It exits non-zero when any
operation failed. Every number is loopback, one pinned core, closed
loop, 1 client; times are at reference host speed (``bench.harness``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
for entry in (str(SRC), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import harness  # noqa: E402 - imports nothing of the program

#: name -> (module, class)
WORKLOADS: Dict[str, Tuple[str, str]] = {
    "sim_cascade": ("bench.wl_sim", "SimCascade"),
    "bulk": ("bench.wl_sockets", "Bulk"),
    "session_churn": ("bench.wl_sockets", "Churn"),
    "cluster_resume": ("bench.wl_resume", "ClusterResume"),
    "core_codec": ("bench.wl_codec", "CoreCodec"),
}

#: Set-up is done this many times before the timed phase and
#: ``setup_s`` is their median (the builder's contract asks for that;
#: one set-up differs from the next by 5 % on average and 25 % at worst).
SETUPS = 5
#: Suites per side of the A/A check; a side is their median, as the
#: driver's own check compares medians (of ten).
AA_SUITES = 3
#: Shares of a traced run: untraced baseline, traced loop, layer probes.
TRACE_BASELINE, TRACE_TRACED, TRACE_LAYERS = 0.25, 0.25, 0.5
#: Per-layer metrics every traced run reports, whatever the workload.
HARNESS_METRICS = (
    "trace_overhead_pct", "lane1_raw_p50_ms", "lane2_raw_p50_ms",
    "lane1_worst_window_ms", "lane2_worst_window_ms", "host_slowdown_x",
    "harness.cpu", "harness.nproc", "harness.python", "harness.loopback",
)


def set_up(module_name: str, make) -> Tuple[float, object]:
    """Everything before the timed phase (rule 6), at reference speed:
    a fresh interpreter importing the workload's module and through it
    its part of ``repro``, then, here, inputs, bring-up and the warm-up
    operations. Returns the seconds and the workload, left up."""
    importing = [
        sys.executable, "-c",
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]; "
        f"import {module_name}",
    ]
    before = harness.calibrate(3 * harness.BURST)
    t0 = time.perf_counter()
    subprocess.run(importing, check=True)
    workload = make()
    workload.setup()
    workload.warm_up()
    seconds = time.perf_counter() - t0
    return harness.at_reference_speed(
        seconds, before + harness.calibrate(3 * harness.BURST)
    ), workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, cpu: int) -> int:
    catalogue = harness.load_catalogue()
    module_name, class_name = WORKLOADS[name]
    cls = getattr(importlib.import_module(module_name), class_name)
    tally = harness.Tally()
    values: Dict[str, float] = {}
    windows: Dict[str, List[float]] = {}
    as_measured: Dict[str, float] = {}  # the same estimates, not normalised
    table = None
    ops = 0

    if trace:
        workload = cls(seed)
        values.update(workload.fresh_layers(tally))
        workload.setup()
        workload.warm_up()
    else:
        setups = []
        for rep in range(SETUPS):
            if rep:
                workload.teardown()
            setup_s, workload = set_up(module_name, lambda: cls(seed))
            setups.append(setup_s)
        values["setup_s"] = statistics.median(setups)
    try:
        if not trace:
            measured = workload.measure(seconds, tally, harness.Spans(False))
            for lane, estimate in zip(("lane1_ms", "lane2_ms"), measured.lanes):
                values[lane] = estimate.value * 1e3
                windows[lane] = [w * 1e3 for w in estimate.windows]
            as_measured = {
                "lane1_ms": measured.raw[0].value * 1e3,
                "lane2_ms": measured.raw[1].value * 1e3,
                "host_slowdown_x": measured.host_slowdown,
            }
            ops = measured.ops
        else:
            base = workload.measure(
                seconds * TRACE_BASELINE, tally, harness.Spans(False)
            )
            spans = harness.Spans()
            traced = workload.measure(seconds * TRACE_TRACED, tally, spans)
            gc.collect()
            values.update(workload.layers(seconds * TRACE_LAYERS, tally, base))
            untraced_s = sum(lane.whole_run for lane in base.lanes)
            values.update({
                "trace_overhead_pct": 100.0
                * (sum(lane.whole_run for lane in traced.lanes) - untraced_s)
                / untraced_s,
                "lane1_raw_p50_ms": base.raw[0].whole_run * 1e3,
                "lane2_raw_p50_ms": base.raw[1].whole_run * 1e3,
                "lane1_worst_window_ms": base.lanes[0].worst_window * 1e3,
                "lane2_worst_window_ms": base.lanes[1].worst_window * 1e3,
                "host_slowdown_x": base.host_slowdown,
                "harness.cpu": cpu,
                "harness.nproc": harness.environment(cpu)["nproc"],
                "harness.python": sys.version_info[0] * 100 + sys.version_info[1],
                "harness.loopback": 1,
            })
            ops = base.ops + traced.ops
            table = spans.layer_table()
            harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
            with (harness.OUT_DIR / f"trace_{name}.json").open("w") as fp:
                json.dump(spans.chrome_trace(f"bench:{name}"), fp)
    except harness.CheckFailed as exc:
        tally.fail(exc)
    finally:
        workload.teardown()

    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in catalogue[kind]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {unknown}")
    # What this workload measures must be there; a per-layer metric of
    # a layer it leaves idle (another workload's) reads 0: the contract
    # has a traced run report every per-layer name.
    owned = set(cls.LAYER_METRICS + HARNESS_METRICS) if trace else set(declared)
    missing = sorted(owned - set(values))
    for metric_name in missing:
        tally.fail(harness.CheckFailed(f"no value for {metric_name}"))
    metrics = {
        metric_name: harness.metric(float(values.get(metric_name, 0.0)), m["unit"])
        for metric_name, m in declared.items()
        if metric_name not in missing
    }
    directions = {n: m["better"] for n, m in declared.items()}
    correct = tally.failed == 0 and tally.attempted > 0

    print(
        f"workload {name}  seed {seed}  {seconds:g} s  "
        f"{'traced' if trace else 'untraced'}  "
        f"[loopback, pinned to cpu {cpu}, closed loop, 1 client; times are "
        f"at reference host speed]"
    )
    print(f"  lanes: lane1 = {cls.LANES[0]}, lane2 = {cls.LANES[1]}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed"
          f"  ({ops} timed)")
    for line in tally.errors:
        print(f"  FAILED: {line}")
    print(harness.format_metrics(f"  {kind} metrics:", metrics, directions))
    if table is not None:
        print("  self time by layer (span minus the part its children cover):")
        for row in table:
            print(
                f"    {row['layer']:<16} {row['span']:<22} "
                f"calls {row['calls']:>7}  total {row['total_s']:>9.4f} s  "
                f"self {row['self_s']:>9.4f} s"
            )
    harness.write_result(name, {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "lanes": list(cls.LANES),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "environment": harness.environment(cpu),
        "as_measured": as_measured,
        "metrics": {
            n: dict(m, better=directions[n], windows=windows.get(n, []))
            for n, m in metrics.items()
        },
    })
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- the whole suite, each workload in a process of its own --------------


def run_child(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """One workload in a fresh process (as the driver runs it); echoes
    its report and returns the final JSON line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = done.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{name}: no result line (exit {done.returncode})")
    return result


def run_suite(seed: int, seconds: float, trace: bool) -> Dict[str, Dict[str, object]]:
    return {name: run_child(name, seed, seconds, trace) for name in WORKLOADS}


def suite(seed: int, seconds: float, trace: bool) -> int:
    results = run_suite(seed, seconds, trace)
    failed = sum(int(r["failed"]) for r in results.values())  # type: ignore[call-overload]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(int(r["attempted"]) for r in results.values()),  # type: ignore[call-overload]
        "failed": failed,
        "metrics": {
            f"{name}.{metric}": m
            for name, r in results.items()
            for metric, m in r["metrics"].items()  # type: ignore[union-attr]
        },
    }))
    return 1 if failed else 0


def aa(seed: int, seconds: float) -> int:
    """Two sides, back to back, on the same code; a side is
    ``AA_SUITES`` suites at consecutive seeds. Per workload x end-to-end
    metric: both sides' medians, their relative difference and the
    bound. Non-zero exit when a difference exceeds its bound or an
    operation failed."""
    bounds = {
        m["name"]: m["bound"] for m in harness.load_catalogue()["end_to_end"]
    }
    sides = [
        [run_suite(seed + n, seconds, False) for n in range(AA_SUITES)]
        for _ in range(2)
    ]
    print(f"\nA/A check, seeds {seed}..{seed + AA_SUITES - 1}, "
          f"{seconds:g} s per run, median of {AA_SUITES} suites per side")
    print(f"{'workload':<16} {'metric':<14} {'side A':>12} {'side B':>12} "
          f"{'diff':>8} {'bound':>7}")
    status = 0
    for name in WORKLOADS:
        ok = all(suite[name]["correct"] for side in sides for suite in side)
        for metric, bound in bounds.items():
            try:
                a, b = (
                    statistics.median(
                        suite[name]["metrics"][metric]["value"]  # type: ignore[index]
                        for suite in side
                    )
                    for side in sides
                )
                diff = abs(b - a) / a
            except (KeyError, ZeroDivisionError):  # a failed run has no value
                a = b = diff = float("nan")
            verdict = "" if diff <= bound and ok else "  EXCEEDED"
            if verdict:
                status = 1
            print(f"{name:<16} {metric:<14} {a:>12.5g} {b:>12.5g} "
                  f"{diff:>7.2%} {bound:>7.0%}{verdict}")
    print("A/A " + ("FAILED" if status else "passed"))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--aa", action="store_true",
                        help="run two sides of suites and compare their medians")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = float(harness.load_catalogue()["run_seconds"])
    if args.aa:
        return aa(args.seed, seconds)
    if args.workload is None:
        return suite(args.seed, seconds, bool(args.trace))
    cpu = harness.pin_to_one_cpu()  # before the program is imported
    return run_workload(args.workload, args.seed, seconds, bool(args.trace), cpu)


if __name__ == "__main__":
    sys.exit(main())
