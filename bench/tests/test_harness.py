"""Unit tests of the harness itself: estimator, calibration, span
arithmetic, failure accounting, the catalogue's schema. None of them
runs the program under test. ``python -m pytest bench/tests -q``."""

import json
import random
import re
import shutil
import signal
import subprocess
import sys
import time

import pytest

from bench import harness
from bench.harness import (
    CheckFailed,
    Span,
    Spans,
    Tally,
    closed_loop,
    quiet_time,
    span_self_times,
    split_windows,
)
from bench.run import HARNESS_METRICS, WORKLOADS


# -- the quiet-window estimator --------------------------------------------


def one_sided_noise(rng, quiet_windows, per_window=50, burst=0.30):
    """1.0 s operations with +-0.5 % jitter; outside the quiet windows
    interference adds 30 % (it never subtracts)."""
    out = []
    for window in range(harness.WINDOWS):
        extra = 0.0 if window in quiet_windows else burst
        out += [1.0 + extra + rng.uniform(-0.005, 0.005) for _ in range(per_window)]
    return out


def test_quiet_time_ignores_one_sided_interference():
    rng = random.Random(1)
    noisy = one_sided_noise(rng, quiet_windows={2, 4, 5, 9})  # 8 of 12 disturbed
    estimate = quiet_time(noisy)
    assert abs(estimate.value - 1.0) < 0.01
    assert estimate.whole_run > 1.25  # the whole-run median is fooled
    assert estimate.worst_window > 1.25
    assert len(estimate.windows) == harness.WINDOWS


def test_quiet_time_is_not_fooled_by_single_fast_operations():
    rng = random.Random(3)
    times = one_sided_noise(rng, quiet_windows=set(range(harness.WINDOWS)))
    times[7] = times[400] = 0.2  # two freak samples in 600, not a quiet level
    assert abs(quiet_time(times).value - 1.0) < 0.01


def test_quiet_time_repeats_across_noise_patterns():
    values = []
    for seed in range(10):
        rng = random.Random(seed)
        quiet = set(rng.sample(range(harness.WINDOWS), rng.randrange(4, 13)))
        values.append(quiet_time(one_sided_noise(rng, quiet)).value)
    assert max(values) / min(values) < 1.01


def test_few_repetitions_are_their_own_windows():
    estimate = quiet_time([5.0, 4.0, 4.4])  # sim_cascade: 3 whole pairs
    assert estimate.windows == [5.0, 4.0, 4.4]
    assert estimate.value == pytest.approx(4.2)
    assert quiet_time([4.0]).value == 4.0


def test_split_windows_equal_and_few():
    windows = split_windows(list(range(250)))
    assert [len(w) for w in windows] == [20] * 12
    assert windows[0][0] == 0 and windows[11][-1] == 239
    assert [len(w) for w in split_windows([1, 2, 3])] == [1, 1, 1]
    with pytest.raises(ValueError):
        split_windows([])


# -- host-speed calibration -----------------------------------------------------


def test_calibration_removes_what_the_host_did(monkeypatch):
    """A host that slows everything by 30 % half way through: raw
    times move with it, times at reference speed do not."""
    clock = {"calls": 0}

    def slowdown():
        return 1.3 if clock["calls"] > 200 else 1.0

    def fake_calibration():
        clock["calls"] += 1
        return 0.8e-3 * slowdown()  # this host is faster than the reference

    def op():
        clock["calls"] += 1
        return 0.050 * slowdown()

    monkeypatch.setattr(harness, "calibration_loop", fake_calibration)
    monkeypatch.setattr(harness, "ROUND_S", 0.0)  # a burst before every op
    phase = closed_loop([op], 0.0, Tally(), min_turns=48)
    # one burst up front, one before every operation, one to close
    assert len(phase.bursts) == 50
    raw = phase.estimate(0, normalised=False)
    assert max(raw.windows) / min(raw.windows) == pytest.approx(1.3)
    normal = phase.estimate(0)
    # all but the window the change falls in
    steady = sorted(normal.windows)[1:-1]
    assert max(steady) / min(steady) < 1.001
    assert normal.value == pytest.approx(0.050 / 0.8)
    assert phase.slowdown(0, 0) == pytest.approx(0.8)


def test_a_long_operation_is_calibrated_while_it_runs(monkeypatch):
    monkeypatch.setattr(harness, "ROUND_S", 0.02)
    monkeypatch.setattr(harness, "calibrate", lambda: [1e-3])

    def op():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        return time.perf_counter() - t0

    phase = closed_loop([op], 0.0, Tally())
    run = phase.lanes[0]
    assert run.began == [1] and run.ended[0] >= 5  # bursts taken inside it
    assert len(phase.bursts) == run.ended[0] + 1
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_at_reference_speed():
    assert harness.at_reference_speed(2.0, [2e-3, 1e-3, 4e-3]) == pytest.approx(1.0)


# -- span self time ------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    records = [
        Span("op", "harness", 1, -1, 0.0, 10.0),
        Span("a", "x", 1, 0, 1.0, 3.0),
        Span("b", "x", 1, 0, 2.0, 5.0),  # overlaps a: union is 1..5
        Span("c", "x", 1, 0, 7.0, 12.0),  # runs past its parent: clipped
        Span("d", "x", 1, 2, 2.5, 3.5),  # grandchild: only b's business
    ]
    selfs = span_self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 3.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_spans_nest_and_export_a_valid_chrome_trace():
    spans = Spans()
    spans.op = 7
    with spans.span("op", "harness"):
        with spans.span("client.open", "repro.sockets"):
            pass
        with spans.span("client.finish", "repro.sockets"):
            pass
    assert [r.parent for r in spans.records] == [-1, 0, 0]
    assert all(r.op == 7 and r.end >= r.start for r in spans.records)
    table = {row["span"]: row for row in spans.layer_table()}
    assert table["op"]["calls"] == 1
    assert table["op"]["self_s"] <= table["op"]["total_s"]
    trace = spans.chrome_trace("test")
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 3
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in events)
    json.dumps(trace)
    chrometrace = pytest.importorskip("repro.telemetry.chrometrace")
    assert chrometrace.validate_trace_events(trace) == []


def test_disabled_spans_record_nothing():
    spans = Spans(enabled=False)
    with spans.span("op", "harness"):
        pass
    assert spans.records == []


# -- failure accounting --------------------------------------------------------


def test_a_failed_check_is_a_failed_operation():
    calls = []

    def op():
        calls.append(1)
        if len(calls) % 4 == 0:
            raise CheckFailed("delivered bytes differ")
        return 0.001

    tally = Tally()
    phase = closed_loop([op], 0.0, tally, min_turns=20)
    assert tally.attempted == 20
    assert tally.failed == 5
    assert len(phase.lanes[0].seconds) == 15
    assert "delivered bytes differ" in tally.errors[0]


def test_lanes_take_turns_and_are_kept_apart():
    order = []
    lanes = [lambda: order.append("a") or 1.0, lambda: order.append("b") or 2.0]
    phase = closed_loop(lanes, 0.0, Tally(), min_turns=3)
    assert order == ["a", "b"] * 3
    assert phase.lanes[0].seconds == [1.0] * 3
    assert phase.lanes[1].seconds == [2.0] * 3


def test_closed_loop_gives_up_when_nothing_works():
    tally = Tally()

    def op():
        raise OSError("connection refused")

    phase = closed_loop([op], 5.0, tally)
    assert phase.lanes[0].seconds == []
    assert (tally.attempted, tally.failed) == (3, 3)


def test_a_late_callback_is_not_the_next_operations_delivery():
    drivers = pytest.importorskip("bench.drivers")
    driver = drivers.ThreadsDriver()
    driver.on_session("stale")  # arrives after its operation gave up
    driver._expect()
    assert not driver._delivered.is_set() and driver._slot is None


# -- seeded inputs ---------------------------------------------------------------


def test_inputs_follow_the_seed():
    assert harness.seeded_payload(3, "p", 64) == harness.seeded_payload(3, "p", 64)
    assert harness.seeded_payload(3, "p", 64) != harness.seeded_payload(4, "p", 64)
    ids = harness.session_ids(3, "t")
    batch = [ids() for _ in range(100)]
    assert len(set(batch)) == 100 and all(len(i) == 16 for i in batch)
    again = harness.session_ids(3, "t")
    assert [again() for _ in range(100)] == batch


# -- BENCHMARK.json and the result schema ------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_catalogue_meets_the_contract():
    cat = harness.load_catalogue()
    assert set(cat) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert cat["paths"] == ["bench"]
    assert cat["command"] == ["python3", "bench/run.py"]
    assert isinstance(cat["run_seconds"], int) and 1 <= cat["run_seconds"] <= 60
    assert 2 <= len(cat["workloads"]) <= 8
    for w in cat["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [w["name"] for w in cat["workloads"]] == list(WORKLOADS)
    assert 1 <= len(cat["end_to_end"]) <= 16
    for m in cat["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert [m["name"] for m in cat["end_to_end"]] == [
        "lane1_ms", "lane2_ms", "setup_s",
    ]
    assert cat["end_to_end"][2] == {
        "name": "setup_s", "unit": "s", "better": "lower",
        "bound": max(m["bound"] for m in cat["end_to_end"]),
    }
    assert 1 <= len(cat["per_layer"]) <= 128
    for m in cat["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [
        m["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for m in cat[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in cat["end_to_end"] + cat["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    # 4 + 22 x workloads runs must fit in 3420 s with set-up around them
    runs = 4 + 22 * len(cat["workloads"])
    assert runs * (cat["run_seconds"] + 8) <= 3420


def test_every_per_layer_metric_has_a_workload_that_must_report_it():
    import importlib

    owned = set(HARNESS_METRICS)
    for module_name, class_name in WORKLOADS.values():
        cls = getattr(importlib.import_module(module_name), class_name)
        assert len(cls.LANES) == 2
        owned |= set(cls.LAYER_METRICS)
    declared = {m["name"] for m in harness.load_catalogue()["per_layer"]}
    assert owned == declared


def test_write_result_merges_workloads(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    entry = {
        "seed": 0, "seconds": 1.0, "trace": False, "attempted": 3, "failed": 0,
        "metrics": {"lane1_ms": dict(harness.metric(1.5, "ms"), better="lower",
                                     windows=[1.4, 1.6])},
    }
    harness.write_result("a", entry)
    path = harness.write_result("b", dict(entry, attempted=4))
    merged = json.loads(path.read_text())
    assert set(merged) == {"a", "b"}
    assert merged["a"]["metrics"]["lane1_ms"] == {
        "value": 1.5, "unit": "ms", "better": "lower", "windows": [1.4, 1.6],
    }
    assert merged["b"]["attempted"] == 4


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/ the
    command must fail and print no result."""
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        harness.BENCH_DIR, tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_cascade",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
