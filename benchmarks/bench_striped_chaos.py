"""Striped-transfer chaos bench: seeded route failure, both drivers.

For each real-socket driver (``threads`` = :mod:`repro.sockets.striped`,
``asyncio`` = :mod:`repro.asockets.striped`) this bench measures four
loopback transfers of the same payload:

1. **single** — one route, no striping (the baseline lane of the
   striped-vs-single A/B in ``docs/PERFORMANCE.md``);
2. **striped** — three parallel direct routes, no redundancy;
3. **parity** — the same three routes under ``parity``: no loss, so
   this lane prices the redundancy itself (one XOR block per four
   stripes: 0.8x the ``none`` lane is the wire-byte floor). It must
   reach 0.3x the striped lane of the same run — a byte-at-a-time XOR
   sits at 0.06x;
4. **chaos** — three routes under ``duplicate-1`` where one route runs
   through a relay that reads a few KiB and then resets the connection
   (SO_LINGER abortive close: a mid-transfer path crash, seeded and
   deterministic). The transfer must *degrade*: complete with the MD5
   trailer verified, report the dead sublink, and emit **zero**
   resume/rebind protocol events — the whole point of redundant
   striping (``docs/PROTOCOL.md`` §8).

Any chaos run that fails to complete, fails its digest, fails to
observe the crash, or emits a resume event exits non-zero, and so does
a parity lane below its floor.

The usual loopback caveat applies: CPython's GIL serializes the
sublink pumps, so striped wall-clock on loopback measures what the
striping machines cost per byte (framing, reassembly, the digest, and
under ``parity`` the XOR), not parallelism — the throughput claims
live in the simulator benches (``bench_extension_striping.py``).

Writes a ``BENCH_summary.json`` (same shape the pytest-benchmark
conftest emits) into ``REPRO_METRICS_DIR`` (or the working directory).

Usage::

    PYTHONPATH=src python benchmarks/bench_striped_chaos.py           # full
    PYTHONPATH=src python benchmarks/bench_striped_chaos.py --smoke   # CI
    PYTHONPATH=src python benchmarks/bench_striped_chaos.py --driver asyncio
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import socket
import sys
import threading
import time
from pathlib import Path

FULL = {"ab_bytes": 64 << 20, "chaos_bytes": 32 << 20, "rounds": 3}
SMOKE = {"ab_bytes": 8 << 20, "chaos_bytes": 16 << 20, "rounds": 1}

STRIPE = 64 * 1024
SNDBUF = 64 * 1024  # keeps dealing demand-paced on loopback
ROUTES = 3
#: parity goodput must reach this share of the ``none`` lane's
PARITY_FLOOR = 0.3


class CrashingRelay:
    """Accepts one connection, reads a little, then resets it."""

    def __init__(self, read_bytes: int = 4096) -> None:
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self._read_bytes = read_bytes
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            conn, _ = self._listener.accept()
        except OSError:
            return
        got = 0
        try:
            while got < self._read_bytes:
                data = conn.recv(4096)
                if not data:
                    break
                got += len(data)
            conn.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            conn.close()
        except OSError:
            pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


def make_driver(name):
    """Return (server_factory, send) for one driver, same signatures."""
    if name == "threads":
        from repro.sockets.striped import StripedThreadedServer, send_striped

        return StripedThreadedServer, send_striped

    from repro.asockets.striped import AsyncStripedServer
    from repro.asockets.striped import send_striped as async_send

    def send(routes, payload, **kw):
        return asyncio.run(async_send(routes, payload, **kw))

    return AsyncStripedServer, send


def timed_transfer(server_cls, send, payload, n_routes, redundancy,
                   observer=None, crash_route=False):
    relay = CrashingRelay() if crash_route else None
    try:
        with server_cls("127.0.0.1") as server:
            routes = [[server.address] for _ in range(n_routes)]
            if relay is not None:
                routes[0] = [relay.address, server.address]
            t0 = time.perf_counter()
            report = send(
                routes, payload,
                stripe_bytes=STRIPE, redundancy=redundancy,
                sndbuf=SNDBUF, observer=observer,
            )
            ok = server.wait_for_sessions(1, timeout=120.0)
            wall = time.perf_counter() - t0
            result = server.results[0] if ok and server.results else None
    finally:
        if relay is not None:
            relay.close()
    return {
        "wall_s": round(wall, 4),
        "mbps": round(len(payload) * 8 / wall / 1e6, 1),
        "complete": bool(result is not None and result.payload == payload),
        "digest_ok": bool(result is not None and result.digest_ok),
        "sublink_errors": len(report.sublink_errors),
        "redundant_stripes": report.redundant_stripes,
    }


def bench_driver(name, cfg):
    server_cls, send = make_driver(name)
    rng = random.Random(2001)
    ab_payload = rng.randbytes(cfg["ab_bytes"])
    chaos_payload = rng.randbytes(cfg["chaos_bytes"])

    def best(n_routes, redundancy):
        runs = [
            timed_transfer(server_cls, send, ab_payload, n_routes, redundancy)
            for _ in range(cfg["rounds"])
        ]
        return min(runs, key=lambda r: r["wall_s"])

    single = best(1, "none")
    striped = best(ROUTES, "none")
    parity = best(ROUTES, "parity")
    parity["share_of_none"] = round(parity["mbps"] / striped["mbps"], 2)

    events = []
    chaos = timed_transfer(
        server_cls, send, chaos_payload, ROUTES, "duplicate-1",
        observer=events.append, crash_route=True,
    )
    chaos["resume_events"] = sum(
        1 for e in events if "resume" in e.kind or "rebind" in e.kind
    )

    row = {
        "driver": name,
        "bytes": cfg["ab_bytes"],
        "single": single,
        "striped": striped,
        "parity": parity,
        "chaos": chaos,
    }
    print(
        f"{name:>7}: single {single['mbps']} Mbit/s, "
        f"striped x{ROUTES} {striped['mbps']} Mbit/s, "
        f"parity x{ROUTES} {parity['mbps']} Mbit/s "
        f"({parity['share_of_none']}x striped), "
        f"chaos(dup-1, 1 route crashed) "
        f"{'ok' if chaos['complete'] else 'FAILED'} "
        f"in {chaos['wall_s']}s, {chaos['sublink_errors']} sublink error(s), "
        f"{chaos['resume_events']} resume round-trip(s)"
    )
    return row


def check(results):
    problems = []
    for row in results:
        d = row["driver"]
        for lane in ("single", "striped", "parity"):
            if not (row[lane]["complete"] and row[lane]["digest_ok"]):
                problems.append(f"{d}: {lane} transfer incomplete")
        share = row["parity"]["share_of_none"]
        if share < PARITY_FLOOR:
            problems.append(
                f"{d}: parity goodput is {share}x the none lane "
                f"(floor {PARITY_FLOOR}x)"
            )
        chaos = row["chaos"]
        if not (chaos["complete"] and chaos["digest_ok"]):
            problems.append(f"{d}: chaos transfer did not degrade cleanly")
        if chaos["sublink_errors"] < 1:
            problems.append(f"{d}: the crashed route went unobserved")
        if chaos["resume_events"] != 0:
            problems.append(
                f"{d}: {chaos['resume_events']} resume round-trip(s); "
                "duplicate-1 must need zero"
            )
    return problems


def write_summary(results, total_wall, exitstatus) -> Path:
    outdir = Path(os.environ.get("REPRO_METRICS_DIR") or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "version": 1,
        "exitstatus": exitstatus,
        "scaling": {},
        "total_wall_s": round(total_wall, 3),
        "benchmarks": [
            {
                "test": f"benchmarks/bench_striped_chaos.py::{row['driver']}",
                "group": "striped-chaos",
                "timing_s": {"mean": row["chaos"]["wall_s"], "rounds": 1},
                "striped_chaos": row,
            }
            for row in results
        ],
    }
    path = outdir / "BENCH_summary.json"
    with path.open("w") as fp:
        json.dump(summary, fp, indent=1)
        fp.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: 8M A/B lanes + 16M chaos, one round each",
    )
    parser.add_argument(
        "--driver", choices=("threads", "asyncio", "both"), default="both"
    )
    args = parser.parse_args(argv)
    cfg = SMOKE if args.smoke else FULL

    drivers = ("threads", "asyncio") if args.driver == "both" else (args.driver,)
    t0 = time.perf_counter()
    results = [bench_driver(name, cfg) for name in drivers]
    total_wall = time.perf_counter() - t0

    problems = check(results)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    exitstatus = 1 if problems else 0
    path = write_summary(results, total_wall, exitstatus)
    print(f"summary -> {path}")
    return exitstatus


if __name__ == "__main__":
    sys.exit(main())
