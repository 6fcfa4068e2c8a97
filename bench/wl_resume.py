"""``cluster_resume``: suspend and resume against a two-node cluster.

One operation: open a 1 MiB session at the cluster's address, send the
first half, close without ``finish()`` (the node suspends it and spools
the prefix), poll ``store.load`` until the prefix is in the store,
rebind with ``resume_query=True`` (either node may answer), send from
the granted offset, ``finish()``. No kill, no TTL, no timers on the
path. This is the terminal-server role used differently from ``bulk``:
spool **writes**, owner-epoch CAS and resume re-feed beside the plain
receive path. Lane 1 is threaded nodes, lane 2 asyncio nodes, both on
``LocalCluster``'s own ``InMemoryStore``.

The same loop on ``open_store("file:<dir>")`` reads 10.0 ms in one run
and 12.7-13.2 ms in the next nine (spread 8-10 %, host speed taken out;
+-2.5 % in memory): the store's renames and unlinks queue journal and
discard work (ext4 mounted with ``discard``) for kernel threads that run
on the pinned core or not. It cannot hold a 10 % bound, so the file
store is a per-layer diagnostic (``*.resume_p50_file_ms`` and the
``store.file.*`` probes), not part of the gated number (rule 9);
file - memory is the store medium's share.

Nodes keep every delivered payload (``results``), so a cluster serves
``RECYCLE`` operations and is then replaced, store directory included.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from typing import Callable, Dict, List

from repro.cluster import open_store

from bench.drivers import DRIVERS, Lane
from bench.harness import (
    MB,
    MIB,
    OUT_DIR,
    Spans,
    Tally,
    check,
    seeded_payload,
    session_ids,
)
from bench.workload import Measured, Op, Workload, median_ms, probe

NBYTES = MIB
CUT = NBYTES // 2
WORKERS = 2
RECYCLE = 48
SPOOL_BLOCK = 256 * 1024  # the nodes' checkpoint size
STORE_BATCH = 50


class ClusterLane(Lane):
    """A lane and its current two-node cluster."""

    def __init__(self, name: str, seed: int, store_spec: str) -> None:
        super().__init__(name, seed)
        self.bring_up(store_spec)

    def bring_up(self, store_spec: str) -> None:
        self.store_dir = None
        spec = store_spec
        if store_spec == "file":
            self.store_dir = tempfile.mkdtemp(prefix="store-", dir=OUT_DIR / "tmp")
            spec = f"file:{self.store_dir}"
        self.cluster = self.driver.cluster(open_store(spec), WORKERS)
        self.store_spec = store_spec
        self.served = 0

    def take_down(self) -> None:
        self.cluster.shutdown()  # closes the store too
        del self.cluster
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        gc.collect()

    def close(self) -> None:
        self.take_down()
        super().close()


class ClusterResume(Workload):
    """Back-to-back resumes, threaded nodes and asyncio nodes taking
    turns."""

    LANES = tuple(DRIVERS)
    LAYER_METRICS = tuple(
        f"{driver}.{name}" for driver in DRIVERS for name in (
            "resume_p50_ms", "suspend_to_spooled_ms", "rebind_grant_ms",
            "resume_send_ms", "resume_p50_file_ms",
        )
    ) + tuple(
        f"store.{backend}.{name}"
        for backend, names in (
            ("memory", ("create_us", "claim_us", "load_us")),
            ("file", ("create_us", "claim_us", "load_us", "append_MBps",
                      "payload_MBps")),
        )
        for name in names
    )

    def setup(self) -> None:
        self.payload = seeded_payload(self.seed, "payload", NBYTES)
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        self.lanes = [ClusterLane(name, self.seed, "memory") for name in DRIVERS]

    def teardown(self) -> None:
        for lane in self.lanes:
            lane.close()

    def lane_ops(self, spans: Spans) -> List[Op]:
        return [lambda lane=lane: self.leg(lane, spans) for lane in self.lanes]

    def leg(self, lane: ClusterLane, spans: Spans) -> float:
        if lane.served >= RECYCLE:
            with spans.span("recycle", "harness"):
                lane.take_down()
                lane.bring_up(lane.store_spec)
        lane.served += 1
        session_id = lane.next_id()
        run = lane.driver.resume(
            lane.cluster.address, lane.cluster.store, self.payload, CUT,
            session_id, spans,
        )
        with spans.span("verify", "harness"):
            result = run.result
            check(result.session_id == session_id, "another session delivered")
            check(run.granted_offset == CUT, "grant differs from the cut")
            check(result.rebinds == 1, f"{result.rebinds} rebinds, wanted 1")
            check(result.digest_ok is True, "digest not verified")
            check(result.payload == self.payload, "delivered bytes differ")
        if spans.enabled:
            lane.keep(run)
        return run.delivered - run.start

    # -- per-layer probes --------------------------------------------------

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        quiet = Spans(enabled=False)
        out: Dict[str, float] = {}
        for lane, estimate in zip(self.lanes, base.lanes):
            prefix = lane.name
            runs = lane.deliveries
            out.update({
                f"{prefix}.resume_p50_ms": estimate.value * 1e3,
                f"{prefix}.suspend_to_spooled_ms": median_ms(
                    [r.spooled - r.suspended for r in runs]
                ),
                f"{prefix}.rebind_grant_ms": median_ms(
                    [r.rebound - r.spooled for r in runs]
                ),
                f"{prefix}.resume_send_ms": median_ms(
                    [r.delivered - r.rebound for r in runs]
                ),
            })
            lane.deliveries.clear()
            # the same loop on the file store: file - memory is the
            # store medium's share of a resume
            lane.take_down()
            lane.bring_up("file")
            out[f"{prefix}.resume_p50_file_ms"] = probe(
                lambda: self.leg(lane, quiet), seconds / 6, tally, 3
            ) * 1e3
            lane.take_down()
            lane.bring_up("memory")

        budget = seconds * (2 / 3) / 8
        for backend in ("memory", "file"):
            out.update(self.store_probes(backend, budget, tally))
        return out

    def store_probes(
        self, backend: str, budget: float, tally: Tally
    ) -> Dict[str, float]:
        """Direct calls on one store, batches of ``STORE_BATCH``."""
        directory = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR / "tmp")
        store = open_store("memory" if backend == "memory" else f"file:{directory}")
        next_id = session_ids(self.seed, f"store-{backend}")
        block = self.payload[:SPOOL_BLOCK]

        def create(sid: bytes) -> object:
            return store.create(sid, 0.0, "w0")

        def batch(call: Callable[[bytes], object]) -> Callable[[], float]:
            def run() -> float:
                ids = [next_id() for _ in range(STORE_BATCH)]
                if call is not create:
                    for sid in ids:
                        create(sid)
                t0 = time.perf_counter()
                for sid in ids:
                    call(sid)
                return (time.perf_counter() - t0) / STORE_BATCH
            return run

        def spool() -> float:
            """Append 1 MiB in checkpoint-sized blocks to one session."""
            sid = next_id()
            epoch = store.create(sid, 0.0, "w0").epoch
            t0 = time.perf_counter()
            for _ in range(NBYTES // SPOOL_BLOCK):
                total = store.append_payload(sid, "w0", epoch, block, 1.0)
            seconds = time.perf_counter() - t0
            check(total == NBYTES, f"spool holds {total} bytes")
            self.spooled = sid
            return seconds

        def read_back() -> float:
            t0 = time.perf_counter()
            data = store.payload(self.spooled)
            seconds = time.perf_counter() - t0
            check(len(data) == NBYTES, f"spool returned {len(data)} bytes")
            return seconds

        try:
            out = {
                f"store.{backend}.create_us": probe(
                    batch(create), budget, tally
                ) * 1e6,
                f"store.{backend}.claim_us": probe(
                    batch(lambda sid: store.claim(sid, "w1", 1.0)), budget, tally
                ) * 1e6,
                f"store.{backend}.load_us": probe(
                    batch(store.load), budget, tally
                ) * 1e6,
            }
            if backend == "file":
                out["store.file.append_MBps"] = (
                    NBYTES / probe(spool, budget, tally) / MB
                )
                out["store.file.payload_MBps"] = (
                    NBYTES / probe(read_back, budget, tally) / MB
                )
            return out
        finally:
            store.close()
            shutil.rmtree(directory, ignore_errors=True)
