"""``core_codec``: the sans-I/O library all three drivers embed, driven
in memory on one thread. No sockets, no simulator.

Lane 1 (``framed``) is 8 MiB through ``PayloadSender`` (framed, digest)
-> ``FramedReceiver`` in 64 KiB feeds. Lane 2 (``parity``) is 2 MiB
through ``StripeScheduler`` -> 3 wires -> ``StripeAssembler`` with
``parity``, one data frame of every group withheld so every group is
XOR-reconstructed. Parity (a byte-wise XOR in Python, ~10 MB/s against
~300 MB/s for the framed stream) is measurable only here: over sockets
the same machines spread +-25 % run to run. ``LslHeader`` encode ->
``HeaderAccumulator`` parse round trips of a 3-hop traced header are a
layer probe (``core.header_kops``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

from repro.lsl.core import (
    Chunk,
    Completed,
    Deliver,
    FrameDecoder,
    FramedReceiver,
    HeaderAccumulator,
    LslHeader,
    PayloadSender,
    RouteHop,
    SessionAcceptor,
    SessionRegistry,
    StreamDigest,
    StripeAssembler,
    StripeScheduler,
    TraceContext,
    encode_frame_header,
    parse_redundancy,
)
from repro.lsl.core.striping import KIND_DATA

from bench.harness import (
    MB,
    MIB,
    Spans,
    Tally,
    check,
    seeded_payload,
    seeded_rng,
)
from bench.workload import Measured, Op, Workload, probe

LAYER = "repro.lsl.core"
HEADER_TRIPS = 1000
FRAMED_BYTES = 8 * MIB
FEED = 64 << 10
STRIPED_BYTES = 2 * MIB
SUBLINKS = ("a", "b", "c")
ROUTE = (
    RouteHop("10.0.0.1", 4000),
    RouteHop("10.0.0.2", 4000),
    RouteHop("10.0.0.3", 5000),
)


class CoreCodec(Workload):
    LANES = ("framed", "parity")
    LAYER_METRICS = tuple("core." + name for name in (
        "header_kops", "framed_MBps", "parity_MBps", "header_encode_us",
        "header_parse_us", "acceptor_decide_us", "digest_MBps",
        "frame_encode_MBps", "frame_decode_MBps", "sched_none_MBps",
        "sched_dup1_MBps", "sched_parity_MBps", "asm_none_MBps",
        "asm_dup1_MBps", "asm_parity_reconstruct_MBps",
    ))

    def setup(self) -> None:
        rng = seeded_rng(self.seed, "core_codec")
        self.framed_payload = seeded_payload(self.seed, "framed", FRAMED_BYTES)
        self.striped_payload = seeded_payload(self.seed, "striped", STRIPED_BYTES)
        self.headers = [
            LslHeader(
                session_id=rng.randbytes(16),
                route=ROUTE,
                payload_length=FRAMED_BYTES,
                framed=True,
                trace=TraceContext(rng.randbytes(16), rng.getrandbits(63), 1),
            )
            for _ in range(64)
        ]
        group = parse_redundancy("parity").group
        stripes = StripeScheduler(STRIPED_BYTES).stripe_bytes
        groups = -(-STRIPED_BYTES // (stripes * group))
        # which stripe of each parity group the "network" loses
        self.withheld = {g * group + rng.randrange(group) for g in range(groups)}

    def lane_ops(self, spans: Spans) -> List[Op]:
        return [
            lambda: self.framed(spans),
            lambda: sum(self.striped("parity", self.withheld, spans)),
        ]

    # -- headers (a layer probe) -------------------------------------------------------

    def header_trips(self) -> float:
        headers = self.headers
        parsed = []
        t0 = time.perf_counter()
        for i in range(HEADER_TRIPS):
            wire = headers[i % len(headers)].encode()
            parsed.append(HeaderAccumulator().feed(wire))
        seconds = time.perf_counter() - t0
        check(
            all(p == headers[i % len(headers)] for i, p in enumerate(parsed)),
            "header did not round-trip",
        )
        return seconds

    # -- lane 1: framed + digested stream ------------------------------------

    def framed(self, spans: Spans) -> float:
        payload, header = self.framed_payload, self.headers[0]
        delivered: List[bytes] = []
        digest_ok = None
        with spans.span("framed.stream", LAYER):
            t0 = time.perf_counter()
            sender = PayloadSender(header)
            receiver = FramedReceiver(header)
            for pos in range(0, len(payload), FEED):
                piece = payload[pos : pos + FEED]
                wire = encode_frame_header(sender.bytes_sent, len(piece)) + piece
                sender.record(piece)
                for event in receiver.feed([Chunk.real(wire)]):
                    delivered.append(event.chunk.data)
            trailer = sender.finish()
            wire = encode_frame_header(len(payload), len(trailer)) + trailer
            for event in receiver.feed([Chunk.real(wire)]):
                if isinstance(event, Completed):
                    digest_ok = event.digest_ok
            seconds = time.perf_counter() - t0
        check(digest_ok is True, "framed stream: digest not verified")
        check(b"".join(delivered) == payload, "framed stream: bytes differ")
        return seconds

    # -- lane 2: striping ----------------------------------------------------

    def striped(
        self, redundancy: str, withheld, spans: Spans
    ) -> Tuple[float, float]:
        """Deal the payload over three wires, lose the ``withheld``
        stripes, reassemble; returns (dealing, reassembly) seconds."""
        payload = self.striped_payload
        with spans.span(f"StripeScheduler[{redundancy}]", LAYER):
            t0 = time.perf_counter()
            scheduler = StripeScheduler(
                len(payload), payload, redundancy=parse_redundancy(redundancy)
            )
            for key in SUBLINKS:
                scheduler.add_sublink(key)
            wires: Dict[str, List[bytes]] = {key: [] for key in SUBLINKS}
            live = list(SUBLINKS)
            while live:
                for key in list(live):
                    a = scheduler.next_assignment(key)
                    if a is None:
                        scheduler.sublink_finished(key)
                        live.remove(key)
                        continue
                    a.header_sent, a.sent = True, a.length
                    if (
                        a.kind == KIND_DATA
                        and a.offset // scheduler.stripe_bytes in withheld
                    ):
                        continue
                    wires[key].append(a.frame_header() + a.payload)
            deal_s = time.perf_counter() - t0
        delivered: List[bytes] = []
        digest_ok = None
        with spans.span(f"StripeAssembler[{redundancy}]", LAYER):
            t0 = time.perf_counter()
            assembler = StripeAssembler(len(payload))
            for key in SUBLINKS:
                assembler.attach(key)
            feeds = {key: iter(frames) for key, frames in wires.items()}
            live = list(SUBLINKS)
            while live:
                for key in list(live):
                    frame = next(feeds[key], None)
                    if frame is None:
                        assembler.sublink_closed(key)
                        live.remove(key)
                        continue
                    for event in assembler.feed_bytes(key, frame):
                        if isinstance(event, Deliver):
                            delivered.append(event.chunk.data)
                        elif isinstance(event, Completed):
                            digest_ok = event.digest_ok
            assemble_s = time.perf_counter() - t0
        check(digest_ok is True, f"{redundancy}: digest not verified")
        check(b"".join(delivered) == payload, f"{redundancy}: bytes differ")
        check(
            assembler.reconstructed_blocks == len(withheld),
            f"{redundancy}: {assembler.reconstructed_blocks} blocks rebuilt, "
            f"{len(withheld)} withheld",
        )
        return deal_s, assemble_s

    # -- per-layer probes --------------------------------------------------

    def layers(
        self, seconds: float, tally: Tally, base: Measured
    ) -> Dict[str, float]:
        quiet = Spans(enabled=False)
        budget = seconds / 14
        header = self.headers[0]
        wire = header.encode()
        payload = self.framed_payload
        pieces = [payload[p : p + FEED] for p in range(0, len(payload), FEED)]
        frames = [
            encode_frame_header(i * FEED, len(piece)) + piece
            for i, piece in enumerate(pieces)
        ]

        def timed(fn: Callable[[], object]) -> float:
            """Quiet seconds of one call of ``fn``."""
            def run() -> float:
                t0 = time.perf_counter()
                fn()
                return time.perf_counter() - t0
            return probe(run, budget, tally)

        def encode_100() -> None:
            for _ in range(100):
                header.encode()

        def parse_100() -> None:
            for _ in range(100):
                HeaderAccumulator().feed(wire)

        def decide_100() -> None:
            acceptor = SessionAcceptor(SessionRegistry())
            for h in self.headers:
                acceptor.decide(h, 0.0)
            for h in self.headers[:36]:
                acceptor.decide(h, 1.0)  # an id seen before: the restart path

        def digest() -> None:
            state = StreamDigest()
            for piece in pieces:
                state.update(piece)
            state.digest()

        def frame_encode() -> None:
            for i, piece in enumerate(pieces):
                encode_frame_header(i * FEED, len(piece)) + piece

        def frame_decode() -> None:
            decoder = FrameDecoder(lambda offset, chunk: None)
            for frame in frames:
                decoder.feed_bytes(frame)

        def striping(redundancy: str, withheld) -> Tuple[float, float]:
            """Quiet dealing and reassembly seconds."""
            part = {}
            for index in (0, 1):
                part[index] = probe(
                    lambda: self.striped(redundancy, withheld, quiet)[index],
                    budget, tally,
                )
            return part[0], part[1]

        plain = striping("none", ())
        dup1 = striping("duplicate-1", ())
        parity = striping("parity", self.withheld)
        framed_s, parity_s = (lane.value for lane in base.lanes)
        framed_MB, striped_MB = FRAMED_BYTES / MB, STRIPED_BYTES / MB
        return {
            "core.header_kops": HEADER_TRIPS
            / probe(self.header_trips, budget, tally) / 1e3,
            "core.framed_MBps": framed_MB / framed_s,
            "core.parity_MBps": striped_MB / parity_s,
            "core.header_encode_us": timed(encode_100) * 1e4,
            "core.header_parse_us": timed(parse_100) * 1e4,
            "core.acceptor_decide_us": timed(decide_100) * 1e4,
            "core.digest_MBps": framed_MB / timed(digest),
            "core.frame_encode_MBps": framed_MB / timed(frame_encode),
            "core.frame_decode_MBps": framed_MB / timed(frame_decode),
            "core.sched_none_MBps": striped_MB / plain[0],
            "core.sched_dup1_MBps": striped_MB / dup1[0],
            "core.sched_parity_MBps": striped_MB / parity[0],
            "core.asm_none_MBps": striped_MB / plain[1],
            "core.asm_dup1_MBps": striped_MB / dup1[1],
            "core.asm_parity_reconstruct_MBps": striped_MB / parity[1],
        }
