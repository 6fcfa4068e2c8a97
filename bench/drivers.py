"""One closed-loop client per real-socket driver, and the lane a
workload keeps per driver.

Both classes expose the same blocking calls, so a workload is written
once and runs over ``repro.sockets`` (threads) or ``repro.asockets``
(asyncio). Completion comes from the server's ``on_session`` callback
(harness rule 3): the delivery time is read *inside* the callback, on
the thread that finished the session, and handed to the waiting client
through an ``Event`` (threads) or ``call_soon_threadsafe`` into the one
persistent client loop (asyncio). Nothing here calls
``wait_for_sessions``, whose 10 ms poll would quantise every latency.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.asockets import (
    AsyncDepot,
    AsyncLslClient,
    AsyncLslServer,
    AsyncStripedServer,
    async_send_striped,
)
from repro.cluster import LocalCluster, SessionStore
from repro.lsl.core import real_digest_factory
from repro.sockets import (
    LslSocketClient,
    StripedThreadedServer,
    ThreadedDepot,
    ThreadedLslServer,
    send_striped,
)

from bench.harness import CheckFailed, Spans, session_ids

Address = Tuple[str, int]

DELIVERY_TIMEOUT_S = 30.0
#: How often the resume operation looks at the store for the spooled
#: prefix (a load is ~50 us on the file store; no timers on the path).
SPOOL_POLL_S = 0.0002
#: Loopback must stay demand-paced or the first sublink swallows the
#: whole striped payload into kernel buffers.
STRIPED_SNDBUF = 65536


@dataclass
class Delivery:
    """Timestamps of one transfer and what the server delivered."""

    start: float
    granted: float  # session established (client constructor returned)
    sent: float  # last payload byte handed to the transport
    finished: float  # trailer sent, write side closed
    delivered: float  # read inside the server's on_session callback
    result: object  # dropped once verified: it holds the whole payload
    report: object = None  # StripedSendReport for striped sends


@dataclass
class Resumed(Delivery):
    """A suspend/resume operation: two sublinks, one session."""

    suspended: float = 0.0  # first sublink closed without finish()
    spooled: float = 0.0  # the store holds the whole prefix
    rebound: float = 0.0  # rebind answered with the grant
    granted_offset: Optional[int] = None


class Stack:
    """A server and the depots in front of it."""

    def __init__(self, server, depots: Sequence) -> None:
        self.server = server
        self.depots = list(depots)
        self.route: List[Address] = [d.address for d in self.depots] + [
            server.address
        ]

    def close(self) -> None:
        for depot in self.depots:
            depot.shutdown()
        self.server.shutdown()


class _Driver:
    """Stack bring-up shared by both drivers."""

    name: str
    server_cls: type
    depot_cls: type
    striped_server_cls: type

    def on_session(self, result: object) -> None:
        raise NotImplementedError

    def stack(self, depots: int) -> Stack:
        return Stack(
            self.server_cls(on_session=self.on_session),
            [self.depot_cls() for _ in range(depots)],
        )

    def striped_stack(self) -> Stack:
        return Stack(self.striped_server_cls(on_session=self.on_session), [])

    def cluster(self, store: SessionStore, workers: int = 2) -> LocalCluster:
        cluster = LocalCluster(workers, store=store, driver=self.name)
        for node in cluster.nodes:
            node.on_session = self.on_session
        return cluster


class ThreadsDriver(_Driver):
    """Blocking client over ``repro.sockets``."""

    name = "threads"
    layer = "repro.sockets"
    server_cls = ThreadedLslServer
    depot_cls = ThreadedDepot
    striped_server_cls = StripedThreadedServer

    def __init__(self) -> None:
        self._delivered = threading.Event()
        self._slot: Optional[Tuple[float, object]] = None

    def on_session(self, result: object) -> None:
        self._slot = (time.perf_counter(), result)
        self._delivered.set()

    def _expect(self) -> None:
        # a callback that arrived after a failed operation gave up on it
        # must not be taken for this operation's delivery
        self._delivered.clear()
        self._slot = None

    def _await_delivery(self) -> Tuple[float, object]:
        if not self._delivered.wait(DELIVERY_TIMEOUT_S):
            raise CheckFailed("no on_session callback within the timeout")
        slot = self._slot
        assert slot is not None
        return slot

    def close(self) -> None:
        pass

    def transfer(
        self, route: Sequence[Address], payload: bytes, session_id: bytes,
        spans: Spans,
    ) -> Delivery:
        self._expect()
        start = time.perf_counter()
        with spans.span("client.open", self.layer):
            client = LslSocketClient(
                route, payload_length=len(payload), session_id=session_id
            )
        try:
            granted = time.perf_counter()
            with spans.span("client.sendall", self.layer):
                client.sendall(payload)
            sent = time.perf_counter()
            with spans.span("client.finish", self.layer):
                client.finish()
            finished = time.perf_counter()
            with spans.span("server.on_session", self.layer):
                delivered, result = self._await_delivery()
        finally:
            client.close()
        return Delivery(start, granted, sent, finished, delivered, result)

    def striped(
        self, routes: Sequence[Sequence[Address]], payload: bytes,
        session_id: bytes, redundancy: str, spans: Spans,
    ) -> Delivery:
        self._expect()
        start = time.perf_counter()
        with spans.span("send_striped", self.layer):
            report = send_striped(
                routes, payload, session_id=session_id,
                redundancy=redundancy, sndbuf=STRIPED_SNDBUF,
            )
        finished = time.perf_counter()
        with spans.span("server.on_session", self.layer):
            delivered, result = self._await_delivery()
        return Delivery(
            start, start, finished, finished, delivered, result, report
        )

    def resume(
        self, address: Address, store: SessionStore, payload: bytes,
        cut: int, session_id: bytes, spans: Spans,
    ) -> Resumed:
        head, tail = memoryview(payload)[:cut], memoryview(payload)[cut:]
        self._expect()
        start = time.perf_counter()
        with spans.span("client.open", self.layer):
            first = LslSocketClient(
                [address], payload_length=len(payload), session_id=session_id
            )
        granted = time.perf_counter()
        try:
            with spans.span("client.sendall", self.layer):
                first.sendall(head)
        finally:
            with spans.span("client.close", self.layer):
                first.close()  # no finish(): the server suspends
        suspended = time.perf_counter()
        with spans.span("store.load", "repro.cluster"):
            deadline = suspended + DELIVERY_TIMEOUT_S
            while True:
                record = store.load(session_id)
                if record is not None and record.bytes_received >= cut:
                    break
                if time.perf_counter() > deadline:
                    raise CheckFailed("prefix never reached the store")
                time.sleep(SPOOL_POLL_S)
        spooled = time.perf_counter()
        with spans.span("client.rebind", self.layer):
            second = LslSocketClient(
                [address], payload_length=len(payload), session_id=session_id,
                rebind=True, resume_query=True,
                digest_factory=real_digest_factory(payload),
            )
        try:
            rebound = time.perf_counter()
            offset = second.granted_offset
            if offset != cut:
                raise CheckFailed(f"granted {offset}, suspended at {cut}")
            with spans.span("client.sendall", self.layer):
                second.sendall(tail)
            sent = time.perf_counter()
            with spans.span("client.finish", self.layer):
                second.finish()
            finished = time.perf_counter()
            with spans.span("node.on_session", "repro.cluster"):
                delivered, result = self._await_delivery()
        finally:
            second.close()
        return Resumed(
            start, granted, sent, finished, delivered, result,
            suspended=suspended, spooled=spooled, rebound=rebound,
            granted_offset=offset,
        )


class AsyncioDriver(_Driver):
    """The same calls over ``repro.asockets``: one persistent client
    loop on the calling thread (never ``asyncio.run`` per operation);
    each server runs its own loop on its own thread."""

    name = "asyncio"
    layer = "repro.asockets"
    server_cls = AsyncLslServer
    depot_cls = AsyncDepot
    striped_server_cls = AsyncStripedServer

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._pending: Optional[asyncio.Future] = None

    def on_session(self, result: object) -> None:
        self.loop.call_soon_threadsafe(
            self._resolve, time.perf_counter(), result
        )

    def _resolve(self, delivered: float, result: object) -> None:
        pending = self._pending
        if pending is not None and not pending.done():
            pending.set_result((delivered, result))

    def _expect(self) -> None:
        self._pending = self.loop.create_future()

    async def _await_delivery(self):
        assert self._pending is not None
        try:
            return await asyncio.wait_for(self._pending, DELIVERY_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise CheckFailed(
                "no on_session callback within the timeout"
            ) from None
        finally:
            self._pending = None

    def close(self) -> None:
        self.loop.close()

    def transfer(self, route, payload, session_id, spans):
        return self.loop.run_until_complete(
            self._transfer(route, payload, session_id, spans)
        )

    async def _transfer(self, route, payload, session_id, spans) -> Delivery:
        self._expect()
        start = time.perf_counter()
        with spans.span("client.open", self.layer):
            client = await AsyncLslClient.open(
                route, payload_length=len(payload), session_id=session_id
            )
        try:
            granted = time.perf_counter()
            with spans.span("client.sendall", self.layer):
                await client.sendall(payload)
            sent = time.perf_counter()
            with spans.span("client.finish", self.layer):
                await client.finish()
            finished = time.perf_counter()
            with spans.span("server.on_session", self.layer):
                delivered, result = await self._await_delivery()
        finally:
            client.close()
        return Delivery(start, granted, sent, finished, delivered, result)

    def striped(self, routes, payload, session_id, redundancy, spans):
        return self.loop.run_until_complete(
            self._striped(routes, payload, session_id, redundancy, spans)
        )

    async def _striped(
        self, routes, payload, session_id, redundancy, spans
    ) -> Delivery:
        self._expect()
        start = time.perf_counter()
        with spans.span("send_striped", self.layer):
            report = await async_send_striped(
                routes, payload, session_id=session_id,
                redundancy=redundancy, sndbuf=STRIPED_SNDBUF,
            )
        finished = time.perf_counter()
        with spans.span("server.on_session", self.layer):
            delivered, result = await self._await_delivery()
        return Delivery(
            start, start, finished, finished, delivered, result, report
        )

    def resume(self, address, store, payload, cut, session_id, spans):
        return self.loop.run_until_complete(
            self._resume(address, store, payload, cut, session_id, spans)
        )

    async def _resume(
        self, address, store, payload, cut, session_id, spans
    ) -> Resumed:
        head, tail = memoryview(payload)[:cut], memoryview(payload)[cut:]
        self._expect()
        start = time.perf_counter()
        with spans.span("client.open", self.layer):
            first = await AsyncLslClient.open(
                [address], payload_length=len(payload), session_id=session_id
            )
        granted = time.perf_counter()
        try:
            with spans.span("client.sendall", self.layer):
                await first.sendall(head)
        finally:
            with spans.span("client.close", self.layer):
                first.close()  # no finish(): the server suspends
        suspended = time.perf_counter()
        with spans.span("store.load", "repro.cluster"):
            deadline = suspended + DELIVERY_TIMEOUT_S
            while True:
                record = store.load(session_id)
                if record is not None and record.bytes_received >= cut:
                    break
                if time.perf_counter() > deadline:
                    raise CheckFailed("prefix never reached the store")
                await asyncio.sleep(SPOOL_POLL_S)
        spooled = time.perf_counter()
        with spans.span("client.rebind", self.layer):
            second = await AsyncLslClient.open(
                [address], payload_length=len(payload), session_id=session_id,
                rebind=True, resume_query=True,
                digest_factory=real_digest_factory(payload),
            )
        try:
            rebound = time.perf_counter()
            offset = second.granted_offset
            if offset != cut:
                raise CheckFailed(f"granted {offset}, suspended at {cut}")
            with spans.span("client.sendall", self.layer):
                await second.sendall(tail)
            sent = time.perf_counter()
            with spans.span("client.finish", self.layer):
                await second.finish()
            finished = time.perf_counter()
            with spans.span("node.on_session", "repro.cluster"):
                delivered, result = await self._await_delivery()
        finally:
            second.close()
        return Resumed(
            start, granted, sent, finished, delivered, result,
            suspended=suspended, spooled=spooled, rebound=rebound,
            granted_offset=offset,
        )


DRIVERS = {"threads": ThreadsDriver, "asyncio": AsyncioDriver}


class Lane:
    """One driver's client; subclasses add what the client talks to (a
    stack, a cluster) and, in traced runs, each operation's timestamps."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.driver = DRIVERS[name]()
        self.next_id = session_ids(seed, name)
        self.served = 0  # operations since the last recycle
        self.deliveries: List[Delivery] = []

    def keep(self, delivery: Delivery) -> None:
        """Keep a verified operation's timestamps, not its payload."""
        delivery.result = None
        self.deliveries.append(delivery)

    def close(self) -> None:
        self.driver.close()
