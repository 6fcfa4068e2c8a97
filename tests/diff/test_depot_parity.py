"""Differential: one depot, whichever driver runs it.

The same scripted upstream behaviours against the simulator's depot,
the threaded depot and the asyncio depot must leave the same
``counters.snapshot()`` (``active_sessions`` read once the relays
drained) and the same number of ``relay-failed`` events — the outcome
of a session is a property of the depot, not of the transport under
it. The next hop is a raw sink that reads to EOF and then closes, or
holds its end open (``hold``) as a server with a reply still to send
would. The admission cap is checked on the simulator alone: no live
constructor takes one.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.asockets import AsyncDepot
from repro.lsl.depot import Depot
from repro.net.topology import Network
from repro.sockets import ThreadedDepot
from repro.sockets.client import plan_client_session
from repro.tcp.sockets import TcpStack
from repro.telemetry.hub import Telemetry

PAYLOAD = bytes(range(256)) * 32  # 8 KiB
HALF = len(PAYLOAD) // 2
GARBAGE = b"GET / HTTP/1.0\r\n\r\n" + bytes(64)


def _header(route) -> bytes:
    header, _, _ = plan_client_session(
        route, payload_length=len(PAYLOAD), sync=False
    )
    return header.encode()


#: name -> (the route after the depot, the script, the sink holds its
#: end open after EOF). Routes name the sink "sink" and a port nothing
#: listens on "closed"; an empty one makes the depot the final hop.
BEHAVIOURS = {
    "clean relay": (["sink"], [
        ("send", "header+payload"), ("fin",), ("wait_sink", len(PAYLOAD), True),
    ], False),
    "connect and close": ([], [("fin",)], False),
    "header prefix then FIN": (["sink"], [("send", "header[:10]"), ("fin",)], False),
    "garbage header": (["sink"], [("send", "garbage")], False),
    "depot as final hop": ([], [("send", "header")], False),
    "refused dial": (["closed"], [("send", "header")], False),
    "reset before upstream EOF": (["sink"], [
        ("send", "header+half"), ("wait_sink", HALF, False), ("reset",),
    ], False),
    "reset after upstream EOF": (["sink"], [
        ("send", "header+payload"), ("fin",), ("wait_sink", len(PAYLOAD), True),
        ("reset",), ("reply", b"REPLY"),
    ], True),
    "shutdown in flight": (["sink"], [
        ("send", "header+half"), ("wait_sink", HALF, False), ("shutdown",),
    ], False),
}

#: what each behaviour must count (the drivers must also agree on the rest)
EXPECTED = {
    # name: (accepted, completed, failed, bytes_relayed, relay-failed events)
    "clean relay": (1, 1, 0, len(PAYLOAD), 0),
    "connect and close": (0, 0, 0, 0, 0),
    "header prefix then FIN": (1, 0, 1, 0, 1),
    "garbage header": (1, 0, 1, 0, 1),
    "depot as final hop": (1, 0, 1, 0, 1),
    "refused dial": (1, 0, 1, 0, 1),
    "reset before upstream EOF": (1, 0, 1, HALF, 1),
    "reset after upstream EOF": (1, 1, 0, len(PAYLOAD), 0),
    "shutdown in flight": (1, 0, 1, HALF, 1),
}


def _data(what: str, route) -> bytes:
    header = _header(route)
    return {
        "header+payload": header + PAYLOAD,
        "header+half": header + PAYLOAD[:HALF],
        "header[:10]": header[:10],
        "header": header,
        "garbage": GARBAGE,
    }[what]


# -- the simulator ------------------------------------------------------------


class SimRun:
    """A client, the depot and a raw sink on three simulated hosts."""

    def __init__(self, hold: bool, max_sessions=None) -> None:
        self.net = net = Network(seed=11)
        for host in ("c", "d", "s"):
            net.add_host(host)
        net.add_link("c", "d", 100e6, 2.0)
        net.add_link("d", "s", 100e6, 2.0)
        net.finalize()
        # enabled but never attached: records protocol events, samples nothing
        self.telemetry = net.telemetry = Telemetry(net.sim)
        self.stacks = {h: TcpStack(net.host(h)) for h in ("c", "d", "s")}
        self.depot = Depot(self.stacks["d"], 4000, max_sessions=max_sessions)
        self.hold = hold
        self.sink_got = 0
        self.sink_eof = False
        self.sink = None
        self.stacks["s"].socket().listen(5000, self._sink_accept)

    def _sink_accept(self, sock) -> None:
        self.sink = sock

        def readable():
            self.sink_got += sum(c.length for c in sock.recv())

        def fin():
            self.sink_eof = True
            if not self.hold:
                sock.close()

        sock.on_readable, sock.on_peer_fin = readable, fin

    def route(self, hops):
        names = {"sink": ("s", 5000), "closed": ("s", 5999)}
        return [("d", 4000)] + [names[h] for h in hops]

    def _until(self, predicate, limit=30.0) -> None:
        sim = self.net.sim
        deadline = sim.now + limit
        while not predicate() and sim.now < deadline:
            sim.run(until=sim.now + 0.005)
        assert predicate()

    def connect(self):
        sock = self.stacks["c"].socket()
        sock.on_readable = sock.recv  # a reply is read and dropped
        sock.connect(("d", 4000))
        self._until(lambda: sock.connected)
        return sock

    def run(self, hops, script):
        route = self.route(hops)
        client = self.connect()
        for step, *args in script:
            if step == "send":
                assert client.send(_data(args[0], route)) == len(
                    _data(args[0], route)
                )
            elif step == "fin":
                client.close()
            elif step == "reset":
                client.abort()
            elif step == "wait_sink":
                n, eof = args
                self._until(lambda: self.sink_got >= n and (self.sink_eof or not eof))
            elif step == "reply":
                self.net.sim.run(until=self.net.sim.now + 1.0)
                if not self.sink.closed:  # the depot reset it already
                    self.sink.send(args[0])
            elif step == "shutdown":
                self.depot.shutdown()
        self.net.sim.run(until=self.net.sim.now + 300.0)
        return self.result()

    def result(self):
        failed = self.telemetry.metrics.counter("lsl.proto.relay-failed").value
        return self.depot.counters.snapshot(), failed


# -- the live drivers ---------------------------------------------------------


class RecordingObserver:
    def __init__(self) -> None:
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, event) -> None:
        with self._lock:
            self.events.append(event)

    def count(self, kind: str) -> int:
        with self._lock:
            return sum(1 for e in self.events if e.kind == kind)


def _wait(predicate, timeout=10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class Sink:
    """Accept one connection on loopback and read it to its end."""

    def __init__(self, hold: bool) -> None:
        self.hold = hold
        self.got = 0
        self.eof = False
        self.conn = None
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self.listener.accept()
        except OSError:
            return  # closed unused
        self.conn = conn
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                self.got += len(data)
        except OSError:
            return
        self.eof = True
        if self.hold:
            return
        conn.close()

    def close(self) -> None:
        self.listener.close()
        self._thread.join(5)
        if self.conn is not None:
            self.conn.close()


class LiveRun:
    def __init__(self, driver: str, hold: bool) -> None:
        self.observer = RecordingObserver()
        cls = ThreadedDepot if driver == "threads" else AsyncDepot
        self.depot = cls(observer=self.observer)
        self.sink = Sink(hold)
        # a port nothing listens on: bound, never listening
        self.closed = socket.socket()
        self.closed.bind(("127.0.0.1", 0))

    def route(self, hops):
        names = {"sink": self.sink.address, "closed": self.closed.getsockname()}
        return [self.depot.address] + [names[h] for h in hops]

    def run(self, hops, script):
        route = self.route(hops)
        client = socket.create_connection(self.depot.address, timeout=10)
        try:
            for step, *args in script:
                if step == "send":
                    client.sendall(_data(args[0], route))
                elif step == "fin":
                    client.shutdown(socket.SHUT_WR)
                elif step == "reset":
                    client.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    client.close()
                elif step == "wait_sink":
                    n, eof = args
                    assert _wait(
                        lambda: self.sink.got >= n and (self.sink.eof or not eof)
                    )
                elif step == "reply":
                    self.sink.conn.sendall(args[0])
                elif step == "shutdown":
                    self.depot.shutdown(drain=False)
            if client.fileno() != -1:
                # the depot ends the session: the client reads its end
                try:
                    while client.recv(65536):
                        pass
                except OSError:
                    pass
            assert _wait(lambda: self.depot.counters.active_sessions == 0)
            return self.depot.counters.snapshot(), self.observer.count("relay-failed")
        finally:
            client.close()
            self.depot.shutdown()
            self.sink.close()
            self.closed.close()


@pytest.mark.parametrize("name", list(BEHAVIOURS))
def test_every_driver_counts_a_behaviour_alike(name):
    hops, script, hold = BEHAVIOURS[name]
    sim = SimRun(hold).run(hops, script)
    snap, failed = sim
    accepted, completed, failures, relayed, events = EXPECTED[name]
    assert (
        snap["sessions_accepted"], snap["sessions_completed"],
        snap["sessions_failed"], snap["bytes_relayed"], failed,
    ) == (accepted, completed, failures, relayed, events)
    assert snap["active_sessions"] == 0
    for driver in ("threads", "asyncio"):
        assert LiveRun(driver, hold).run(hops, script) == sim, driver


def test_the_admission_cap_refuses_with_a_reset_and_never_accepts():
    run = SimRun(hold=True, max_sessions=1)
    route = run.route(["sink"])
    first = run.connect()
    first.send(_data("header+half", route))
    run._until(lambda: run.sink_got >= HALF)
    closed = []
    second = run.stacks["c"].socket()
    second.on_close = closed.append
    second.connect(("d", 4000))
    run._until(lambda: bool(closed))
    assert closed[0] is not None  # refused with a reset
    snap = run.depot.counters.snapshot()
    assert (snap["sessions_accepted"], snap["sessions_refused"]) == (1, 1)
    assert snap["active_sessions"] == 1
    first.abort()
    run.net.sim.run(until=run.net.sim.now + 300.0)
    snap, failed = run.result()
    assert (snap["sessions_failed"], snap["active_sessions"], failed) == (1, 0, 1)
