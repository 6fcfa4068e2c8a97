"""Real-socket prototype tests (localhost, threaded)."""

import gc
import os
import random
import socket
import threading
import time
import warnings

import pytest

from repro.lsl.core.errors import LslError
from repro.lsl.core.wire import HeaderAccumulator, LslHeader, RouteHop
from repro.sockets import (
    LslSocketClient,
    StripedThreadedServer,
    ThreadedDepot,
    ThreadedLslServer,
    send_striped,
)
from repro.sockets.wire import BlockingLink, run_blocking


def _wait_completed(depot, count=1, timeout=5.0, field="sessions_completed"):
    """Delivery at the server precedes the depot's own teardown (its
    pumps still have the EOFs to see), so the counter is awaited; so is
    a failure, which the relay posts after closing the client's link."""
    deadline = time.monotonic() + timeout
    while (
        getattr(depot.counters, field) < count
        and time.monotonic() < deadline
    ):
        time.sleep(0.005)
    return getattr(depot.counters, field)


def test_direct_session_roundtrip():
    payload = os.urandom(50_000)
    with ThreadedLslServer() as server:
        with LslSocketClient([server.address], payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
    assert result.route_len == 1


def test_one_depot_relay():
    payload = os.urandom(200_000)
    with ThreadedLslServer() as server, ThreadedDepot() as depot:
        route = [depot.address, server.address]
        with LslSocketClient(route, payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
    assert result.route_len == 2
    assert _wait_completed(depot) == 1
    assert depot.counters.bytes_relayed >= len(payload)


def test_two_depot_cascade():
    payload = os.urandom(100_000)
    with ThreadedLslServer() as server, ThreadedDepot() as d1, ThreadedDepot() as d2:
        route = [d1.address, d2.address, server.address]
        with LslSocketClient(route, payload_length=len(payload)) as c:
            c.sendall(payload)
            c.finish()
        assert server.wait_for_sessions(1)
    assert not server.errors
    assert server.results[0].payload == payload
    assert _wait_completed(d1) == 1
    assert _wait_completed(d2) == 1


def test_server_reply_reaches_client_through_depot():
    with ThreadedLslServer(reply=b"PONG") as server, ThreadedDepot() as depot:
        with LslSocketClient(
            [depot.address, server.address], payload_length=4
        ) as c:
            c.sendall(b"PING")
            c.finish()
            got = b""
            while len(got) < 4:
                piece = c.recv()
                if not piece:
                    break
                got += piece
    assert got == b"PONG"


def test_stream_until_fin_mode():
    with ThreadedLslServer() as server:
        with LslSocketClient([server.address], digest=False) as c:
            c.sendall(b"part one ")
            c.sendall(b"part two")
            c.finish()
        assert server.wait_for_sessions(1)
    assert server.results[0].payload == b"part one part two"
    assert server.results[0].digest_ok is None


def test_digest_requires_length():
    with pytest.raises(LslError):
        LslSocketClient([("localhost", 1)], digest=True)


def test_payload_overrun_rejected():
    with ThreadedLslServer() as server:
        with LslSocketClient([server.address], payload_length=3) as c:
            with pytest.raises(LslError):
                c.sendall(b"toolong")
            c.sendall(b"abc")
            c.finish()
        assert server.wait_for_sessions(1)


def test_finish_with_missing_bytes_rejected():
    with ThreadedLslServer() as server:
        with LslSocketClient([server.address], payload_length=10) as c:
            c.sendall(b"only5")
            with pytest.raises(LslError):
                c.finish()
            c.sendall(b"more5")
            c.finish()
        assert server.wait_for_sessions(1)


def test_depot_rejects_being_final_hop():
    with ThreadedDepot() as depot:
        sock = socket.create_connection(depot.address, timeout=5)
        header = LslHeader(
            session_id=bytes(16),
            route=(RouteHop(depot.address[0], depot.address[1]),),
            hop_index=0,
            payload_length=0,
            digest=False,
            sync=False,
        )
        sock.sendall(header.encode())
        # depot should close on us
        sock.settimeout(5)
        assert sock.recv(1) == b""
        sock.close()
    assert _wait_completed(depot, field="sessions_failed") == 1


def test_server_rejects_intermediate_hop_role():
    with ThreadedLslServer() as server:
        sock = socket.create_connection(server.address, timeout=5)
        header = LslHeader(
            session_id=bytes(16),
            route=(
                RouteHop(server.address[0], server.address[1]),
                RouteHop("elsewhere", 1234),
            ),
            hop_index=0,  # server is NOT last
            payload_length=0,
            digest=False,
            sync=False,
        )
        sock.sendall(header.encode())
        sock.settimeout(5)
        assert sock.recv(1) == b""
        sock.close()
        assert server.wait_for_sessions(1)
    assert server.errors


def test_wire_read_header_roundtrip():
    # ``read_header`` is gone: a pooled worker now reads a sublink with
    # ``run_blocking``, which hands a session object whatever arrives
    a, b = socket.socketpair()
    header = LslHeader(
        session_id=os.urandom(16),
        route=(RouteHop("host-x", 1234), RouteHop("host-y", 4321)),
        hop_index=1,
        payload_length=77,
    )
    a.sendall(header.encode() + b"surplus-untouched")
    a.close()

    class Recorder:
        def __init__(self):
            self.acc = HeaderAccumulator()
            self.parsed = None
            self.got = b""
            self.calls = []

        def received(self, link, data):
            if self.parsed is None:
                self.parsed = self.acc.feed(data)
                # over-read bytes are handed back, in order, as surplus
                data = self.acc.surplus if self.parsed is not None else b""
            self.got += data

        def ended(self, link):
            self.calls.append("ended")

        def broken(self, link, exc):
            self.calls.append("broken")

    session, link = Recorder(), BlockingLink(b)
    run_blocking(link, session)
    assert session.parsed == header
    assert session.got == b"surplus-untouched"
    assert session.calls == ["ended"]
    assert link.closed and b.fileno() == -1


class _Reads:
    def __init__(self):
        self.got = b""
        self.calls = []

    def received(self, link, data):
        self.got += data

    def ended(self, link):
        self.calls.append("ended")

    def broken(self, link, exc):
        self.calls.append("broken")


def test_a_paused_blocking_link_reads_nothing_until_resumed():
    a, b = socket.socketpair()
    with a:
        reads, link = _Reads(), BlockingLink(b)
        link.pause()
        reader = threading.Thread(target=run_blocking, args=(link, reads))
        reader.start()
        a.sendall(b"held")
        a.shutdown(socket.SHUT_WR)
        time.sleep(0.2)
        assert reads.got == b"" and reads.calls == []
        link.resume()
        reader.join(5)
    assert not reader.is_alive()
    assert reads.got == b"held" and reads.calls == ["ended"]


def test_closing_a_paused_blocking_link_releases_its_reader():
    a, b = socket.socketpair()
    with a:
        reads, link = _Reads(), BlockingLink(b)
        link.pause()
        reader = threading.Thread(target=run_blocking, args=(link, reads))
        reader.start()
        a.sendall(b"never read")
        time.sleep(0.1)
        link.close()
        reader.join(5)
    assert not reader.is_alive()
    assert reads.got == b"" and reads.calls == []
    assert b.fileno() == -1


def test_concurrent_sessions_through_one_depot():
    payloads = [os.urandom(30_000) for _ in range(4)]
    with ThreadedLslServer() as server, ThreadedDepot() as depot:
        clients = []
        for p in payloads:
            c = LslSocketClient(
                [depot.address, server.address], payload_length=len(p)
            )
            c.sendall(p)
            c.finish()
            clients.append(c)
        assert server.wait_for_sessions(4)
        for c in clients:
            c.close()
    assert not server.errors
    got = sorted(r.payload for r in server.results)
    assert got == sorted(payloads)


def test_client_closes_its_socket_when_establishment_times_out():
    """A first hop that accepts (its backlog does) and never answers:
    the ack read times out after ``timeout`` and the socket is closed
    with the error, not left to the garbage collector."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                LslSocketClient(
                    [listener.getsockname()], payload_length=0, timeout=0.3
                )
            elapsed = time.monotonic() - start
            gc.collect()
    finally:
        listener.close()
    assert elapsed < 1.0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class _ThrottlingProxy:
    """One loopback hop that forwards client-to-server bytes at about
    ``rate`` bytes/s (the reverse direction unthrottled). Its small
    receive buffer keeps the client's ``sendall`` blocked on the pace."""

    CHUNK = 16384

    def __init__(self, target, rate: float) -> None:
        self._target = target
        self._pause = self.CHUNK / rate
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.address = self._listener.getsockname()
        self._threads = []
        self._sockets = []
        self._accepting = threading.Thread(target=self._accept, daemon=True)
        self._accepting.start()

    def _accept(self) -> None:
        while True:
            try:
                down, _ = self._listener.accept()
            except OSError:
                return
            up = socket.create_connection(self._target)
            self._sockets += [down, up]
            for src, dst, pause in ((down, up, self._pause), (up, down, 0.0)):
                t = threading.Thread(
                    target=self._pump, args=(src, dst, pause), daemon=True
                )
                t.start()
                self._threads.append(t)

    def _pump(self, src, dst, pause: float) -> None:
        try:
            while True:
                data = src.recv(self.CHUNK)
                if not data:
                    dst.shutdown(socket.SHUT_WR)
                    return
                dst.sendall(data)
                time.sleep(pause)
        except OSError:
            pass

    def close(self) -> None:
        self._listener.close()
        self._accepting.join(5)
        for t in self._threads:
            t.join(5)
        for sock in self._sockets:
            sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: a payload that takes about 1 s through the proxy, four times the
#: dial timeout, more than the kernel buffers on the way can hold
SLOW_PAYLOAD_BYTES = 8 << 20
SLOW_RATE = 8e6
DIAL_TIMEOUT = 0.25


def test_payload_slower_than_the_dial_timeout_still_completes():
    """``timeout`` bounds the dial and establishment: a payload that
    drains steadily but takes longer than it to send must not raise
    ``TimeoutError`` half way."""
    payload = os.urandom(SLOW_PAYLOAD_BYTES)
    with ThreadedLslServer() as server, \
            _ThrottlingProxy(server.address, SLOW_RATE) as proxy:
        with LslSocketClient(
            [proxy.address], payload_length=len(payload),
            timeout=DIAL_TIMEOUT,
        ) as client:
            start = time.monotonic()
            client.sendall(payload)
            client.finish()
            elapsed = time.monotonic() - start
        assert server.wait_for_sessions(1, timeout=10)
    assert elapsed > DIAL_TIMEOUT
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True


def test_striped_sublink_slower_than_the_dial_timeout_still_completes():
    """The same for a striped sublink: one stripe's send takes about
    twice the dial timeout."""
    payload = os.urandom(SLOW_PAYLOAD_BYTES // 4)
    with StripedThreadedServer() as server, \
            _ThrottlingProxy(server.address, SLOW_RATE / 4) as proxy:
        report = send_striped(
            [[proxy.address]], payload, stripe_bytes=len(payload) // 2,
            timeout=DIAL_TIMEOUT, sndbuf=65536,
        )
        assert server.wait_for_sessions(1, timeout=10)
    assert report.sublink_errors == []
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload
    assert result.digest_ok is True
