"""One dial rule for both drivers (:func:`repro.sockets.wire.dial`).

Every threaded dial — the client's first hop, a depot's next hop, each
striped sublink — is a blocking ``AF_INET`` connect bounded by its
timeout, and closes its socket when the connect fails; the asyncio
depot dials by the same rule (:func:`repro.asockets.runtime.dial`). A
name resolves on the dialling side, an IPv6 literal is a failed dial,
never a relay over IPv6.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.asockets import AsyncDepot
from repro.lsl.core.errors import LslError, ProtocolError
from repro.sockets import (
    LslSocketClient,
    ThreadedDepot,
    ThreadedLslServer,
    send_striped,
    wire,
)

PAYLOAD = bytes(range(256)) * 16
WAIT_S = 10.0  # bound on every wait; reaching it is a failure

DEPOTS = {"threads": ThreadedDepot, "asyncio": AsyncDepot}


class Observer:
    """A thread-safe ProtocolObserver that keeps every event."""

    def __init__(self):
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, event):
        with self._lock:
            self.events.append(event)

    def of(self, kind):
        with self._lock:
            return [e for e in self.events if e.kind == kind]


def _wait(predicate):
    deadline = time.monotonic() + WAIT_S
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture
def dialled(monkeypatch):
    """``dialled(address)``: the sockets :func:`wire.dial` has made to
    dial ``address`` since the test began."""
    made = []

    class Recorded(socket.socket):
        def connect(self, address):
            made.append((tuple(address), self))
            super().connect(address)

    class SocketModule:
        def __getattr__(self, name):
            return getattr(socket, name)

    module = SocketModule()
    module.socket = Recorded
    monkeypatch.setattr(wire, "socket", module)
    return lambda address: [sock for to, sock in made if to == tuple(address)]


@pytest.fixture
def refused():
    """An address nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


@pytest.fixture
def full_listener():
    """A listener whose accept queue is full: a connect to it gets no
    answer, so only the dial's timeout ends it (Linux drops the SYN)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    address = listener.getsockname()
    queued = []
    try:
        for _ in range(8):
            probe = socket.socket()
            probe.settimeout(0.2)
            try:
                probe.connect(address)
            except TimeoutError:
                probe.close()
                break
            queued.append(probe)
        else:
            pytest.fail("the accept queue never filled")
        yield address
    finally:
        for probe in queued:
            probe.close()
        listener.close()


def _send(route, timeout=WAIT_S, payload=PAYLOAD):
    with LslSocketClient(route, payload_length=len(payload), timeout=timeout) as client:
        client.sendall(payload)
        client.finish()


# -- a refused hop closes its socket ----------------------------------------


def test_refused_client_dial_closes_its_socket(dialled, refused):
    with pytest.raises(ConnectionRefusedError):
        _send([refused])
    (sock,) = dialled(refused)
    assert sock.fileno() == -1


def test_refused_depot_dial_closes_its_socket_and_fails_the_session(
    dialled, refused
):
    observer = Observer()
    with ThreadedDepot(observer=observer) as depot:
        with pytest.raises((OSError, ProtocolError)):
            _send([depot.address, refused])
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    (sock,) = dialled(refused)
    assert sock.fileno() == -1
    (event,) = observer.of("relay-failed")
    assert "ConnectionRefusedError" in event.detail["reason"]


def test_refused_striped_dials_close_their_sockets(dialled, refused):
    with pytest.raises(LslError):
        send_striped([[refused], [refused]], PAYLOAD, timeout=WAIT_S)
    socks = dialled(refused)
    assert len(socks) == 2
    assert all(sock.fileno() == -1 for sock in socks)


# -- AF_INET on both drivers ------------------------------------------------


@pytest.mark.parametrize("driver", sorted(DEPOTS))
def test_ipv6_hop_is_one_failed_session(driver):
    observer = Observer()
    with ThreadedLslServer() as server, DEPOTS[driver](observer=observer) as depot:
        with pytest.raises((OSError, ProtocolError)):
            _send([depot.address, ("::1", server.address[1])])
        assert _wait(lambda: depot.counters.active_sessions == 0)
        snap = depot.counters.snapshot()
    assert snap["sessions_failed"] == 1
    assert snap["sessions_completed"] == 0
    (event,) = observer.of("relay-failed")
    assert "gaierror" in event.detail["reason"]
    assert server.results == []


@pytest.mark.parametrize("driver", sorted(DEPOTS))
def test_localhost_hop_relays(driver):
    with ThreadedLslServer() as server, DEPOTS[driver]() as depot:
        _send([("localhost", depot.address[1]), ("localhost", server.address[1])])
        assert server.wait_for_sessions(1, timeout=WAIT_S)
        assert _wait(lambda: depot.counters.sessions_completed == 1)
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok


# -- the timeout bounds a dial nobody answers -------------------------------


def test_connect_timeout_bounds_a_threaded_client_dial(dialled, full_listener):
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        _send([full_listener], timeout=0.3)
    assert time.monotonic() - start < WAIT_S / 2
    (sock,) = dialled(full_listener)
    assert sock.fileno() == -1


def test_connect_timeout_bounds_a_threaded_depot_dial(dialled, full_listener):
    observer = Observer()
    with ThreadedDepot(observer=observer, connect_timeout=0.3) as depot:
        start = time.monotonic()
        with pytest.raises((OSError, ProtocolError)):
            _send([depot.address, full_listener])
        assert _wait(lambda: depot.counters.sessions_failed == 1)
        assert time.monotonic() - start < WAIT_S / 2
    (sock,) = dialled(full_listener)
    assert sock.fileno() == -1
    (event,) = observer.of("relay-failed")
    assert "TimeoutError" in event.detail["reason"]
