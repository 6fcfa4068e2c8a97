"""Regression tests for three ``lsd`` / server lifecycle bugs.

1. **Relay idle-kill**: the downstream dial's ``connect_timeout`` used
   to stay armed on the socket for the whole relay, so any mid-transfer
   idle gap longer than it (a stalled sender, a long zero-window) killed
   a healthy session with ``TimeoutError``.
2. **Accept-loop permadeath**: any ``OSError`` out of ``accept()`` —
   including per-connection transients like EMFILE or ECONNABORTED —
   exited the accept loop, permanently wedging a depot/server that
   ``/healthz`` still reported as healthy.
3. **Silent session failure**: relay failures vanished into
   ``except Exception: pass`` with no counter or event. (The dead
   thread handle each session also used to leave behind is gone with
   the per-session threads; ``test_workers.py`` counts thread starts.)

Plus coverage for the depot failure-path counters: each distinct way a
session can die must land in ``sessions_failed`` with an observable
``relay-failed`` event carrying the reason.
"""

from __future__ import annotations

import errno
import os
import socket
import sys
import threading
import time

import pytest

from repro.lsl.core.errors import ProtocolError
from repro.sockets import LslSocketClient, ThreadedDepot, ThreadedLslServer
from repro.sockets.client import plan_client_session

PAYLOAD = bytes(range(256)) * 400  # 102_400 bytes


class RecordingObserver:
    """Collect protocol events (a ProtocolObserver callable), thread-safe."""

    def __init__(self) -> None:
        self.events = []
        self._lock = threading.Lock()

    def __call__(self, event):
        with self._lock:
            self.events.append(event)

    def kinds(self):
        with self._lock:
            return [e.kind for e in self.events]

    def detail_for(self, kind):
        with self._lock:
            for e in self.events:
                if e.kind == kind:
                    return e.detail
        return None


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- bug 1: relay idle-kill -------------------------------------------------


def test_relay_survives_idle_gap_longer_than_connect_timeout():
    """A sender that stalls longer than the depot's dial timeout and
    then resumes must still complete — the timeout bounds the *connect*
    only, never an established relay."""
    with ThreadedLslServer() as server:
        with ThreadedDepot(connect_timeout=0.3) as depot:
            client = LslSocketClient(
                [depot.address, server.address], payload_length=len(PAYLOAD)
            )
            half = len(PAYLOAD) // 2
            client.sendall(PAYLOAD[:half])
            time.sleep(0.8)  # well past connect_timeout mid-transfer
            client.sendall(PAYLOAD[half:])
            client.finish()
            assert server.wait_for_sessions(1, timeout=10)
            client.close()
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True


# -- bug 2: accept-loop permadeath -----------------------------------------


class _FlakyListener:
    """Listener proxy whose accept() fails transiently N times first."""

    def __init__(self, inner, failures, err=errno.EMFILE):
        self._inner = inner
        self._failures = failures
        self._err = err

    def accept(self):
        if self._failures > 0:
            self._failures -= 1
            raise OSError(self._err, "injected transient accept failure")
        return self._inner.accept()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _flush_pending_accept(address):
    """The accept thread is already blocked inside the *real*
    ``accept()`` when a test swaps in the flaky proxy — one throwaway
    connection makes that in-flight call return, so the next loop
    iteration goes through the proxy."""
    dummy = socket.create_connection(address, timeout=5)
    # a FIN before any byte: a depot counts a failed session, a server
    # records nothing
    dummy.close()


def test_depot_accept_loop_survives_transient_oserror():
    observer = RecordingObserver()
    with ThreadedLslServer() as server:
        with ThreadedDepot(observer=observer) as depot:
            depot._listener = _FlakyListener(depot._listener, failures=2)
            _flush_pending_accept(depot.address)
            assert _wait(lambda: depot.counters.accept_errors == 2)
            with LslSocketClient(
                [depot.address, server.address], payload_length=len(PAYLOAD)
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
                assert server.wait_for_sessions(1, timeout=10)
    assert depot.counters.accept_errors == 2
    assert observer.kinds().count("accept-error") == 2
    assert observer.detail_for("accept-error")["error"] == "OSError"
    (result,) = server.results
    assert result.digest_ok is True


def test_server_accept_loop_survives_transient_oserror():
    with ThreadedLslServer() as server:
        server._listener = _FlakyListener(
            server._listener, failures=1, err=errno.ECONNABORTED
        )
        _flush_pending_accept(server.address)
        assert _wait(lambda: server.accept_errors == 1)
        with LslSocketClient(
            [server.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
            assert server.wait_for_sessions(1, timeout=10)
    assert server.accept_errors == 1
    assert server.errors == []
    results_ok = [r.digest_ok for r in server.results]
    assert True in results_ok


def test_depot_accept_loop_exits_on_fatal_errno():
    """EBADF means the listener itself is gone — the loop must exit,
    not spin on a dead socket."""
    depot = ThreadedDepot()
    depot._listener = _FlakyListener(
        depot._listener, failures=10_000, err=errno.EBADF
    )
    _flush_pending_accept(depot.address)
    assert _wait(lambda: not depot._accept_thread.is_alive())
    assert depot.counters.accept_errors == 0
    depot.shutdown()


# -- bug 3: silent failures + thread-handle leak ---------------------------


def test_failed_relay_emits_event_and_counts():
    """Downstream connect refusal: the session must land in
    ``sessions_failed`` and produce a ``relay-failed`` event naming the
    reason — never vanish silently."""
    observer = RecordingObserver()
    # reserve a port with nothing listening on it
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_address = probe.getsockname()
    probe.close()
    with ThreadedDepot(observer=observer) as depot:
        # sync establishment never completes: the depot hangs up after
        # the refused dial, which the client sees as EOF mid-handshake
        with pytest.raises((OSError, ProtocolError)):
            with LslSocketClient(
                [depot.address, dead_address],
                payload_length=len(PAYLOAD),
                timeout=5,
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
                client.recv()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    detail = observer.detail_for("relay-failed")
    assert detail is not None
    assert "ConnectionRefusedError" in detail["reason"]
    assert depot.counters.sessions_completed == 0


def test_rejected_header_counts_as_failed_session():
    observer = RecordingObserver()
    with ThreadedDepot(observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"\x00" * 64)  # not an LSL header
        raw.shutdown(socket.SHUT_WR)
        assert raw.recv(1) == b""  # depot hangs up
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    assert "relay-failed" in observer.kinds()


@pytest.mark.parametrize("service", ["threads", "asyncio"])
@pytest.mark.parametrize("offset, value", [(41, 0xFF), (38, 5)])
def test_undecodable_header_counts_as_failed_session(
    service, offset, value, monkeypatch
):
    """A host that is not UTF-8 (offset 41) or a hop index outside the
    route (offset 38) used to escape the header phase as an exception:
    the threaded depot's reader died in ``threading.excepthook`` and
    the session was never accounted."""
    hooked = []
    monkeypatch.setattr(threading, "excepthook", hooked.append)
    observer = RecordingObserver()
    wire = bytearray(plan_client_session(
        [("127.0.0.1", 1), ("127.0.0.1", 2)], payload_length=8
    )[0].encode())
    wire[offset] = value
    with _relay_services()[service](observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(bytes(wire))
        assert raw.recv(1) == b""  # depot hangs up
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
        assert depot.counters.active_sessions == 0
    assert observer.kinds().count("relay-failed") == 1
    assert hooked == []


def test_upstream_fin_during_header_counts_as_failed_session():
    observer = RecordingObserver()
    with ThreadedDepot(observer=observer) as depot:
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(b"LSL")  # a header prefix, then vanish
        raw.close()
        assert _wait(lambda: depot.counters.sessions_failed == 1)
    detail = observer.detail_for("relay-failed")
    assert detail is not None and detail["reason"]


def _relay_services():
    from repro.asockets import AsyncDepot
    from repro.cluster import ClusterNode, InMemoryStore

    return {
        "threads": ThreadedDepot,
        "asyncio": AsyncDepot,
        "cluster": lambda **kw: ClusterNode(
            store=InMemoryStore(), worker="w0", **kw
        ),
    }


def _sim_health_check_then_partial():
    """The same two connections against the simulator's depot; returns
    its counters and how many ``relay-failed`` events it emitted (skipped
    where the live stack runs with the simulator unimportable)."""
    Depot = pytest.importorskip("repro.lsl.depot").Depot
    from repro.telemetry.hub import Telemetry
    from tests.helpers import two_host_net

    net, client, host = two_host_net(delay_ms=5.0)
    telemetry = net.telemetry = Telemetry(net.sim)
    depot = Depot(host, 4000)
    check = client.socket()
    check.connect(("b", 4000), on_connected=check.close)
    partial = client.socket()

    def send_prefix():
        partial.send(b"LSL")
        partial.close()

    partial.connect(("b", 4000), on_connected=send_prefix)
    net.sim.run(until=60.0)
    failed = telemetry.metrics.counter("lsl.proto.relay-failed").value
    return depot.counters, failed


@pytest.mark.parametrize("service", ["threads", "asyncio", "cluster", "sim"])
def test_a_connection_that_sends_no_byte_is_not_a_session(service):
    """A TCP health check (connect, close) is neither accepted nor
    failed and emits no event, on every depot driver and a cluster
    worker; a header prefix then EOF still fails."""
    if service == "sim":
        counters, failed = _sim_health_check_then_partial()
        snap = counters.snapshot()
    else:
        observer = RecordingObserver()
        with _relay_services()[service](observer=observer) as svc:
            counters = svc.counters
            socket.create_connection(svc.address, timeout=5).close()
            partial = socket.create_connection(svc.address, timeout=5)
            partial.sendall(b"LSL")
            partial.close()
            # accepted in order: the health check ends before the gauge is 0
            assert _wait(lambda: counters.sessions_failed == 1)
            assert _wait(lambda: counters.active_sessions == 0)
            snap = counters.snapshot()
        failed = observer.kinds().count("relay-failed")
    assert snap["sessions_accepted"] == 1
    assert snap["sessions_failed"] == 1
    assert failed == 1
    assert snap["sessions_accepted"] - snap["sessions_completed"] - snap[
        "sessions_failed"
    ] - snap["sessions_suspended"] == snap["active_sessions"]


def test_abort_sessions_resets_live_relays():
    """``shutdown(abort_sessions=True)`` must actually sever relays —
    including pumps parked inside ``recv`` — so peers observe the
    crash instead of hanging on a half-dead depot."""
    with ThreadedLslServer() as server:
        depot = ThreadedDepot()
        client = LslSocketClient(
            [depot.address, server.address], payload_length=len(PAYLOAD)
        )
        client.sendall(PAYLOAD[: len(PAYLOAD) // 2])

        def server_got(n):
            record = server.registry.get(client.header.session_id)
            live = getattr(record, "attachment", None) if record else None
            return live is not None and live.receiver.payload_received >= n

        assert _wait(lambda: server_got(len(PAYLOAD) // 2))
        depot.shutdown(drain=False)
        # the client's next writes must fail fast, not block forever
        rest = PAYLOAD[len(PAYLOAD) // 2 :]
        with pytest.raises(OSError):
            for pos in range(0, len(rest), 1024):
                client.sendall(rest[pos : pos + 1024])
                time.sleep(0.01)
        client.close()
        assert _wait(lambda: depot.counters.active_sessions == 0)


# -- one relay object: accounting under two readers, and a crash -----------


def _whole_session(route, payload):
    """Header, payload, trailer and FIN from a raw socket, then read the
    server's reply to EOF; returns (bytes a depot relays, bytes read)."""
    header, handshake, sender = plan_client_session(
        route, payload_length=len(payload), sync=False,
    )
    sender.record(payload)
    rest = payload + sender.finish()
    raw = socket.create_connection(route[0], timeout=10)
    try:
        raw.sendall(handshake.initial_bytes() + rest)
        raw.shutdown(socket.SHUT_WR)
        got = b""
        while True:
            data = raw.recv(65536)
            if not data:
                return len(rest), got
            got += data
    finally:
        raw.close()


def test_concurrent_relays_that_end_both_ways_at_once_are_counted_once():
    """With ``reply=`` the server answers and closes as the client's FIN
    arrives, so both directions of every relay end together and both
    readers race to end it: each session is accounted exactly once and
    every byte either way is counted."""
    n = 64
    payloads = [os.urandom(8192 + i) for i in range(n)]
    totals = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: shake the race
    try:
        with ThreadedLslServer(reply=b"THANKS") as server:
            with ThreadedDepot() as depot:
                route = [depot.address, server.address]

                def one(payload):
                    totals.append(_whole_session(route, payload))

                clients = [
                    threading.Thread(target=one, args=(p,)) for p in payloads
                ]
                for client in clients:
                    client.start()
                for client in clients:
                    client.join(30)
                assert not any(client.is_alive() for client in clients)
                assert server.wait_for_sessions(n, timeout=10)
                assert _wait(lambda: depot.counters.active_sessions == 0)
    finally:
        sys.setswitchinterval(interval)
    assert [reply for _, reply in totals] == [b"THANKS"] * n
    assert not server.errors and len(server.results) == n
    counters = depot.counters
    assert counters.sessions_completed == n
    assert counters.sessions_failed == 0
    assert counters.active_sessions == 0
    assert counters.bytes_relayed == sum(
        forward + len(reply) for forward, reply in totals
    )


@pytest.mark.parametrize("driver", ["threads", "asyncio"])
def test_a_crash_fails_a_live_relay_once(driver):
    from repro.asockets import AsyncDepot

    observer = RecordingObserver()
    depot_cls = AsyncDepot if driver == "asyncio" else ThreadedDepot
    with ThreadedLslServer() as server:
        depot = depot_cls(observer=observer)
        client = LslSocketClient(
            [depot.address, server.address], payload_length=len(PAYLOAD)
        )
        try:
            client.sendall(PAYLOAD[: len(PAYLOAD) // 2])

            def server_got(n):
                record = server.registry.get(client.header.session_id)
                live = getattr(record, "attachment", None) if record else None
                return live is not None and live.receiver.payload_received >= n

            assert _wait(lambda: server_got(len(PAYLOAD) // 2))
            depot.shutdown(drain=False)
            assert _wait(lambda: depot.counters.active_sessions == 0)
        finally:
            client.close()
    assert depot.counters.sessions_failed == 1
    assert depot.counters.sessions_completed == 0
    assert observer.kinds().count("relay-failed") == 1


@pytest.mark.parametrize("driver", ["threads", "asyncio"])
def test_the_admission_cap_resets_what_it_refuses(driver):
    """The engine's one admission rule holds on both live drivers: past
    ``max_sessions`` a connection is reset and counted refused, never
    accepted, and the admitted session is unharmed."""
    from repro.asockets import AsyncDepot

    depot_cls = AsyncDepot if driver == "asyncio" else ThreadedDepot
    with ThreadedLslServer() as server:
        with depot_cls() as depot:
            depot.max_sessions = 1
            client = LslSocketClient(
                [depot.address, server.address], payload_length=len(PAYLOAD)
            )
            try:
                client.sendall(PAYLOAD[:1024])
                with pytest.raises(ConnectionResetError):  # in connect or recv
                    with socket.create_connection(depot.address, timeout=5) as refused:
                        refused.recv(1)
                client.sendall(PAYLOAD[1024:])
                client.finish()
            finally:
                client.close()
            assert server.wait_for_sessions(1)
            assert _wait(lambda: depot.counters.active_sessions == 0)
    snap = depot.counters.snapshot()
    assert (snap["sessions_accepted"], snap["sessions_refused"]) == (1, 1)
    assert (snap["sessions_completed"], snap["sessions_failed"]) == (1, 0)
    assert server.results[0].digest_ok is True


# -- every service survives, counts and reports transient accept errors ----


def _services():
    from repro.asockets import AsyncDepot, AsyncLslServer, AsyncStripedServer
    from repro.sockets import StripedThreadedServer

    return {
        ("depot", "threads"): ThreadedDepot,
        ("depot", "asyncio"): AsyncDepot,
        ("server", "threads"): ThreadedLslServer,
        ("server", "asyncio"): AsyncLslServer,
        ("striped", "threads"): StripedThreadedServer,
        ("striped", "asyncio"): AsyncStripedServer,
    }


@pytest.mark.parametrize("kind", ["depot", "server", "striped"])
@pytest.mark.parametrize("driver", ["threads", "asyncio"])
def test_every_service_survives_counts_and_reports_accept_errors(
    kind, driver
):
    from repro.sockets import send_striped

    observer = RecordingObserver()
    with ThreadedLslServer() as sink:
        with _services()[kind, driver](observer=observer) as service:
            real = service._accept
            left = [2]

            def flaky():
                if left[0]:
                    left[0] -= 1
                    raise OSError(errno.EMFILE, "injected transient failure")
                return real()

            service._accept = flaky
            # a threaded accept is already waiting inside the real
            # accept(), an asyncio one waits for readiness: one
            # throwaway connection gets either to the patched seam
            _flush_pending_accept(service.address)
            # a depot counts in its DepotCounters, a server on itself
            counts = getattr(service, "counters", service)
            assert _wait(lambda: counts.accept_errors == 2)
            # and it keeps serving
            if kind == "striped":
                send_striped([[service.address]], PAYLOAD)
                # the throwaway connection sent no byte: it records nothing
                assert service.wait_for_sessions(1, timeout=10)
                (result,) = service.results
            else:
                route = [service.address]
                if kind == "depot":
                    route.append(sink.address)
                with LslSocketClient(route, payload_length=len(PAYLOAD)) as c:
                    c.sendall(PAYLOAD)
                    c.finish()
                target = sink if kind == "depot" else service
                assert _wait(lambda: len(target.results) == 1, timeout=10)
                (result,) = target.results
            assert result.payload == PAYLOAD and result.digest_ok is True
    assert counts.accept_errors == 2
    assert observer.kinds().count("accept-error") == 2
    assert observer.detail_for("accept-error")["error"] == "OSError"
