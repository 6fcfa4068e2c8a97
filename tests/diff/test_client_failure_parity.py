"""Differential: a client session that fails ends the same on every driver.

The happy path is pinned by ``test_trace_parity``; this pins the two
ways establishment fails before a byte of payload moves — the first
hop refuses the dial, or accepts, reads the header and closes without
an answer — and one option combination that must fail before any dial
at all. Sim, threads and asyncio each run every case; each case has
one client topology: the failed span and the session span both end
with ``status="error"`` and say why (``error=...``).
"""

from __future__ import annotations

import asyncio
import socket
import threading

import pytest

from repro.asockets import AsyncLslClient
from repro.lsl.client import lsl_connect, lsl_rebind
from repro.lsl.core.errors import LslError, ProtocolError
from repro.net.topology import Network
from repro.sockets import LslSocketClient
from repro.tcp.sockets import TcpStack
from repro.telemetry.tracing import TraceSpool

PAYLOAD_LENGTH = 4096
SID = bytes(range(16))

#: (name, parent span's name, status, whether an error attr says why)
EXPECTED = {
    "refused": [
        ("client.dial", "client.session", "error", True),
        ("client.session", None, "error", True),
    ],
    "closed": [
        ("client.dial", "client.session", None, False),
        ("client.handshake", "client.session", "error", True),
        ("client.session", None, "error", True),
    ],
}


def _topology(spool):
    assert spool.open_span_count() == 0
    ends = [r for r in spool.tail() if r["rt"] == "e"]
    name_of = {r["span"]: r["name"] for r in ends}
    return sorted(
        (
            r["name"], name_of.get(r["parent"]), r["attrs"].get("status"),
            "error" in r["attrs"],
        )
        for r in ends
    )


def _sim_network():
    net = Network(seed=11)
    for host in ("client", "d"):
        net.add_host(host)
    net.add_link("client", "d", 1e9, 0.2)
    net.finalize()
    return net, TcpStack(net.host("client")), TcpStack(net.host("d"))


def run_sim(case):
    net, client, depot = _sim_network()
    if case == "closed":
        def on_accept(sock):
            def read_and_close():
                sock.recv()
                sock.close()

            sock.on_readable = read_and_close

        depot.socket().listen(4000, on_accept)
    spool = TraceSpool("client", time_fn=lambda: net.sim.now)
    closed = []
    conn = lsl_connect(
        client, [("d", 4000), ("s", 5000)],
        payload_length=PAYLOAD_LENGTH, tracer=spool,
    )
    conn.on_close = closed.append
    net.sim.run(until=30.0)
    assert len(closed) == 1 and not conn.established
    return _topology(spool)


class _HeaderThenClose:
    """A first hop that accepts one dial, reads the header, closes."""

    def __init__(self):
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        sock, _ = self.listener.accept()
        with sock:
            sock.recv(65536)

    def close(self):
        self._thread.join(5.0)
        self.listener.close()


def _unused_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def _first_hop(case):
    if case == "refused":
        return None, _unused_address(), ConnectionRefusedError
    hop = _HeaderThenClose()
    return hop, hop.address, ProtocolError


def run_threaded(case):
    hop, address, expect = _first_hop(case)
    spool = TraceSpool("client")
    try:
        with pytest.raises(expect):
            LslSocketClient(
                [address, ("127.0.0.1", 9)],
                payload_length=PAYLOAD_LENGTH, tracer=spool, timeout=5.0,
            )
    finally:
        if hop is not None:
            hop.close()
    return _topology(spool)


def run_asyncio(case):
    hop, address, expect = _first_hop(case)
    spool = TraceSpool("client")

    async def dial():
        with pytest.raises(expect):
            await AsyncLslClient.open(
                [address, ("127.0.0.1", 9)],
                payload_length=PAYLOAD_LENGTH, tracer=spool, timeout=5.0,
            )

    try:
        asyncio.run(dial())
    finally:
        if hop is not None:
            hop.close()
    return _topology(spool)


@pytest.mark.parametrize("case", sorted(EXPECTED))
@pytest.mark.parametrize("run", [run_sim, run_threaded, run_asyncio])
def test_failed_establishment_has_one_topology(run, case):
    assert run(case) == EXPECTED[case]


# -- an option check that must fail before any dial ------------------------------

@pytest.mark.parametrize("driver", ["sim", "threads", "asyncio"])
def test_rebind_without_digest_state_raises_before_dialing(driver):
    """A rebind asserting an offset, digest on, no prior MD5 state: the
    client could hash only the bytes after the offset, so the planner
    refuses it before a dial (the server would fail the trailer)."""
    listener = socket.create_server(("127.0.0.1", 0), backlog=8)
    listener.setblocking(False)
    route = [listener.getsockname()]
    _, stack, _ = _sim_network()
    options = dict(payload_length=PAYLOAD_LENGTH, resume_offset=1024)
    try:
        with pytest.raises(LslError, match="digest_state"):
            if driver == "sim":
                lsl_rebind(stack, [("d", 4000)], SID, **options)
            elif driver == "threads":
                LslSocketClient(
                    route, session_id=SID, rebind=True, timeout=0.5, **options
                )
            else:
                asyncio.run(asyncio.wait_for(AsyncLslClient.open(
                    route, session_id=SID, rebind=True, timeout=0.5, **options
                ), 5.0))
        assert stack.connections == {}
        with pytest.raises(BlockingIOError):
            listener.accept()  # nothing was dialed
    finally:
        listener.close()
