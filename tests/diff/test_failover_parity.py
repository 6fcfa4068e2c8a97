"""Differential: one failure schedule, one failover ladder, three drivers.

The schedule: route 0's first hop refuses the dial before the session
exists, route 1's depot is cut once the server holds ``CUT`` payload
bytes, route 2 is healthy. The simulator (``FailoverTransfer``) and the
live loop (``experiments.socketsrun``, on threads and on asyncio) must
open the same attempts — route index, fresh connect or rebind, backoff
step and delay — and the rebind must be granted exactly what that
driver's server held when the cut suspended the session.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.experiments.socketsrun import (
    _crash_when_received,
    _failover_send,
    _make_stack,
    pattern_payload,
)
from repro.lsl.client import FailoverTransfer
from repro.lsl.core.session import BackoffPolicy, FailoverLadder
from repro.lsl.depot import Depot
from repro.lsl.server import LslServer
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack

NBYTES = 2 << 20
CUT = NBYTES // 4
SID = bytes(range(16))
#: no jitter, so the three drivers wait exactly as long
POLICY = BackoffPolicy(base_s=0.1, max_s=0.4, jitter=0.0)

#: (route index, rebind, backoff step, delay) of every attempt
EXPECTED = [(0, False, None, 0.0), (1, False, 0, 0.1), (2, True, 0, 0.1)]


def _record_suspends(server):
    """What the server held each time a cut suspended the session."""
    held = []
    note = server._note_suspended

    def noted(live):
        held.append(live.receiver.payload_received)
        note(live)

    server._note_suspended = noted
    return held


def run_sim():
    net = Network(seed=3)
    for host in ("client", "server", "cut", "healthy"):
        net.add_host(host)
    net.add_router("pop")
    for host in ("client", "server", "cut", "healthy"):
        net.add_link(host, "pop", bandwidth_bps=100e6, delay_ms=2.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "server", "cut", "healthy")}
    cut = Depot(stacks["cut"], 4000)
    Depot(stacks["healthy"], 4000)
    completed = []

    def on_session(conn):
        conn.on_readable = conn.recv
        conn.on_complete = lambda c: (completed.append(c), xfer.mark_complete())

    server = LslServer(stacks["server"], 5000, on_session)
    held = _record_suspends(server)
    xfer = FailoverTransfer(
        stacks["client"],
        [
            [("cut", 4999), ("server", 5000)],  # nothing listens there
            [("cut", 4000), ("server", 5000)],
            [("healthy", 4000), ("server", 5000)],
        ],
        NBYTES,
        backoff=POLICY,
        session_id=SID,
    )

    def watch():
        record = server.registry.get(SID)
        if record is not None and record.attachment.receiver.payload_received >= CUT:
            cut.crash()
        else:
            net.sim.schedule(0.001, watch)

    watch()
    net.sim.run(until=60.0)
    assert xfer.done, xfer.failed
    assert completed and completed[0].digest_ok is True
    assert completed[0].payload_received == NBYTES
    return xfer.ladder, held


def run_live(driver):
    server_cls, depot_cls = _make_stack(driver)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    refused = probe.getsockname()
    probe.close()
    payload = pattern_payload(NBYTES)
    crashed = threading.Event()
    with server_cls() as server, depot_cls() as cut, depot_cls() as healthy:
        held = _record_suspends(server)
        watcher = threading.Thread(
            target=_crash_when_received,
            args=(server, SID, CUT, cut, crashed),
            daemon=True,
        )
        watcher.start()
        ladder = FailoverLadder(
            [
                [refused, server.address],
                [cut.address, server.address],
                [healthy.address, server.address],
            ],
            POLICY,
        )
        try:
            _failover_send(
                driver, ladder, payload, SID, pace_s=0.0005,
                confirm=lambda: server.wait_for_sessions(1, timeout=10),
            )
        finally:
            crashed.set()
            watcher.join()
        (result,) = server.results
        assert result.payload == payload and result.digest_ok is True
        assert server.errors == []
    return ladder, held


@pytest.mark.parametrize("driver", ["sim", "threads", "asyncio"])
def test_one_schedule_one_ladder(driver):
    ladder, held = run_sim() if driver == "sim" else run_live(driver)
    assert [
        (a.route_index, a.rebind, a.backoff_step, a.delay)
        for a in ladder.history
    ] == EXPECTED
    assert (ladder.attempts, ladder.failovers) == (3, 2)
    fresh, cut, rebind = ladder.history
    assert fresh.granted is None  # refused: the server never saw it
    assert cut.granted == 0
    (suspended_at,) = held
    assert CUT <= suspended_at < NBYTES
    assert rebind.granted == suspended_at
