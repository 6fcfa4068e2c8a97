"""The real-socket failover loop (``repro-lsl failover --transport sockets``).

Both drivers run the same :class:`~repro.lsl.core.session.FailoverLadder`
the simulator's ``FailoverTransfer`` runs: a depot crash mid-transfer
rebinds on the backup with a negotiated resume, and a route refused
before the server ever saw the session is retried with a fresh connect,
never a rebind the server would refuse as unknown.
"""

import socket

import pytest

from repro.experiments.socketsrun import (
    _failover_send,
    _make_stack,
    pattern_payload,
    run_socket_failover,
)
from repro.lsl.core.session import BackoffPolicy, FailoverLadder

SID = bytes(range(16))


@pytest.fixture(params=["threads", "asyncio"])
def driver(request):
    return request.param


def _refused_address():
    """A loopback port nothing listens on."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


def test_depot_crash_mid_transfer_fails_over_once(driver):
    r = run_socket_failover(2 << 20, driver=driver)
    assert r.completed, r.error
    assert r.digest_ok is True
    assert (r.attempts, r.failovers) == (2, 1)
    primary, backup = r.depot_counters
    assert primary["sessions_failed"] == 1
    assert backup["sessions_completed"] == 1


def test_a_route_refused_before_establishment_is_retried_fresh(driver):
    """The server never saw the session, so the next attempt must open
    it fresh: a rebind would be refused as an unknown session on every
    retry until the ladder ran out."""
    server_cls, depot_cls = _make_stack(driver)
    payload = pattern_payload(256 * 1024)
    with server_cls() as server, depot_cls() as depot:
        ladder = FailoverLadder(
            [[_refused_address(), server.address],
             [depot.address, server.address]],
            BackoffPolicy(base_s=0.01, max_s=0.05, jitter=0.0),
            max_attempts=4,
        )
        _failover_send(
            driver, ladder, payload, SID,
            confirm=lambda: server.wait_for_sessions(1, timeout=10),
        )
        (result,) = server.results
        assert result.payload == payload and result.digest_ok is True
        assert server.errors == []
    assert [(a.route_index, a.rebind) for a in ladder.history] == [
        (0, False), (1, False),
    ]
    assert ladder.history[1].granted == 0
    assert (ladder.attempts, ladder.failovers) == (2, 1)
