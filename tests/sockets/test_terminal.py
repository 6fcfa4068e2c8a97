"""One terminal session on both real-socket drivers.

``ThreadedLslServer`` and ``AsyncLslServer`` run the same session
objects (``repro.sockets.terminal``); these are the cases where the two
used to differ, or could again: a link that is closed by somebody other
than its own reader — a rebind, a restart, the TTL sweep — while the
peer holds the old sublink open.
"""

import os
import socket
import time

import pytest

from repro.asockets import AsyncLslServer
from repro.lsl.core import real_digest_factory
from repro.sockets import LslSocketClient, ThreadedLslServer

SESSION_ID = bytes(range(16))
PAYLOAD = os.urandom(120_000)
CUT = 48_000


@pytest.fixture(params=[ThreadedLslServer, AsyncLslServer])
def server_cls(request):
    return request.param


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def _half_sent(server):
    """A session whose sublink sent ``CUT`` bytes and stays open."""
    client = LslSocketClient(
        [server.address], payload_length=len(PAYLOAD), session_id=SESSION_ID
    )
    client.sendall(PAYLOAD[:CUT])

    def received():
        record = server.registry.get(SESSION_ID)
        live = getattr(record, "attachment", None)
        return live.receiver.payload_received if live else -1

    assert _wait(lambda: received() == CUT)
    return client, server.registry.get(SESSION_ID).attachment


def _sees_eof(sock, timeout=5.0):
    """The peer closed: a FIN or a reset, but not silence."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except OSError:
        return True


def test_rebind_over_a_live_sublink_is_granted_at_the_cut(server_cls):
    # a black-holed path: no FIN or RST ever reaches the server, so the
    # old sublink is open (and here still sending) when the rebind comes
    with server_cls() as server:
        old, live = _half_sent(server)
        receiver, displaced = live.receiver, live.link
        new = LslSocketClient(
            [server.address], payload_length=len(PAYLOAD),
            session_id=SESSION_ID, rebind=True, resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD), timeout=5.0,
        )
        assert new.granted_offset == CUT
        assert _wait(lambda: displaced.closed)
        assert live.link is not displaced and live.receiver is receiver
        try:
            old.sock.sendall(PAYLOAD[CUT : CUT + 10_000])
        except OSError:
            pass
        assert _sees_eof(old.sock)  # and its reader is gone, not parked
        assert receiver.payload_received == CUT  # stale bytes: dropped
        new.sendall(PAYLOAD[CUT:])
        new.finish()
        assert server.wait_for_sessions(1, timeout=10)
        assert _wait(lambda: live.link.closed)  # nothing left open
        old.close()
        new.close()
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1


def test_restart_of_a_live_session_closes_the_stale_link(server_cls):
    with server_cls() as server:
        old, stale = _half_sent(server)
        stale_link = stale.link
        with LslSocketClient(
            [server.address], payload_length=len(PAYLOAD),
            session_id=SESSION_ID,
        ) as fresh:  # same id, not a rebind: the ack was "lost"
            assert _wait(lambda: stale_link.closed)
            assert _sees_eof(old.sock)
            fresh.sendall(PAYLOAD)
            fresh.finish()
            assert server.wait_for_sessions(1, timeout=10)
        old.close()
        assert server.registry.get(SESSION_ID).attachment is not stale
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 0


def test_ttl_sweep_closes_the_link_of_a_session_gone_silent(server_cls):
    with server_cls(session_ttl=0.2) as server:
        client, live = _half_sent(server)
        link = live.link
        assert not link.closed
        assert _wait(lambda: server.sessions_expired == 1)
        assert _wait(lambda: link.closed)
        assert _sees_eof(client.sock)
        assert server.registry.get(SESSION_ID) is None
        client.close()
    assert not server.errors and not server.results
