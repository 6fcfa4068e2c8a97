"""One terminal session on both real-socket drivers.

``ThreadedLslServer`` and ``AsyncLslServer`` run the same session
objects (``repro.sockets.terminal``); these are the cases where the two
used to differ, or could again: a link that is closed by somebody other
than its own reader — a rebind, a restart, the TTL sweep — while the
peer holds the old sublink open; a session that streams for longer than
the TTL; a sublink reset mid-payload; and a completion reply that meets
a reset.
"""

import os
import socket
import struct
import time

import pytest

from repro.asockets import AsyncLslServer
from repro.lsl.core import real_digest_factory
from repro.sockets import LslSocketClient, ThreadedLslServer
from repro.telemetry.tracing import TraceSpool

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


def _half_sent(server, **options):
    """A session whose sublink sent ``CUT`` bytes and stays open."""
    client = LslSocketClient(
        [server.address], payload_length=len(PAYLOAD), session_id=SESSION_ID,
        **options,
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


def test_ttl_sweep_spares_a_session_that_is_still_streaming(server_cls):
    # every batch the session delivers stamps it active: a transfer
    # that outlasts the TTL is not idle
    payload = os.urandom(300_000)
    with server_cls(session_ttl=1.0) as server:
        with LslSocketClient(
            [server.address], payload_length=len(payload), timeout=5.0
        ) as client:
            for at in range(0, len(payload), 10_000):  # ~3 s in all
                client.sendall(payload[at : at + 10_000])
                time.sleep(0.1)
            client.finish()
            assert server.wait_for_sessions(1, timeout=10)
    assert server.sessions_expired == 0 and not server.errors
    (result,) = server.results
    assert result.payload == payload and result.digest_ok is True


def test_a_reset_mid_payload_suspends_the_session_at_the_cut(server_cls):
    spool, client_spool = TraceSpool("server"), TraceSpool("client")
    with server_cls(tracer=spool) as server:
        old, _ = _half_sent(server, tracer=client_spool)
        # SO_LINGER 0: close() sends an RST, not a FIN
        old.sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        old.close()
        assert _wait(lambda: spool.open_span_count() == 0)
        assert server.registry.get(SESSION_ID).bytes_received == CUT
        new = LslSocketClient(
            [server.address], payload_length=len(PAYLOAD),
            session_id=SESSION_ID, rebind=True, resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD), timeout=5.0,
            tracer=client_spool,
        )
        assert new.granted_offset == CUT
        new.sendall(PAYLOAD[CUT:])
        new.finish()
        assert server.wait_for_sessions(1, timeout=10)
        new.close()
    assert not server.errors
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True
    assert result.rebinds == 1
    statuses = [
        r["attrs"].get("status") for r in spool.tail()
        if r["rt"] == "e" and r["name"] == "server.session"
    ]
    assert statuses == ["suspended", "ok"]
    assert "server.suspend" in [r["name"] for r in spool.tail()]


def _reset(client):
    """SO_LINGER 0: ``close()`` sends an RST, not a FIN."""
    client.sock.setsockopt(
        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
    )
    client.close()


def test_a_reset_after_the_trailer_leaves_the_server_serving(server_cls):
    # the server writes its completion reply into a reset: the write
    # fails (on the event loop, by calling the sublink's broken() back)
    # and the server must go on serving the next session
    ids = [bytes([n]) * 16 for n in range(1, 6)]
    with server_cls(reply=b"THANKS") as server:
        for session_id in ids:
            client = LslSocketClient(
                [server.address], payload_length=len(PAYLOAD),
                session_id=session_id, timeout=5.0,
            )
            client.sendall(PAYLOAD)
            client.sock.sendall(client.trailer())
            _reset(client)
        with LslSocketClient(
            [server.address], payload_length=len(PAYLOAD),
            session_id=SESSION_ID, timeout=5.0,
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
            assert client.recv() == b"THANKS"

        def settled(session_id):
            # completed, failed on its reply, or suspended by the reset
            record = server.registry.get(session_id)
            return record is not None and (
                record.closed or record.attachment.link.closed
            )

        assert _wait(lambda: all(map(settled, ids + [SESSION_ID])))
    assert all(isinstance(e, OSError) for e in server.errors)
    assert all(
        r.payload == PAYLOAD and r.digest_ok is True for r in server.results
    )
    assert SESSION_ID in [r.session_id for r in server.results]


def test_a_connection_that_sends_no_byte_records_nothing(server_cls):
    """A TCP health check (connect, close) is neither a session nor a
    failure; a partial header followed by EOF still is a failure."""
    with server_cls() as server:
        socket.create_connection(server.address, timeout=5).close()
        with LslSocketClient([server.address], payload_length=10) as client:
            client.sendall(PAYLOAD[:10])
            client.finish()
        assert server.wait_for_sessions(1)
        # accepted before that session, so ended once nothing is read
        assert _wait(lambda: not server._live)
        assert server.errors == [] and len(server.results) == 1
        partial = socket.create_connection(server.address, timeout=5)
        partial.sendall(b"\x01")
        partial.close()
        assert server.wait_for_sessions(2)
        (error,) = server.errors
        assert "EOF before LSL header complete" in str(error)
