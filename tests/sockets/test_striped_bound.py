"""The live striped servers bound reassembly by the assembler's rule.

A crafted framed client runs one sublink more than
``REASSEMBLY_BYTES`` ahead of a missing first stripe and sends that
stripe on a second sublink only once the first is held: the server
stops reading the first at the bound, reads the second, then resumes
the first and completes.
"""

import hashlib
import socket
import threading
import time

import pytest

from repro.asockets import AsyncStripedServer
from repro.lsl.core.framing import encode_frame_header
from repro.lsl.core.striping import REASSEMBLY_BYTES
from repro.lsl.core.wire import LslHeader, RouteHop
from repro.sockets import StripedThreadedServer
from repro.sockets.wire import CHUNK

STRIPE = 128 * 1024
LENGTH = REASSEMBLY_BYTES + 2 * STRIPE
PAYLOAD = bytes(range(256)) * (LENGTH // 256)
SID = bytes(range(16))


def _wait(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _sublink(address, frames, finish=None):
    """Dial, send the framed header and ``frames`` ((offset, bytes)
    pairs), half-close once ``finish`` is set; on a thread of its own,
    since the server may stop reading."""
    header = LslHeader(
        session_id=SID, route=(RouteHop(*address),), payload_length=LENGTH,
        sync=False, framed=True,
    ).encode()
    sock = socket.create_connection(address, timeout=10)

    def send():
        with sock:
            sock.sendall(header)
            for offset, body in frames:
                sock.sendall(encode_frame_header(offset, len(body)) + body)
            if finish is not None:
                finish.wait(30)
            sock.shutdown(socket.SHUT_WR)
            sock.recv(1)  # until the server closes its side

    sender = threading.Thread(target=send, daemon=True)
    sender.start()
    return sender


@pytest.mark.parametrize(
    "server_cls", [StripedThreadedServer, AsyncStripedServer],
    ids=["threads", "asyncio"],
)
def test_a_sublink_ahead_of_the_hole_is_held_until_the_hole_arrives(server_cls):
    with server_cls() as server:
        ahead = _sublink(server.address, [
            (offset, PAYLOAD[offset:offset + STRIPE])
            for offset in range(STRIPE, LENGTH, STRIPE)
        ])

        def session():
            record = server.registry.get(SID)
            return None if record is None else record.attachment

        assert _wait(lambda: session() is not None and session().held)
        live = session()
        assert len(live.held) == 1
        # one read past the bound, and the rest of the sublink unread
        assert REASSEMBLY_BYTES <= live.receiver.ooo_bytes
        assert live.receiver.ooo_bytes <= REASSEMBLY_BYTES + CHUNK
        assert live.receiver.payload_received == 0
        # the hole's sublink stays open: the frontier, not an EOF, must
        # resume the held one
        finish = threading.Event()
        hole = _sublink(server.address, [
            (0, PAYLOAD[:STRIPE]), (LENGTH, hashlib.md5(PAYLOAD).digest()),
        ], finish)
        assert server.wait_for_sessions(1, timeout=30)
        finish.set()
        ahead.join(10)
        hole.join(10)
    assert server.errors == []
    (result,) = server.results
    assert result.digest_ok is True and result.payload == PAYLOAD
    assert live.held == []
