"""Edge paths: header piggybacking, surplus handling, odd inputs."""

import pytest

from repro.lsl.client import lsl_connect
from repro.net.address import validate_port
from repro.net.packet import IP_HEADER_BYTES, PROTO_TCP
from repro.tcp.buffers import StreamChunk
from tests.lsl.conftest import LslWorld
from tests.lsl.test_client_server import drive


def test_validate_port():
    assert validate_port(80) == 80
    for bad in (0, -1, 65536, "80"):
        with pytest.raises(ValueError):
            validate_port(bad)


def test_packet_constants():
    assert IP_HEADER_BYTES == 20
    assert PROTO_TCP == "tcp"


def test_stream_chunk_is_virtual():
    assert StreamChunk(5, None).is_virtual
    assert not StreamChunk(5, b"abcde").is_virtual


def test_payload_piggybacked_with_header_via_depot(world):
    """Small payload + trailer can arrive in the same TCP segments as
    the LSL header; the depot's surplus path must forward it all."""
    data = b"tiny payload"
    received = []

    def on_session(conn):
        conn.on_readable = lambda: received.extend(conn.recv())
        conn.on_complete = world.completed.append
        conn.on_error = world.errors.append

    world.server.on_session = on_session
    conn = lsl_connect(
        world.stacks["client"],
        world.route_via_depot,
        payload_length=len(data),
        sync=False,  # async: header+payload+trailer leave back to back
    )

    def go():
        conn.send(data)
        conn.finish()

    conn._user_on_connected = go
    world.run()
    assert world.completed and world.completed[0].digest_ok is True
    assert b"".join(c.data for c in received if c.data) == data


def test_zero_length_session(world):
    """A 0-byte... actually 1-byte minimum: smallest legal session."""
    conn = lsl_connect(
        world.stacks["client"], world.route_via_depot, payload_length=1
    )

    def go():
        conn.send(b"x")
        conn.finish()

    conn._user_on_connected = go
    world.run()
    assert world.completed
    assert world.completed[0].payload_received == 1


def test_many_hops_header_roundtrip(world):
    """Maximum route length is encodable and parseable."""
    from repro.lsl.core.wire import LslHeader, MAX_HOPS, RouteHop

    route = tuple(RouteHop(f"hop-{i}", 1000 + i) for i in range(MAX_HOPS))
    h = LslHeader(session_id=bytes(16), route=route, payload_length=10)
    parsed, _ = LslHeader.decode(h.encode())
    assert parsed.route == route


def test_server_surplus_with_virtual_payload(world):
    """Virtual payload racing right behind the header at the server."""
    conn = lsl_connect(
        world.stacks["client"],
        world.route_direct,
        payload_length=5000,
        sync=False,
    )

    def go():
        conn.send_virtual(5000)
        conn.finish()

    conn._user_on_connected = go
    world.run()
    assert world.completed and world.completed[0].digest_ok is True


def test_print_report_helper(capsys):
    from repro.experiments.report import print_report

    print_report("block-a", None, "", "block-b")
    out = capsys.readouterr().out
    assert "block-a" in out and "block-b" in out
    assert "\n\n" in out
