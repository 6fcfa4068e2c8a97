"""The striped servers as terminal engines, over both drivers.

A striped session is failed, traced and exposed the way every other
terminal session is: a failure wakes ``wait_for_sessions``, each send is
one ``server.session`` span, and ``expose()`` serves ``/healthz`` and
``/metrics``.
"""

import asyncio
import json
import os
import urllib.request

import pytest

from repro.asockets import AsyncStripedServer, async_send_striped
from repro.asockets import striped as async_striped
from repro.lsl.core import DigestMismatch
from repro.lsl.core.striping import KIND_TRAILER
from repro.sockets import StripedThreadedServer, send_striped
from repro.sockets import striped as threaded_striped
from repro.telemetry.exposition import parse_prometheus_text
from repro.telemetry.tracing import TraceSpool

PAYLOAD = os.urandom(200_000)


def _send_threads(routes, payload, **options):
    return send_striped(routes, payload, **options)


def _send_asyncio(routes, payload, **options):
    return asyncio.run(async_send_striped(routes, payload, **options))


DRIVERS = pytest.mark.parametrize(
    "server_cls, send, driver",
    [
        (StripedThreadedServer, _send_threads, "threads"),
        (AsyncStripedServer, _send_asyncio, "asyncio"),
    ],
    ids=["threads", "asyncio"],
)


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode()


@pytest.fixture
def zeroed_trailer(monkeypatch):
    """Both senders put a zeroed digest trailer on the wire."""
    real = threaded_striped._frame_of

    def frame_of(assignment):
        if assignment.kind == KIND_TRAILER:
            return assignment.frame_header() + bytes(assignment.length)
        return real(assignment)

    monkeypatch.setattr(threaded_striped, "_frame_of", frame_of)
    monkeypatch.setattr(async_striped, "_frame_of", frame_of)


@DRIVERS
def test_a_failed_striped_session_wakes_the_waiter(
    server_cls, send, driver, zeroed_trailer
):
    with server_cls() as server:
        send([[server.address]] * 2, PAYLOAD)
        assert server.wait_for_sessions(1, timeout=3)
        (error,) = server.errors
        assert isinstance(error, DigestMismatch)
        assert not server.results


@DRIVERS
def test_a_striped_session_is_one_span_and_is_exposed(server_cls, send, driver):
    spool = TraceSpool("server")
    with server_cls(tracer=spool) as server:
        send([[server.address]] * 2, PAYLOAD, tracer=TraceSpool("client"))
        assert server.wait_for_sessions(1)
        assert not server.errors
        (result,) = server.results
        assert result.payload == PAYLOAD and result.digest_ok is True
        (begun,) = [
            r for r in spool.tail()
            if r["rt"] == "b" and r["name"] == "server.session"
        ]
        (ended,) = [
            r for r in spool.tail()
            if r["rt"] == "e" and r["name"] == "server.session"
        ]
        assert begun["span"] == ended["span"]
        assert ended["attrs"]["striped"] is True
        assert ended["attrs"]["status"] == "ok"
        assert ended["attrs"]["bytes_received"] == len(PAYLOAD)
        assert ended["attrs"]["sublinks"] == result.sublinks >= 1
        with server.expose() as exposer:
            health = json.loads(_get(exposer.url + "/healthz"))
            assert health["driver"] == driver
            families = parse_prometheus_text(_get(exposer.url + "/metrics"))
            completed = families["lsl_server_sessions_completed_total"]
            assert completed.samples[0][1] == 1.0
