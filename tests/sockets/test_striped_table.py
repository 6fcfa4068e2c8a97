"""The striped servers' session table is bounded (both drivers).

Neither server used to remove an entry — one ``StripeAssembler`` per
session for the life of the process. Finished entries must stay
findable for a while (sublinks of one session arrive with arbitrary
skew), so the bound is a count of finished sessions, not a lifetime.
"""

import asyncio
import os

import pytest

from repro.asockets import AsyncStripedServer, async_send_striped
from repro.sockets import StripedThreadedServer, send_striped
from repro.lsl.core.session import FINISHED_KEPT

SENDS = 1_100
PAYLOAD = os.urandom(20_000)


def _send_threads(routes):
    for _ in range(SENDS):
        send_striped(routes, PAYLOAD)


def _send_asyncio(routes):
    async def run():
        for _ in range(SENDS):
            await async_send_striped(routes, PAYLOAD)

    asyncio.run(run())


@pytest.mark.parametrize(
    "server_cls, send",
    [(StripedThreadedServer, _send_threads), (AsyncStripedServer, _send_asyncio)],
)
def test_finished_striped_sessions_are_dropped_past_the_bound(server_cls, send):
    assert SENDS > FINISHED_KEPT
    with server_cls() as server:
        send([[server.address], [server.address]])
        assert server.wait_for_sessions(SENDS, timeout=30)
        assert server.errors == []
        assert len(server.results) == SENDS
        assert all(r.payload == PAYLOAD and r.digest_ok for r in server.results)
        # a late sublink of a dropped session may re-create its entry,
        # but in a sequential run nothing is that late
        assert len(server.registry) <= FINISHED_KEPT
        assert len(server.registry._closed) == FINISHED_KEPT
