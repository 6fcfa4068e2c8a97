"""FailoverLadder: the client's recovery rules, with no transport at all."""

import random

import pytest

from repro.lsl.core.errors import RouteError
from repro.lsl.core.session import BackoffPolicy, FailoverLadder
from repro.lsl.core.wire import RouteHop

A = [("a", 4000), ("srv", 5000)]
B = [("b", 4000), ("srv", 5000)]
C = [("c", 4000), ("srv", 5000)]
FLAT = BackoffPolicy(base_s=0.1, factor=2.0, max_s=0.4, jitter=0.0)


def _steps(ladder):
    return [(a.route_index, a.rebind, a.backoff_step) for a in ladder.history]


def test_needs_a_route():
    with pytest.raises(RouteError):
        FailoverLadder([])
    with pytest.raises(RouteError):
        FailoverLadder([[]])


def test_routes_are_hops():
    ladder = FailoverLadder([A])
    assert ladder.begin().route == (RouteHop("a", 4000), RouteHop("srv", 5000))


def test_fresh_until_the_server_granted_then_rebind():
    """A server that never saw the session refuses a rebind, so every
    attempt before the first grant connects fresh."""
    ladder = FailoverLadder([A, B, C], FLAT)
    assert ladder.begin().rebind is False
    assert ladder.failed() == pytest.approx(0.1)
    assert ladder.begin().rebind is False  # still never granted
    ladder.granted(0)
    assert ladder.failed() == pytest.approx(0.1)  # step counts from the grant
    attempt = ladder.begin()
    assert attempt.rebind is True
    ladder.granted(4096)
    assert attempt.granted == 4096
    assert _steps(ladder) == [(0, False, None), (1, False, 0), (2, True, 0)]
    assert ladder.attempts == 3 and ladder.failovers == 2


def test_backoff_grows_until_a_grant_resets_it():
    ladder = FailoverLadder([A], FLAT, max_attempts=10)
    delays = []
    ladder.begin()
    for _ in range(4):
        delays.append(ladder.failed())
        ladder.begin()
    ladder.granted(10)
    delays.append(ladder.failed())
    assert delays == pytest.approx([0.1, 0.2, 0.4, 0.4, 0.1])
    assert [a.backoff_step for a in ladder.history] == [None, 0, 1, 2, 3]


def test_one_route_never_fails_over():
    ladder = FailoverLadder([A], FLAT)
    ladder.begin()
    ladder.failed()
    assert ladder.begin().route_index == 0
    assert ladder.failovers == 0


def test_round_robin_wraps():
    ladder = FailoverLadder([A, B], FLAT, max_attempts=5)
    ladder.begin()
    for _ in range(3):
        ladder.failed()
        ladder.begin()
    assert [a.route_index for a in ladder.history] == [0, 1, 0, 1]
    assert ladder.failovers == 3


def test_exhausted_after_max_attempts_without_drawing():
    rng = random.Random(5)
    ladder = FailoverLadder([A, B], BackoffPolicy(), max_attempts=2, rng=rng)
    ladder.begin()
    assert ladder.failed() is not None
    ladder.begin()
    state = rng.getstate()
    assert ladder.failed() is None
    assert rng.getstate() == state  # no jitter drawn for a retry not taken
    assert ladder.attempts == 2 and ladder.failovers == 1


def test_jitter_draws_from_the_rng_once_per_retry():
    policy = BackoffPolicy(base_s=0.2, jitter=0.1)
    ladder = FailoverLadder([A], policy, rng=random.Random(3))
    ladder.begin()
    expected = policy.delay(0, random.Random(3))
    assert ladder.failed() == expected
    assert ladder.begin().delay == expected


def test_confirmed_stops_retries():
    ladder = FailoverLadder([A, B], FLAT)
    ladder.begin()
    ladder.granted(0)
    ladder.confirmed()
    assert ladder.done
    assert ladder.failed() is None
    assert ladder.failovers == 0


def test_route_provider_is_requeried_before_every_retry():
    calls = []

    def provider():
        calls.append(1)
        return [C, A] if len(calls) > 1 else [A, B]

    ladder = FailoverLadder([A, B], FLAT, route_provider=provider)
    assert ladder.begin().route[0].host == "a"
    assert calls == []  # the first attempt runs on the plan
    ladder.failed()
    assert ladder.begin().route[0].host == "b"  # same ranking: no replan
    assert ladder.replans == 0
    ladder.failed()
    attempt = ladder.begin()  # rung 2 of the fresh [C, A]
    assert (attempt.route_index, attempt.route[0].host) == (0, "c")
    assert ladder.replans == 1 and len(calls) == 2


def test_an_empty_ranking_keeps_the_routes():
    ladder = FailoverLadder([A, B], FLAT, route_provider=lambda: [])
    ladder.begin()
    ladder.failed()
    assert ladder.begin().route[0].host == "b"
    assert ladder.replans == 0
