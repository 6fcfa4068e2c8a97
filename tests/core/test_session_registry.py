"""``SessionRegistry`` keeps every open record and at most
``FINISHED_KEPT`` closed ones, forgetting the oldest closed first."""

from repro.lsl.core import SessionRegistry
from repro.lsl.core.session import FINISHED_KEPT


def _sid(i):
    return i.to_bytes(16, "big")


def test_past_the_bound_the_oldest_closed_records_are_forgotten():
    registry = SessionRegistry()
    for i in range(FINISHED_KEPT + 10):
        registry.create(_sid(i), 0.0)
    for i in range(FINISHED_KEPT + 5):
        registry.close(_sid(i))
    registry.close(_sid(FINISHED_KEPT + 4))  # closing twice counts once
    assert registry.live_count == 5
    assert len(registry) == FINISHED_KEPT + 5
    assert not any(_sid(i) in registry for i in range(5))
    assert all(_sid(i) in registry for i in range(5, FINISHED_KEPT + 10))
    assert registry.get(_sid(5)).closed


def test_open_records_are_never_forgotten():
    registry = SessionRegistry()
    for i in range(2 * FINISHED_KEPT):
        registry.create(_sid(i), 0.0)
    for i in range(FINISHED_KEPT, 3 * FINISHED_KEPT):
        if i >= 2 * FINISHED_KEPT:
            registry.create(_sid(i), 0.0)
        registry.close(_sid(i))
    assert registry.live_count == FINISHED_KEPT
    assert all(_sid(i) in registry for i in range(FINISHED_KEPT))
    assert len(registry) == 2 * FINISHED_KEPT


def test_expire_still_works_under_the_bound():
    registry = SessionRegistry()
    idle, done, fresh = _sid(1), _sid(2), _sid(3)
    registry.create(idle, 0.0)
    registry.create(done, 0.0)
    registry.close(done)
    registry.create(fresh, 10.0)
    expired = registry.expire(20.0, 15.0)
    assert [r.session_id for r in expired] == [idle]
    assert idle not in registry and done not in registry and fresh in registry
    # an expired closed id is free again, and bounded as a new record
    registry.create(done, 21.0)
    registry.close(done)
    for i in range(100, 100 + FINISHED_KEPT):
        registry.create(_sid(i), 21.0)
        registry.close(_sid(i))
    assert done not in registry and fresh in registry
    assert len(registry) == FINISHED_KEPT + 1
