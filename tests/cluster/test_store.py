"""SessionStore contract, run against every backend.

One parametrized suite: whatever holds for the in-memory dict must
hold identically for the shared-directory and RESP backends — the
cluster's resume-anywhere correctness rests on the three agreeing
about epochs, guarded writes, and spool contents.
"""

import pytest

from repro.cluster import (
    InMemoryStore,
    MiniRedis,
    RedisProtocolStore,
    SharedFileStore,
    StoredSession,
    open_store,
)

SID = bytes(range(16))
SID2 = bytes(reversed(range(16)))


@pytest.fixture(params=["memory", "file", "redis"])
def store(request, tmp_path):
    if request.param == "memory":
        backend = InMemoryStore()
        yield backend
        backend.close()
    elif request.param == "file":
        backend = SharedFileStore(str(tmp_path / "store"))
        yield backend
        backend.close()
    else:
        with MiniRedis() as server:
            backend = RedisProtocolStore(server.address[0], server.address[1])
            yield backend
            backend.close()


def test_ping(store):
    assert store.ping() is True


def test_create_load_roundtrip(store):
    created = store.create(SID, now=10.0, owner="w0")
    assert created.epoch == 1
    assert created.owner == "w0"
    assert created.bytes_received == 0
    assert created.closed is False
    loaded = store.load(SID)
    assert loaded == created
    assert store.load(SID2) is None


def test_create_duplicate_raises(store):
    store.create(SID, now=0.0, owner="w0")
    with pytest.raises(ValueError):
        store.create(SID, now=1.0, owner="w1")


def test_claim_bumps_epoch_and_rebinds(store):
    store.create(SID, now=0.0, owner="w0")
    claimed = store.claim(SID, "w1", now=1.0)
    assert claimed.owner == "w1"
    assert claimed.epoch == 2
    assert claimed.rebinds == 1
    assert store.claim(SID2, "w1", now=1.0) is None  # unknown


def test_guarded_append_and_stale_refusal(store):
    first = store.create(SID, now=0.0, owner="w0")
    assert store.append_payload(SID, "w0", first.epoch, b"abc", 0.1) == 3
    assert store.append_payload(SID, "w0", first.epoch, b"de", 0.2) == 5
    assert store.payload(SID) == b"abcde"
    # another worker takes over: the old owner's epoch is now stale
    claimed = store.claim(SID, "w1", now=1.0)
    assert store.append_payload(SID, "w0", first.epoch, b"XX", 1.1) is None
    assert store.touch(SID, "w0", first.epoch, 1.1) is False
    assert store.finish(SID, "w0", first.epoch, 1.1) is False
    assert store.payload(SID) == b"abcde"  # stale write left no trace
    # the new owner continues from the preserved spool
    assert store.append_payload(SID, "w1", claimed.epoch, b"fg", 1.2) == 7
    assert store.payload(SID) == b"abcdefg"


def _tear(store, data):
    """What a crash between the spool append and the record write
    leaves: spool bytes the record does not count."""
    if isinstance(store, SharedFileStore):
        with open(store._spool_path(SID), "ab") as fp:
            fp.write(data)
    else:
        store._client.command("APPEND", store._spool_key(SID), data)


@pytest.mark.parametrize("spooled", [b"", b"abcde"])
def test_claim_cuts_the_spool_back_to_the_record(store, spooled):
    first = store.create(SID, now=0.0, owner="w0")
    if spooled:
        store.append_payload(SID, "w0", first.epoch, spooled, 0.1)
    if not isinstance(store, InMemoryStore):  # its appends cannot tear
        _tear(store, b"torn")
    claimed = store.claim(SID, "w1", now=1.0)
    assert claimed.bytes_received == len(spooled)
    assert store.payload(SID) == spooled
    assert store.append_payload(SID, "w1", claimed.epoch, b"fg", 1.2) == (
        len(spooled) + 2
    )


def test_reset_truncates_spool(store):
    # the RestartSession stale-state fix: a restart must not leak the
    # previous incarnation's digest prefix into the new session
    first = store.create(SID, now=0.0, owner="w0")
    store.append_payload(SID, "w0", first.epoch, b"old-bytes", 0.1)
    reset = store.reset(SID, "w1", now=1.0)
    assert reset.bytes_received == 0
    assert reset.rebinds == 0
    assert reset.epoch == first.epoch + 1
    assert reset.closed is False
    assert store.payload(SID) == b""


def test_finish_closes_and_drops_spool(store):
    first = store.create(SID, now=0.0, owner="w0")
    store.append_payload(SID, "w0", first.epoch, b"data", 0.1)
    assert store.finish(SID, "w0", first.epoch, 0.2) is True
    assert store.load(SID).closed is True
    assert store.payload(SID) == b""
    # closed sessions can be neither claimed nor written
    assert store.claim(SID, "w1", 0.3) is None
    assert store.append_payload(SID, "w0", first.epoch, b"x", 0.3) is None


def test_touch_refreshes_last_active(store):
    first = store.create(SID, now=0.0, owner="w0")
    assert store.touch(SID, "w0", first.epoch, 5.0) is True
    assert store.load(SID).last_active == 5.0


def test_delete_forgets(store):
    store.create(SID, now=0.0, owner="w0")
    store.delete(SID)
    assert store.load(SID) is None
    store.delete(SID)  # idempotent


def test_sweep_drops_idle_reports_open(store):
    first = store.create(SID, now=0.0, owner="w0")
    store.create(SID2, now=0.0, owner="w0")
    store.touch(SID2, "w0", 1, now=9.0)  # SID2 stays fresh
    expired = store.sweep(now=10.0, ttl=5.0)
    assert [r.session_id for r in expired] == [SID]
    assert store.load(SID) is None
    assert store.load(SID2) is not None
    # a closed record is collected silently, not reported
    store.finish(SID2, "w0", 1, now=10.0)
    assert store.sweep(now=100.0, ttl=5.0) == []
    assert store.load(SID2) is None


def test_sweep_rejects_bad_ttl(store):
    with pytest.raises(ValueError):
        store.sweep(now=1.0, ttl=0.0)


def test_live_sessions_counts_open_only(store):
    assert store.live_sessions() == 0
    store.create(SID, now=0.0, owner="w0")
    store.create(SID2, now=0.0, owner="w0")
    store.finish(SID2, "w0", 1, 0.1)
    assert store.live_sessions() == 1


def test_counters_roundtrip(store):
    store.publish_counters("w0", {"sessions_accepted": 3, "takeovers": 1})
    store.publish_counters("w1", {"sessions_accepted": 2})
    snap = store.counters()
    assert snap["w0"]["sessions_accepted"] == 3
    assert snap["w0"]["takeovers"] == 1
    assert snap["w1"] == {"sessions_accepted": 2}
    # republish replaces, not merges
    store.publish_counters("w0", {"sessions_accepted": 4})
    assert store.counters()["w0"] == {"sessions_accepted": 4}


def test_stored_session_codec_roundtrip():
    snap = StoredSession(
        session_id=SID,
        created_at=1.5,
        last_active=2.5,
        bytes_received=42,
        rebinds=3,
        owner="w7",
        epoch=9,
        closed=True,
    )
    assert StoredSession.decode(snap.encode()) == snap


class TestOpenStore:
    def test_memory(self):
        assert isinstance(open_store("memory"), InMemoryStore)

    def test_file(self, tmp_path):
        backend = open_store(f"file:{tmp_path / 's'}")
        assert isinstance(backend, SharedFileStore)

    def test_redis(self):
        with MiniRedis() as server:
            backend = open_store(
                f"redis://{server.address[0]}:{server.address[1]}"
            )
            assert isinstance(backend, RedisProtocolStore)
            assert backend.ping()
            backend.close()

    @pytest.mark.parametrize(
        "spec", ["", "file:", "redis://", "redis://nohost", "s3://bucket"]
    )
    def test_bad_specs(self, spec):
        with pytest.raises(ValueError):
            open_store(spec)
