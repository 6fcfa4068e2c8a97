"""ClusterNode / AsyncClusterNode / LocalCluster end-to-end behavior.

Real loopback sockets throughout: these are the tests that pin the
resume-anywhere story — suspend on one worker, rebind on another,
byte-identical delivery with the MD5 trailer verified over re-fed
spool + live bytes.
"""

import asyncio
import random
import time

import pytest

from repro.lsl.core import real_digest_factory
from repro.sockets import LslSocketClient, ThreadedLslServer
from repro.cluster import ClusterNode, InMemoryStore, LocalCluster

SID = bytes(range(16))
PAYLOAD = random.Random(2026).randbytes(300_000)


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


def _wait_spooled(store, sid, minimum, timeout=5.0):
    def spooled():
        record = store.load(sid)
        return record is not None and record.bytes_received >= minimum

    return _wait(spooled, timeout)


@pytest.fixture(params=["threads", "asyncio"])
def driver(request):
    return request.param


def _make_node(driver, **kwargs):
    if driver == "asyncio":
        from repro.cluster import AsyncClusterNode

        return AsyncClusterNode(**kwargs)
    return ClusterNode(**kwargs)


# -- single node -----------------------------------------------------------


def test_terminal_transfer(driver):
    store = InMemoryStore()
    with _make_node(driver, store=store, worker="w0") as node:
        with LslSocketClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    # the result is published before the session's own bookkeeping ends
    assert _wait(lambda: node.counters.sessions_completed == 1)
    record = store.load(SID)
    assert record.closed is True
    assert store.payload(SID) == b""  # spool dropped on finish


def test_terminal_reply_reaches_client(driver):
    with _make_node(
        driver, store=InMemoryStore(), worker="w0", reply=b"stored!"
    ) as node:
        with LslSocketClient(
            [node.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
            assert client.recv() == b"stored!"


def test_framed_terminal_transfer(driver):
    with _make_node(driver, store=InMemoryStore(), worker="w0") as node:
        with LslSocketClient(
            [node.address], payload_length=len(PAYLOAD), framed=True
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_intermediate_hop_still_relays(driver):
    # a cluster node is a full depot: non-last-hop sessions relay
    # through the inherited machinery instead of terminating
    with ThreadedLslServer() as server:
        with _make_node(
            driver, store=InMemoryStore(), worker="w0"
        ) as node:
            with LslSocketClient(
                [node.address, server.address], payload_length=len(PAYLOAD)
            ) as client:
                client.sendall(PAYLOAD)
                client.finish()
            assert server.wait_for_sessions(1)
            assert _wait(lambda: node.counters.sessions_completed == 1)
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_same_node_suspend_resume(driver):
    cut = 120_000
    store = InMemoryStore()
    with _make_node(driver, store=store, worker="w0") as node:
        with LslSocketClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:cut])
            # close without finish(): FIN mid-payload -> suspend
        assert _wait_spooled(store, SID, cut)
        assert _wait(lambda: node.counters.sessions_suspended == 1)
        with LslSocketClient(
            [node.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
        ) as client:
            assert client.granted_offset == cut
            client.sendall(PAYLOAD[cut:])
            client.finish()
        assert node.wait_for_sessions(1)
    (result,) = node.results
    assert result.payload == PAYLOAD
    assert result.digest_ok is True
    assert result.rebinds == 1
    assert node.counters.takeovers == 0  # same worker: not a takeover


class CountingStore(InMemoryStore):
    """Counts spool read-backs (the resume path that re-feeds them)."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def payload(self, session_id):
        self.reads += 1
        return super().payload(session_id)


def test_a_worker_resumes_the_sessions_it_parked_from_memory(driver):
    cut = 120_000
    store = CountingStore()
    with LocalCluster(1, store=store, driver=driver) as cluster:
        (node,) = cluster.nodes
        for i in range(20):
            sid = bytes([i]) * 16
            with LslSocketClient(
                [cluster.address], payload_length=len(PAYLOAD),
                session_id=sid,
            ) as client:
                client.sendall(PAYLOAD[:cut])
            # parked only once the sublink is done with it, after the
            # spool has the prefix
            assert _wait(lambda: sid in node._parked)
            with LslSocketClient(
                [cluster.address],
                payload_length=len(PAYLOAD),
                session_id=sid,
                rebind=True,
                resume_query=True,
                digest_factory=real_digest_factory(PAYLOAD),
            ) as client:
                assert client.granted_offset == cut
                client.sendall(PAYLOAD[cut:])
                client.finish()
        assert node.wait_for_sessions(20)
        assert store.reads == 0
    assert [r.session_id for r in node.results] == [
        bytes([i]) * 16 for i in range(20)
    ]
    for result in node.results:
        assert result.payload == PAYLOAD and result.digest_ok is True
        assert result.rebinds == 1


class CountingFactory:
    """A ``real_digest_factory`` over PAYLOAD that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, offset):
        self.calls += 1
        return real_digest_factory(PAYLOAD)(offset)


def _suspend_and_resume(driver, cluster, sid, cut, factory):
    """One cycle with the ``driver`` client: ``cut`` bytes, close
    unfinished, wait for the spool, rebind with ``resume_query``, send
    the rest, finish."""
    route = [cluster.address]
    options = dict(payload_length=len(PAYLOAD), session_id=sid)
    rebind = dict(
        options, rebind=True, resume_query=True, digest_factory=factory
    )
    if driver == "threads":
        with LslSocketClient(route, **options) as client:
            client.sendall(PAYLOAD[:cut])
        assert _wait_spooled(cluster.store, sid, cut)
        with LslSocketClient(route, **rebind) as client:
            assert client.granted_offset == cut
            client.sendall(PAYLOAD[cut:])
            client.finish()
        return

    from repro.asockets import AsyncLslClient

    async def cycle():
        async with await AsyncLslClient.open(route, **options) as client:
            await client.sendall(PAYLOAD[:cut])
        # the nodes run on their own threads: blocking here is fine
        assert _wait_spooled(cluster.store, sid, cut)
        async with await AsyncLslClient.open(route, **rebind) as client:
            assert client.granted_offset == cut
            await client.sendall(PAYLOAD[cut:])
            await client.finish()

    asyncio.run(cycle())


def test_a_client_resumes_the_digests_it_parked_from_memory(driver):
    cut = 120_000
    factory = CountingFactory()
    sids = [bytes([0xC0 + i]) * 16 for i in range(20)]
    with LocalCluster(2, driver=driver) as cluster:
        for sid in sids:
            _suspend_and_resume(driver, cluster, sid, cut, factory)
        assert cluster.wait_for_sessions(20)
        results = [r for node in cluster.nodes for r in node.results]
    assert factory.calls == 0
    assert sorted(r.session_id for r in results) == sorted(sids)
    for result in results:
        assert result.payload == PAYLOAD and result.digest_ok is True
        assert result.rebinds == 1


def test_session_ttl_expires_suspended_session(driver):
    store = InMemoryStore()
    with _make_node(
        driver, store=store, worker="w0", session_ttl=0.2
    ) as node:
        with LslSocketClient(
            [node.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:50_000])
        assert _wait(lambda: store.load(SID) is None, timeout=5.0)
        assert _wait(lambda: node.counters.sessions_expired >= 1)
        # an expired session cannot be rebound
        with pytest.raises(Exception):
            LslSocketClient(
                [node.address],
                payload_length=len(PAYLOAD),
                session_id=SID,
                rebind=True,
                resume_query=True,
                digest_factory=real_digest_factory(PAYLOAD),
            )


# -- multi-worker ----------------------------------------------------------


def test_cross_worker_takeover_resume(driver):
    cut = 150_000
    with LocalCluster(2, driver=driver) as cluster:
        with LslSocketClient(
            [cluster.address], payload_length=len(PAYLOAD), session_id=SID
        ) as client:
            client.sendall(PAYLOAD[:cut])
        assert _wait_spooled(cluster.store, SID, cut)
        owner = cluster.store.load(SID).owner
        owner_idx = int(owner[1:])
        cluster.kill(owner_idx)  # crash the owning worker
        with LslSocketClient(
            [cluster.address],
            payload_length=len(PAYLOAD),
            session_id=SID,
            rebind=True,
            resume_query=True,
            digest_factory=real_digest_factory(PAYLOAD),
        ) as client:
            assert client.granted_offset == cut
            client.sendall(PAYLOAD[cut:])
            client.finish()
        survivor = cluster.nodes[1 - owner_idx]
        assert survivor.wait_for_sessions(1)
        (result,) = survivor.results
        assert result.payload == PAYLOAD
        assert result.digest_ok is True
        assert result.rebinds == 1
        assert survivor.counters.takeovers == 1
        counters = cluster.worker_counters()
        assert counters[survivor.worker]["takeovers"] == 1


def test_cluster_aggregated_exposition():
    import json
    import urllib.request

    with LocalCluster(2) as cluster:
        with LslSocketClient(
            [cluster.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert cluster.wait_for_sessions(1)
        assert _wait(
            lambda: sum(n.counters.sessions_completed for n in cluster.nodes)
            == 1
        )
        with cluster.expose() as exposer:
            with urllib.request.urlopen(exposer.url + "/metrics") as resp:
                text = resp.read().decode()
            assert 'lsl_cluster_sessions_completed_total{worker="all"} 1' in text
            assert 'lsl_cluster_worker_up{worker="w0"} 1' in text
            assert 'lsl_cluster_worker_up{worker="w1"} 1' in text
            assert "lsl_cluster_store_sessions 0" in text
            with urllib.request.urlopen(exposer.url + "/healthz") as resp:
                health = json.loads(resp.read().decode())
            assert health["status"] == "ok"
            assert health["workers_up"] == 2


def test_a_killed_worker_reports_down_and_the_fleet_degraded(driver):
    import json
    import urllib.request

    with LocalCluster(2, driver=driver) as cluster:
        cluster.kill(0)
        with cluster.expose() as exposer:
            with urllib.request.urlopen(exposer.url + "/metrics") as resp:
                text = resp.read().decode()
            with urllib.request.urlopen(exposer.url + "/healthz") as resp:
                health = json.loads(resp.read().decode())
        assert 'lsl_cluster_worker_up{worker="w0"} 0' in text
        assert 'lsl_cluster_worker_up{worker="w1"} 1' in text
        assert health["status"] == "degraded" and health["workers_up"] == 1
        # the survivor still serves the fleet's port
        with LslSocketClient(
            [cluster.address], payload_length=len(PAYLOAD)
        ) as client:
            client.sendall(PAYLOAD)
            client.finish()
        assert cluster.nodes[1].wait_for_sessions(1)
    (result,) = cluster.nodes[1].results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_memory_store_rejects_nothing_but_validates_args():
    with pytest.raises(ValueError):
        LocalCluster(0)
    with pytest.raises(ValueError):
        ClusterNode(store=InMemoryStore(), worker="w0", session_ttl=-1.0)
    with pytest.raises(ValueError):
        ClusterNode(store=InMemoryStore(), worker="w0", checkpoint_bytes=0)
