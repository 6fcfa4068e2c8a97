"""Striped (parallel / multi-path) session tests."""

import pytest

from repro.lsl.core.errors import LslError, RouteError
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.lsl.depot import Depot
from repro.net.loss import BernoulliLoss
from repro.net.topology import Network
from repro.tcp.sockets import TcpStack


def single_path_world(seed=1, loss=None):
    net = Network(seed=seed)
    for h in ("client", "server"):
        net.add_host(h)
    net.add_link("client", "server", 50e6, 15.0, loss=loss)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "server")}
    done = {}

    def on_session(sess):
        sess.on_complete = lambda s: done.update(
            t=net.sim.now, ok=s.digest_ok, received=s.payload_received
        )
        sess.on_error = lambda e: done.setdefault("err", e)

    server = StripedLslServer(stacks["server"], 5000, on_session)
    return net, stacks, server, done


def test_single_route_striped_session():
    net, stacks, server, done = single_path_world()
    StripedClient(stacks["client"], [[("server", 5000)]], payload_length=500_000)
    net.sim.run(until=120.0)
    assert done.get("received") == 500_000
    assert done.get("ok") is True


def test_parallel_routes_split_work():
    net, stacks, server, done = single_path_world()
    client = StripedClient(
        stacks["client"], [[("server", 5000)]] * 3, payload_length=2 << 20
    )
    net.sim.run(until=120.0)
    assert done.get("received") == 2 << 20
    split = client.per_sublink_bytes()
    assert sum(split) == 2 << 20
    # every sublink carried something
    assert all(b > 0 for b in split), split


def test_parallel_streams_outperform_single_on_lossy_path():
    """The PSockets observation the paper cites as related work."""

    from repro.tcp.options import TcpOptions

    def run(nroutes, seed):
        net = Network(seed=seed)
        for h in ("client", "server"):
            net.add_host(h)
        net.add_link("client", "server", 50e6, 15.0, loss=BernoulliLoss(8e-4))
        net.finalize()
        # Linux-2.4-style growth-limited regime, where extra streams pay
        opts = TcpOptions(initial_ssthresh=64 * 1024)
        stacks = {h: TcpStack(net.host(h), opts) for h in ("client", "server")}
        done = {}

        def on_session(sess):
            sess.on_complete = lambda s: done.update(t=net.sim.now)

        StripedLslServer(stacks["server"], 5000, on_session)
        StripedClient(
            stacks["client"], [[("server", 5000)]] * nroutes,
            payload_length=8 << 20,
        )
        net.sim.run(until=600.0)
        return (8 << 20) * 8 / done["t"] / 1e6

    single = sum(run(1, s) for s in (1, 2)) / 2
    quad = sum(run(4, s) for s in (1, 2)) / 2
    assert quad > 1.5 * single, f"{quad:.1f} vs {single:.1f}"


def test_real_data_reassembled_in_order():
    net, stacks, server, done = single_path_world()
    data = bytes(range(256)) * 1000

    def on_session(sess):
        sess.on_complete = lambda s: done.update(ok=s.digest_ok)

    server.on_session = on_session

    # use digest verification as the order proof: out-of-order
    # reassembly would break the MD5
    StripedClient(
        stacks["client"],
        [[("server", 5000)]] * 4,
        payload_length=len(data),
        data=data,
        stripe_bytes=8 * 1024,
    )
    net.sim.run(until=300.0)
    assert done.get("ok") is True


def test_multipath_through_different_depots():
    net = Network(seed=3)
    for h in ("client", "server", "d-north", "d-south"):
        net.add_host(h)
    net.add_router("north")
    net.add_router("south")
    net.add_link("client", "north", 30e6, 12.0, loss=BernoulliLoss(3e-4))
    net.add_link("north", "server", 30e6, 12.0, loss=BernoulliLoss(1e-4))
    net.add_link("client", "south", 30e6, 20.0, loss=BernoulliLoss(3e-4))
    net.add_link("south", "server", 30e6, 20.0, loss=BernoulliLoss(1e-4))
    net.add_link("north", "d-north", 622e6, 0.5)
    net.add_link("south", "d-south", 622e6, 0.5)
    net.finalize()
    stacks = {
        h: TcpStack(net.host(h))
        for h in ("client", "server", "d-north", "d-south")
    }
    Depot(stacks["d-north"], 4000)
    Depot(stacks["d-south"], 4000)
    done = {}

    def on_session(sess):
        sess.on_complete = lambda s: done.update(ok=s.digest_ok, n=s.payload_received)
        sess.on_error = lambda e: done.setdefault("err", e)

    server = StripedLslServer(stacks["server"], 5000, on_session)
    client = StripedClient(
        stacks["client"],
        [
            [("d-north", 4000), ("server", 5000)],
            [("d-south", 4000), ("server", 5000)],
        ],
        payload_length=3 << 20,
    )
    net.sim.run(until=300.0)
    assert done.get("n") == 3 << 20
    assert done.get("ok") is True
    split = client.per_sublink_bytes()
    assert all(b > 0 for b in split), split
    # the faster (north) path carries at least as much as the south
    assert split[0] >= split[1] * 0.8


def test_sublink_failure_degrades_not_aborts():
    """A dead route is a degradation: its stripes are re-dealt to the
    survivors and the session still completes (no resume needed)."""
    net, stacks, server, done = single_path_world()
    errors = []
    client = StripedClient(
        stacks["client"],
        [[("server", 5000)], [("server", 9999)]],  # second route: dead port
        payload_length=1 << 20,
        on_error=errors.append,
    )
    net.sim.run(until=60.0)
    assert not errors
    assert done.get("received") == 1 << 20
    assert done.get("ok") is True
    assert client.failed is None


def test_all_sublinks_dead_fails_session():
    net, stacks, server, done = single_path_world()
    errors = []
    client = StripedClient(
        stacks["client"],
        [[("server", 9998)], [("server", 9999)]],  # both routes dead
        payload_length=1 << 20,
        on_error=errors.append,
    )
    net.sim.run(until=60.0)
    assert errors
    assert client.failed is not None
    assert done.get("ok") is not True


@pytest.mark.parametrize("mode", ["duplicate-1", "parity"])
def test_redundant_striped_session_completes(mode):
    net, stacks, server, done = single_path_world()
    data = bytes(range(256)) * 2048  # 512 KiB
    client = StripedClient(
        stacks["client"],
        [[("server", 5000)]] * 3,
        payload_length=len(data),
        data=data,
        stripe_bytes=32 * 1024,
        redundancy=mode,
    )
    net.sim.run(until=300.0)
    assert done.get("received") == len(data)
    assert done.get("ok") is True
    if mode.startswith("duplicate"):
        assert client.scheduler.redundant_stripes > 0
        # the receiver saw (and discarded) duplicate coverage
        sess = next(iter(server.sessions.values()))
        assert sess.assembler.duplicate_bytes > 0


def test_duplicate_trailer_on_second_sublink_discarded():
    """Redundancy duplicates the digest trailer across sublinks; the
    second copy must be discarded, not fail the session."""
    net, stacks, server, done = single_path_world()
    data = bytes(range(256)) * 1024
    StripedClient(
        stacks["client"],
        [[("server", 5000)]] * 2,
        payload_length=len(data),
        data=data,
        stripe_bytes=16 * 1024,
        redundancy="duplicate-1",
    )
    net.sim.run(until=300.0)
    assert done.get("ok") is True
    sess = next(iter(server.sessions.values()))
    # duplicate coverage (incl. the second trailer copy when it lands
    # before completion) is discarded, never an error
    assert sess.assembler.duplicate_bytes > 0
    assert not server.errors


def test_migrate_moves_sublink_to_new_route_mid_transfer():
    net = Network(seed=5)
    for h in ("client", "server", "d-a", "d-b"):
        net.add_host(h)
    net.add_router("core")
    net.add_link("client", "core", 30e6, 10.0)
    net.add_link("core", "server", 30e6, 10.0)
    net.add_link("core", "d-a", 100e6, 1.0)
    net.add_link("core", "d-b", 100e6, 1.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("client", "server", "d-a", "d-b")}
    Depot(stacks["d-a"], 4000)
    depot_b = Depot(stacks["d-b"], 4000)
    done = {}

    def on_session(sess):
        sess.on_complete = lambda s: done.update(ok=s.digest_ok, n=s.payload_received)
        sess.on_error = lambda e: done.setdefault("err", e)

    server = StripedLslServer(stacks["server"], 5000, on_session)
    client = StripedClient(
        stacks["client"],
        [
            [("server", 5000)],
            [("d-a", 4000), ("server", 5000)],
        ],
        payload_length=4 << 20,
        stripe_bytes=64 * 1024,
    )

    def flip():
        # the forecast on d-a flipped: move that sublink to d-b
        if not client.sublinks[1].closed:
            client.migrate(1, [("d-b", 4000), ("server", 5000)])

    net.sim.schedule(0.4, flip)
    net.sim.run(until=300.0)
    assert done.get("n") == 4 << 20
    assert done.get("ok") is True
    assert client.scheduler.migrations == 1
    # the replacement sublink really joined the session and relayed
    # payload through d-b — regression for the migrate() pump racing
    # ahead of the new sublink's LSL header (the depot then rejects the
    # sublink and the transfer silently degrades onto the survivor)
    assert client.sublinks[2].bytes_sent > 0
    assert server.errors == []
    assert depot_b.counters.sessions_failed == 0
    assert depot_b.counters.sessions_accepted == 1
    assert depot_b.counters.bytes_relayed > 0


def test_unframed_sublink_rejected_by_striped_server():
    net, stacks, server, done = single_path_world()
    from repro.lsl.client import lsl_connect

    conn = lsl_connect(
        stacks["client"], [("server", 5000)], payload_length=100, sync=False
    )
    closed = []
    conn.on_close = closed.append
    net.sim.run(until=30.0)
    assert server.errors
    assert closed and closed[0] is not None


def test_validation():
    net, stacks, server, done = single_path_world()
    with pytest.raises(RouteError):
        StripedClient(stacks["client"], [], payload_length=10)
    with pytest.raises(LslError):
        StripedClient(stacks["client"], [[("server", 5000)]], payload_length=0)
    with pytest.raises(LslError):
        StripedClient(
            stacks["client"], [[("server", 5000)]], payload_length=10, data=b"x"
        )
    with pytest.raises(ValueError):
        StripedClient(
            stacks["client"], [[("server", 5000)]],
            payload_length=10, stripe_bytes=0,
        )


def test_digestless_striped_session():
    net, stacks, server, done = single_path_world()
    StripedClient(
        stacks["client"], [[("server", 5000)]] * 2,
        payload_length=300_000, digest=False,
    )
    net.sim.run(until=120.0)
    assert done.get("received") == 300_000
    assert done.get("ok") is None
