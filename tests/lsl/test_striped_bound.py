"""The simulator's striped server: the shared striped engine, with a
reassembly bound that holds the sublinks running ahead and never the
one carrying the hole."""

from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.striping import REASSEMBLY_BYTES, StripeAssembler
from repro.lsl.core.wire import LslHeader, RouteHop
from repro.lsl.depot import Depot
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.net.topology import Network
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import TcpStack

MIB = 1 << 20


def dual_pop(south_bps):
    """Two disjoint depot paths, loss-free, the south one slow."""
    net = Network(seed=1)
    for h in ("src", "dst", "d-north", "d-south"):
        net.add_host(h)
    for r in ("north", "south"):
        net.add_router(r)
    net.add_link("src", "north", 100e6, 14.0)
    net.add_link("north", "dst", 100e6, 15.0)
    net.add_link("src", "south", south_bps, 22.0)
    net.add_link("south", "dst", south_bps, 23.0)
    net.add_link("north", "d-north", 622e6, 1.0)
    net.add_link("south", "d-south", 622e6, 1.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("src", "dst", "d-north", "d-south")}
    Depot(stacks["d-north"], 4000)
    Depot(stacks["d-south"], 4000)
    return net, stacks


def test_a_slow_path_is_waited_for_not_deadlocked_on(monkeypatch):
    """16 MiB over a fast and a 2 Mbit/s path: the fast sublink runs
    more than the bound ahead of the slow one's stripes. Holding every
    sublink at the bound stopped this session at 503 KiB delivered."""
    peak = [0]
    feed = StripeAssembler.feed

    def measured(self, key, chunks):
        events = feed(self, key, chunks)
        peak[0] = max(peak[0], self.ooo_bytes)
        return events

    monkeypatch.setattr(StripeAssembler, "feed", measured)

    net, stacks = dual_pop(2e6)
    done = {}

    def on_session(sess):
        sess.on_complete = lambda s: done.update(ok=s.digest_ok)
        sess.on_error = lambda e: done.setdefault("error", e)

    server = StripedLslServer(stacks["dst"], 5000, on_session)
    StripedClient(
        stacks["src"],
        [[("d-north", 4000), ("dst", 5000)], [("d-south", 4000), ("dst", 5000)]],
        payload_length=16 * MIB,
    )
    net.sim.run(until=600.0)
    assert done == {"ok": True}
    assert server.errors == []
    (session,) = server.sessions.values()
    assert session.payload_received == 16 * MIB
    # the bound was reached, held no more than a receive buffer more per
    # sublink, and holds nothing once the session is over
    assert REASSEMBLY_BYTES <= peak[0]
    assert peak[0] <= REASSEMBLY_BYTES + 2 * TcpOptions().recv_buffer
    assert session.held == []


def test_striped_server_records_nothing_for_a_connection_without_a_byte():
    net, stacks = dual_pop(100e6)
    server = StripedLslServer(stacks["dst"], 5000, lambda sess: None)
    idle, partial = stacks["src"].socket(), stacks["src"].socket()
    header = LslHeader(
        session_id=bytes(16), route=(RouteHop("dst", 5000),),
        payload_length=10, framed=True,
    )

    def send_part():
        partial.send(header.encode()[:10])
        partial.close()

    idle.connect(("dst", 5000), on_connected=idle.close)
    net.sim.run(until=5.0)
    assert server.errors == [] and server.sessions == {}
    partial.connect(("dst", 5000), on_connected=send_part)
    net.sim.run(until=10.0)
    (error,) = server.errors
    assert isinstance(error, ProtocolError) and "EOF before" in str(error)
