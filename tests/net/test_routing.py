"""Tests for static routing and packet forwarding."""

import random

import pytest

from repro.experiments.scenarios import SCENARIOS, symmetric_two_segment
from repro.net.packet import Packet
from repro.net.routing import NoRouteError, path_between
from repro.net.topology import Network


class Catcher:
    def __init__(self, net):
        self.net = net
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)


def linear_net():
    """a - r1 - r2 - b plus a shortcut a - b with higher delay."""
    net = Network(seed=1)
    net.add_host("a")
    net.add_host("b")
    net.add_router("r1")
    net.add_router("r2")
    net.add_link("a", "r1", 1e9, 1.0)
    net.add_link("r1", "r2", 1e9, 1.0)
    net.add_link("r2", "b", 1e9, 1.0)
    net.finalize()
    return net


def test_multi_hop_forwarding():
    net = linear_net()
    catcher = Catcher(net)
    net.host("b").register_protocol("t", catcher)
    net.host("a").send(Packet("a", "b", "t", None, 100))
    net.sim.run()
    assert len(catcher.packets) == 1
    assert catcher.packets[0].hops == 3


def test_routed_path():
    net = linear_net()
    assert net.routed_path("a", "b") == ["a", "r1", "r2", "b"]


def test_shortest_delay_path_wins():
    net = Network(seed=1)
    net.add_host("a")
    net.add_host("b")
    net.add_router("slow")
    net.add_router("fast")
    net.add_link("a", "slow", 1e9, 50.0)
    net.add_link("slow", "b", 1e9, 50.0)
    net.add_link("a", "fast", 1e9, 1.0)
    net.add_link("fast", "b", 1e9, 1.0)
    net.finalize()
    assert net.routed_path("a", "b") == ["a", "fast", "b"]


def test_path_rtt_and_bottleneck():
    net = Network(seed=1)
    net.add_host("a")
    net.add_host("b")
    net.add_router("r")
    net.add_link("a", "r", 10e6, 5.0)
    net.add_link("r", "b", 2e6, 15.0)
    net.finalize()
    assert net.path_rtt_s("a", "b") == pytest.approx(0.040)
    assert net.path_bottleneck_bps("a", "b") == 2e6


def test_no_route_drops_packet():
    net = Network(seed=1)
    net.add_host("a")
    net.add_host("b")  # no link at all
    net.finalize()
    net.logger.enabled = True
    net.host("a").send(Packet("a", "b", "t", None, 100))
    net.sim.run()
    assert net.logger.count(event="drop-noroute") == 1


def test_routed_path_disconnected_raises():
    net = Network(seed=1)
    net.add_host("a")
    net.add_host("b")
    net.finalize()
    with pytest.raises(NoRouteError):
        net.routed_path("a", "b")


def test_router_does_not_terminate_packets():
    net = linear_net()
    net.logger.enabled = True
    net.host("a").send(Packet("a", "r1", "t", None, 100))
    net.sim.run()
    assert net.logger.count(event="drop-nohandler") == 1


def test_host_without_handler_logs_drop():
    net = linear_net()
    net.logger.enabled = True
    net.host("a").send(Packet("a", "b", "unknown-proto", None, 100))
    net.sim.run()
    assert net.logger.count(source="b", event="drop-nohandler") == 1


def test_duplicate_node_name_rejected():
    net = Network(seed=1)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")


def test_host_accessor_type_checks():
    net = Network(seed=1)
    net.add_router("r")
    with pytest.raises(TypeError):
        net.host("r")


def test_duplicate_protocol_registration_rejected():
    net = Network(seed=1)
    h = net.add_host("a")
    catcher = Catcher(net)
    h.register_protocol("t", catcher)
    with pytest.raises(ValueError):
        h.register_protocol("t", catcher)


def test_ttl_guard_breaks_loops():
    """Two nodes with deliberately-corrupted routes pointing at each
    other must not loop forever."""
    net = Network(seed=1)
    net.add_host("a")
    net.add_router("r")
    net.add_host("b")
    net.add_link("a", "r", 1e9, 1.0)
    net.add_link("r", "b", 1e9, 1.0)
    net.finalize()
    # corrupt: r routes b-destined traffic back to a
    r = net.nodes["r"]
    r.routes["b"] = r.links["a"]
    net.logger.enabled = True
    net.host("a").send(Packet("a", "b", "t", None, 100))
    net.sim.run(until=10.0)
    assert net.logger.count(event="drop-ttl") == 1


# -- networkx as the oracle ---------------------------------------------------
#
# The routes used to come from networkx; the stdlib search must pick the
# very same next-hop link everywhere, ties included, or every seeded run
# (and both simulator pins) would move.


def _oracle(net):
    """networkx's graph, and the next-hop link its all-pairs paths give."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(sorted(net.nodes))
    link_by_pair = {}
    for link in net.links:
        a, b = link.forward.src.name, link.forward.dst.name
        graph.add_edge(a, b, weight=link.forward.delay_s)
        link_by_pair[(a, b)] = link_by_pair[(b, a)] = link
    paths = dict(nx.all_pairs_dijkstra_path(graph, weight="weight"))
    routes = {
        src: {dst: link_by_pair[(src, path[1])] for dst, path in by_dst.items()
              if dst != src}
        for src, by_dst in paths.items()
    }
    return nx, graph, routes


def _assert_routes_match(net):
    _, _, expected = _oracle(net)
    for src, node in net.nodes.items():
        assert sorted(node.routes) == sorted(expected[src]), src
        for dst, link in expected[src].items():
            assert node.routes[dst] is link, (src, dst)


def _tied_net(rng):
    """A random graph whose delays tie often: few distinct values, some
    of them exact in binary, and now and then a second link between the
    same pair."""
    n = rng.randint(2, 9)
    names = [f"n{i}" for i in rng.sample(range(20), n)]
    net = Network(seed=0)
    for name in names:
        net.add_router(name)
    for _ in range(rng.randint(0, n * (n - 1) // 2 + 2)):
        a, b = rng.sample(names, 2)
        net.add_link(a, b, 1e9, rng.choice((1.0, 2.0, 3.0, 1000.0, 2000.0)))
    net.finalize()
    return net


def test_routes_match_networkx_on_tied_random_graphs():
    rng = random.Random(37)
    for _ in range(300):
        _assert_routes_match(_tied_net(rng))


def test_path_between_matches_networkx_dijkstra_path():
    rng = random.Random(3700)
    for _ in range(150):
        net = _tied_net(rng)
        nx, graph, _ = _oracle(net)
        for src in net.nodes:
            for dst in net.nodes:
                try:
                    expected = nx.dijkstra_path(graph, src, dst, weight="weight")
                except nx.NetworkXNoPath:
                    with pytest.raises(NoRouteError):
                        path_between(net.nodes, net.links, src, dst)
                    continue
                assert path_between(net.nodes, net.links, src, dst) == expected


def test_no_route_for_a_disconnected_pair_or_an_unknown_node():
    net = Network(seed=1)
    for name in ("a", "b", "c"):
        net.add_router(name)
    net.add_link("a", "b", 1e9, 1.0)
    net.finalize()
    assert "c" not in net.nodes["a"].routes
    unknown = (("a", "zz"), ("zz", "a"), ("zz", "zz"))
    for src, dst in (("a", "c"), ("c", "a"), *unknown):
        with pytest.raises(NoRouteError):
            path_between(net.nodes, net.links, src, dst)
    assert path_between(net.nodes, net.links, "c", "c") == ["c"]


@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["ablation-two-segment"])
def test_every_scenario_routes_as_networkx_does(name):
    factory = SCENARIOS.get(name, symmetric_two_segment)
    _assert_routes_match(factory().build(seed=1).net)
