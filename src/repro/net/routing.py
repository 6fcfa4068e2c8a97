"""Static shortest-path routing.

Routes are computed once, after the topology is built, with Dijkstra
over the link graph weighted by propagation delay — the analogue of
the fixed "default path" the paper is careful not to disturb ("we do
not even alter the default path through the network"). LSL never
changes these routes; it only adds a depot *on* them.

The search is a port of networkx 3's ``_dijkstra_multisource`` on the
standard library's :mod:`heapq`, so that equal-delay paths resolve as
they did when the routes came from networkx: neighbours are scanned in
the order their links were added (a node's adjacency starts from the
sorted node names), heap entries are ``(distance, insertion count,
node)``, and only a strictly shorter distance replaces a tentative
one, so the first equal-cost path found wins. ``tests/net/test_routing.py``
checks every route table against networkx as an oracle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count, islice
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.link import Link
    from repro.net.node import Node


class NoRouteError(RuntimeError):
    """Raised when the topology graph is disconnected."""


def _graph(
    nodes: Dict[str, "Node"], links: Iterable["Link"]
) -> Tuple[Dict[str, Dict[str, float]], Dict[Tuple[str, str], "Link"]]:
    """The delay-weighted adjacency and the link joining each ordered
    pair. A second link between the same pair overwrites the delay but
    keeps the neighbour's place, and owns the pair."""
    adj: Dict[str, Dict[str, float]] = {name: {} for name in sorted(nodes)}
    link_by_pair: Dict[Tuple[str, str], "Link"] = {}
    for link in links:
        a, b = link.forward.src.name, link.forward.dst.name
        adj.setdefault(a, {})
        adj.setdefault(b, {})
        adj[a][b] = adj[b][a] = link.forward.delay_s
        link_by_pair[(a, b)] = link
        link_by_pair[(b, a)] = link
    return adj, link_by_pair


def _shortest_paths(
    adj: Dict[str, Dict[str, float]], source: str, target: Optional[str] = None
) -> Dict[str, List[str]]:
    """Minimum-delay path from ``source`` to every node it reaches, or
    to the nodes settled up to ``target`` when one is given."""
    dist: Dict[str, float] = {}  # settled nodes, in the order settled
    seen: Dict[str, float] = {source: 0}
    pred: Dict[str, str] = {}
    counter = count()
    fringe = [(0, next(counter), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue  # already settled
        dist[v] = dist_v
        if v == target:
            break
        for u, delay_s in adj[v].items():
            vu_dist = dist_v + delay_s
            if u in dist:
                continue  # delays are non-negative: never shorter
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
                pred[u] = v
    paths = {source: [source]}
    for v in islice(dist, 1, None):
        paths[v] = paths[pred[v]] + [v]
    return paths


def compute_static_routes(
    nodes: Dict[str, "Node"], links: Iterable["Link"]
) -> None:
    """Populate ``node.routes`` for every node, in place.

    For each (source, destination) pair the next-hop link follows the
    minimum-propagation-delay path; ties are broken by link order (see
    the module docstring), so runs are reproducible.
    """
    adj, link_by_pair = _graph(nodes, links)
    for src_name, node in nodes.items():
        node.routes.clear()
        node._tx_dirs.clear()  # resolved directions follow the routes
        by_dst = _shortest_paths(adj, src_name)
        for dst_name in nodes:
            if dst_name == src_name:
                continue
            path = by_dst.get(dst_name)
            if path is None:
                continue  # unreachable: lookups will fail loudly at send time
            node.routes[dst_name] = link_by_pair[(src_name, path[1])]


def path_between(
    nodes: Dict[str, "Node"], links: Iterable["Link"], src: str, dst: str
) -> list:
    """Return the hostname sequence of the routed path (for tests/UI)."""
    adj, _ = _graph(nodes, links)
    if src not in adj:
        raise NoRouteError(f"no route {src} -> {dst}: unknown node {src!r}")
    if dst == src:
        return [src]
    path = _shortest_paths(adj, src, target=dst).get(dst)
    if path is None:
        raise NoRouteError(f"no route {src} -> {dst}")
    return path
