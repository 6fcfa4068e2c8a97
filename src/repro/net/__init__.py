"""Packet network substrate.

Models the pieces of an IP network that matter to TCP dynamics:

- full-duplex point-to-point **links** with a serialization rate,
  propagation delay, finite drop-tail queue and a pluggable stochastic
  loss model (:mod:`repro.net.link`, :mod:`repro.net.loss`);
- **hosts** that terminate transport protocols and **routers** that
  forward by destination using static shortest-path routes computed
  with a standard-library Dijkstra (:mod:`repro.net.node`,
  :mod:`repro.net.routing`);
- a **topology builder** that wires it all to a simulator
  (:mod:`repro.net.topology`).

Addresses are plain strings (hostnames); there is no fragmentation —
transport layers are expected to respect the path MTU via their MSS,
as real TCP does with path-MTU discovery.
"""

from repro.net.address import Endpoint
from repro.net.packet import Packet, PROTO_TCP
from repro.net.loss import BernoulliLoss, GilbertElliottLoss, LossModel, NoLoss
from repro.net.link import Link, LinkDirection, LinkStats
from repro.net.node import Host, Node, ProtocolHandler, Router
from repro.net.routing import NoRouteError, compute_static_routes
from repro.net.topology import Network

__all__ = [
    "Endpoint",
    "Packet",
    "PROTO_TCP",
    "LossModel",
    "NoLoss",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "Link",
    "LinkDirection",
    "LinkStats",
    "Node",
    "Host",
    "Router",
    "ProtocolHandler",
    "compute_static_routes",
    "NoRouteError",
    "Network",
]
