"""repro — a reproduction of *The Logistical Session Layer* (Swany & Wolski).

The package implements, from scratch:

- a deterministic discrete-event simulation kernel (:mod:`repro.sim`),
- a packet network substrate with links, queues, loss models, hosts,
  routers and static routing (:mod:`repro.net`),
- a TCP implementation with Tahoe/Reno/NewReno congestion control,
  Jacobson/Karn RTT estimation and a BSD-socket-like API
  (:mod:`repro.tcp`),
- the paper's contribution, the Logistical Session Layer: sessions
  carried over cascaded TCP connections through intermediate depots
  (:mod:`repro.lsl`),
- NWS-style forecasting and depot/path planning (:mod:`repro.logistics`),
- packet-trace analysis mirroring the paper's methodology
  (:mod:`repro.analysis`),
- the paper's experimental campaign (:mod:`repro.experiments`), and
- a real-socket prototype of the ``lsd`` depot daemon
  (:mod:`repro.sockets`).

Quickstart
----------

>>> from repro.experiments import scenarios, transfer
>>> scen = scenarios.case1_uiuc_via_denver(seed=1)
>>> direct = transfer.run_direct_transfer(scen, nbytes=1 << 20)
>>> lsl = transfer.run_lsl_transfer(scen, nbytes=1 << 20)
>>> lsl.throughput_mbps > 0 and direct.throughput_mbps > 0
True
"""

import importlib
import sys

from repro._version import __version__

__all__ = ["__version__"]


def lazy_exports(package: str, exports: dict):
    """The module ``__getattr__`` of a package whose public names are
    imported on first use: ``exports`` maps each name to the submodule
    defining it, so importing one submodule loads none of the others."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
