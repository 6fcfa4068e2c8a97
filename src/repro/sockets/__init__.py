"""Real-socket LSL prototype (the paper's actual artifact shape).

A blocking, threaded implementation of the LSL client, server and
depot (``lsd``) over genuine TCP sockets, driving the same sans-I/O
protocol core as the simulator (:mod:`repro.lsl.core`) — handshake,
session accept/rebind arbitration, negotiated resume, framing, and
the end-to-end MD5 all come from the shared machines, so the two
stacks emit identical wire bytes. Runs on localhost for the examples
and tests.

The sessions live here for *both* real-socket drivers:
:mod:`repro.sockets.depot` (the depot relay), :mod:`repro.sockets.terminal`
(server) and :mod:`repro.sockets.striped` (striped server and sender)
are plain objects that reach the transport only through their links.
This package runs them from a ``recv`` loop on a pooled worker
(:mod:`repro.sockets.wire`); :mod:`repro.asockets` runs the same
objects from its reactor.

**Thread model.** Each service's accept loop and TTL sweeper (the
:class:`~repro.sockets.wire.ThreadedService` chassis) and the
exposition are long-lived named threads. Everything per connection runs
on the reusable daemon threads of :mod:`repro.sockets.workers`, one
pooled worker reading each link: a relay holds two, one per direction
(its dial blocks the upstream one), a server, striped or cluster
sublink one — and no thread is started unless every worker is busy.

**Measurement caveat** (why throughput experiments use the simulator):
CPython's GIL serializes the relay threads, so absolute throughput
through a threaded Python depot reflects interpreter scheduling, not
network dynamics. The prototype demonstrates the *architecture* — an
unprivileged user-level relay, voluntary use, unmodified TCP beneath —
while the discrete-event simulator carries the performance claims.
"""

from repro import lazy_exports

#: public name -> the submodule defining it, imported on first use, so
#: importing one submodule (the simulator's client imports
#: :mod:`repro.sockets.client`) does not load the whole driver
_EXPORTS = {
    "ThreadedDepot": "lsd",
    "LslSocketClient": "client",
    "ThreadedLslServer": "server",
    "SessionResult": "server",
    "ExpositionServer": "obs",
    "JsonEventLog": "obs",
    "StripedResult": "striped",
    "StripedSendReport": "striped",
    "StripedThreadedServer": "striped",
    "send_striped": "striped",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
