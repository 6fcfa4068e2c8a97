"""The Logistical Session Layer (the paper's contribution).

A *session* is a conversation identified by a 128-bit session id and
carried over one or more **cascaded TCP connections** ("sublinks")
through intermediate **depots** along a client-specified loose source
route::

    client ──TCP──▶ depot ──TCP──▶ depot ──TCP──▶ server
             sublink 1      sublink 2      sublink 3

Each sublink is an ordinary TCP connection, so TCP's congestion
control still governs every packet; the depot is an unprivileged
user-level process (the paper's ``lsd``) holding a small, short-lived
relay buffer. Because each sublink's RTT is a fraction of the
end-to-end RTT, every sublink's window opens faster and recovers from
loss faster — the source of the throughput gain the paper measures.

The package itself imports nothing: import the submodule you need, so
that the transport-free core (:mod:`repro.lsl.core`) and the
real-socket drivers built on it never load the simulator adapters.

Public API
----------
- :func:`repro.lsl.client.lsl_connect` — open a session over a route.
- :class:`repro.lsl.server.LslServer` — accept sessions: the live
  servers' terminal engine on the simulator's chassis,
  :class:`repro.lsl.server.SimService`.
- :class:`repro.lsl.depot.Depot` — run a depot (``lsd``).
- :class:`repro.lsl.striped.StripedClient` /
  :class:`repro.lsl.striped.StripedLslServer` — one session striped
  over several routes; the server is the live striped engine on the
  same chassis.
- :class:`repro.lsl.storeforward.StoreForwardDepot` — a depot that
  holds a session while the server is unreachable.
- :class:`repro.lsl.core.wire.LslHeader` — the wire header.
- :class:`repro.lsl.core.digest.StreamDigest` — end-to-end MD5 over
  the stream (the end-to-end integrity check the paper keeps at the
  ends).
"""
