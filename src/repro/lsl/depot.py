"""The depot daemon (the paper's ``lsd``) on the simulator.

An unprivileged user-level process that listens for LSL sublinks,
parses the session header, dials the next hop of the loose source
route, forwards the advanced header, and then "very simply establishes
a transport to transport binding". What it decides — the header phase,
the onward header and surplus, the admission cap, the outcome of every
session in :class:`~repro.sockets.depot.DepotCounters`, the
``relay-failed`` event and the ``depot.relay`` / ``depot.dial`` trace
spans — is :class:`repro.sockets.depot.DepotEngine` and its
:class:`~repro.sockets.depot.RelaySession`, the depot the threaded and
asyncio drivers run. This module is its simulator chassis: a listener
on a :class:`~repro.tcp.sockets.TcpStack`, a :class:`SimRelayEnd` per
socket, the :class:`~repro.tcp.sockets.SimSocket` dial after the
per-session set-up delay, and the binding — two
:class:`~repro.lsl.relay.RelayPump` objects, one per direction, around
a bounded relay buffer, which model the buffer occupancy and the
processing cost the paper's figures depend on. What is left is the
sim-time telemetry (a ``relay@host`` span per session, the net-logger
lines, the flight dump of a crash) and fault injection
(:meth:`Depot.crash` / :meth:`Depot.restart`).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.lsl.core.errors import DepotDown
from repro.lsl.core.wire import RouteHop
from repro.lsl.relay import RelayPump
from repro.lsl.server import KERNEL_ERRORS
from repro.sockets.depot import DepotEngine, RelaySession
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack
from repro.telemetry.protocol import protocol_observer

#: Default relay buffer: "small, short-lived" per the paper. 256 KiB
#: comfortably covers the BDP of the faster sublink in every scenario.
DEFAULT_RELAY_BUFFER = 256 * 1024


class SimRelayEnd:
    """One end of a simulated relay: a :class:`SimSocket` behind the
    link protocol of :class:`~repro.sockets.depot.RelaySession`.

    Until the binding an accepted end hands each readable event's
    ``recv()`` batch to ``received_batch`` and the peer's FIN to
    ``ended``; while paused (the dial) it reads nothing, so the
    simulated receive window closes. Once bound, the pumps own the
    socket's reads and writes, and the end reports only how its
    direction ended: the forward pump passing the upstream's FIN on is
    the upstream's ``ended``, the downstream closing cleanly is the
    downstream's, and a connection the simulated TCP tore down is
    ``broken`` with the ``OSError`` a kernel socket would raise.
    ``close`` leaves a relay that ended both ways to its pumps, and
    otherwise resets the socket and stops the pump reading it.
    """

    __slots__ = ("sock", "owner", "peer", "pump", "closed", "eof", "paused")

    def __init__(
        self, sock: SimSocket, owner: RelaySession, peer: Optional["SimRelayEnd"]
    ) -> None:
        self.sock = sock
        self.owner = owner
        self.peer = peer
        self.pump: Optional[RelayPump] = None
        self.closed = self.eof = self.paused = False
        sock.on_close = self._closed
        if peer is None:  # accepted: the header phase reads it
            sock.on_readable = self._readable
            sock.on_peer_fin = self._peer_fin

    def write(self, data: bytes) -> None:
        self.sock.send(data)

    def write_virtual(self, nbytes: int) -> None:
        self.sock.send_virtual(nbytes)

    def finish(self) -> None:
        """The pumps pass each FIN on themselves."""

    def pause(self) -> None:
        self.paused = True

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if not (self.eof and self.peer.eof):
            self.sock.abort()
            if self.pump is not None:
                self.pump.abort()

    def _readable(self) -> None:
        if not (self.closed or self.paused):
            self.owner.received_batch(self, self.sock.recv())

    def _peer_fin(self) -> None:
        if not (self.closed or self.paused):
            self.owner.ended(self)

    def _ended(self, error: Optional[Exception] = None) -> None:
        # the forward pump passed the upstream's FIN on, or both FINs
        # went through: this direction has ended
        if not self.closed:
            self.eof = True
            self.owner.ended(self)

    def _closed(self, error: Optional[Exception]) -> None:
        if error is None:
            self._ended()
        elif not self.closed:
            self.owner.broken(
                self, KERNEL_ERRORS.get(type(error), OSError)(str(error))
            )


class Depot(DepotEngine):
    """An LSL depot on a simulated host: listen, parse the header, dial
    the next hop, relay.

    ``max_sessions`` is the engine's admission cap: past it new
    sublinks are refused with a reset (``sessions_refused``).
    """

    _driver = "sim"

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        relay_buffer_bytes: int = DEFAULT_RELAY_BUFFER,
        fixed_delay_s: float = 0.0,
        per_byte_cost_s: float = 0.0,
        session_setup_delay_s: float = 0.0,
        max_sessions: Optional[int] = None,
        tcp_options: Optional[TcpOptions] = None,
        trace_factory=None,
        tracer=None,
    ) -> None:
        DepotEngine.__init__(self, None, 0.0, tracer)
        self.stack = stack
        self.port = port
        self.address = (stack.host.name, port)
        self.relay_buffer_bytes = relay_buffer_bytes
        self.fixed_delay_s = fixed_delay_s
        self.per_byte_cost_s = per_byte_cost_s
        self.session_setup_delay_s = session_setup_delay_s
        self.max_sessions = max_sessions
        self.tcp_options = tcp_options or stack.default_options
        #: Optional ``f(header, depot) -> ConnectionTrace`` used to trace
        #: the depot's outbound (downstream) sublinks for analysis.
        self.trace_factory = trace_factory
        #: the upstream end of every session in flight (in accept order),
        #: with its ``relay@host`` telemetry span
        self.sessions: Dict[SimRelayEnd, Any] = {}
        self.crashed = False
        self.crashes = 0
        self._listen()

    @property
    def host_name(self) -> str:
        return self.stack.host.name

    def _log(self, event: str, detail) -> None:
        self.stack.net.logger.log(f"depot:{self.host_name}", event, detail)

    # -- chassis -----------------------------------------------------------

    def _listen(self) -> None:
        self._listener = self.stack.socket(self.tcp_options)
        self._listener.listen(self.port, self._accept)

    def _accept(self, sock: SimSocket) -> None:
        # looked up per session: a run may attach telemetry after this
        # depot was built
        self._observer = protocol_observer(self.stack.net.telemetry, "depot")
        self._open(sock)

    def _refuse(self, sock: SimSocket) -> None:
        self._log("session-refused", self.max_sessions)
        sock.abort()

    def _link(
        self,
        sock: SimSocket,
        owner: RelaySession,
        peer: Optional[SimRelayEnd] = None,
    ) -> SimRelayEnd:
        end = SimRelayEnd(sock, owner, peer)
        if peer is None:
            self.sessions[end] = None
            if sock.readable_bytes > 0:  # raced ahead of the callbacks
                end._readable()
        return end

    # -- driver hooks ------------------------------------------------------

    def _dial(self, relay: RelaySession, hop: RouteHop) -> None:
        telemetry = self.stack.net.telemetry
        if telemetry.enabled:
            # joins the session's Perfetto process as the depot's lane
            header = relay.decision.header
            span = telemetry.spans.begin(
                f"relay@{self.host_name}",
                cat="lsl",
                group=header.short_id,
                args={"hop_index": header.hop_index},
            )
            self.sessions[relay.up] = span
            if relay.up.sock.conn is not None:
                relay.up.sock.conn.telemetry_span = span
        # per-session setup (thread spawn, buffer allocation, resolving
        # the next hop) happens before the onward dial
        if self.session_setup_delay_s > 0.0:
            self.stack.net.sim.schedule(
                self.session_setup_delay_s, self._connect, relay, hop
            )
        else:
            self._connect(relay, hop)

    def _connect(self, relay: RelaySession, hop: RouteHop) -> None:
        if relay.up.closed:
            return  # ended while the set-up delay was pending
        header = relay.decision.header
        sock = self.stack.socket(self.tcp_options)
        trace = None
        if self.trace_factory is not None:
            trace = self.trace_factory(header, self)

        def refused(error: Optional[Exception]) -> None:
            if error is not None:
                relay.end(error)

        def connected() -> None:
            relay.cancel_dial = None
            relay._dialed(sock)

        sock.on_close = refused
        relay.cancel_dial = sock.abort
        sock.connect((hop.host, hop.port), on_connected=connected, trace=trace)
        span = self.sessions.get(relay.up)
        if span is not None and sock.conn is not None:
            sock.conn.telemetry_span = span
            # the depot's downstream conn is a *sender*: its congestion
            # state is what the diagnosis engine decomposes per sublink
            cc_obs = protocol_observer(
                self.stack.net.telemetry, "tcp-depot", lambda: span
            )
            if cc_obs is not None:
                sock.conn.attach_cc_observer(cc_obs, header.short_id)

    def _bind(self, relay: RelaySession) -> None:
        up, down = relay.up, relay.down
        up.peer = down
        sim = self.stack.net.sim
        up.pump = RelayPump(
            sim,
            up.sock,
            down.sock,
            buffer_bytes=self.relay_buffer_bytes,
            fixed_delay_s=self.fixed_delay_s,
            per_byte_cost_s=self.per_byte_cost_s,
            on_finished=up._ended,
        )
        down.pump = RelayPump(
            sim,
            down.sock,
            up.sock,
            buffer_bytes=self.relay_buffer_bytes,
            fixed_delay_s=self.fixed_delay_s,
            per_byte_cost_s=self.per_byte_cost_s,
        )
        relay.pumps = (up.pump, down.pump)
        # data may already be waiting in the upstream receive buffer
        up.pump.pull()

    def _relay_ended(self, relay: RelaySession, failure, idle: bool) -> None:
        span = self.sessions.pop(relay.up)
        if idle:
            return
        if failure is None:
            outcome = "session-done"
        elif isinstance(failure, DepotDown):
            outcome = "session-aborted"
        else:
            outcome = "session-failed"
        self._log(outcome, failure)
        if span is not None:
            relayed = relay.pumps[0].bytes_relayed if relay.pumps else 0
            self.stack.net.telemetry.spans.end(
                span, args={"outcome": outcome, "bytes_relayed": relayed}
            )

    # -- lifecycle and fault injection -------------------------------------

    def _cut(self, error: DepotDown) -> None:
        for end in list(self.sessions):
            end.owner.broken(end, error)

    def shutdown(self) -> None:
        """Stop accepting; abort in-flight sessions."""
        self._listener.close_listener()
        self._cut(DepotDown("depot shutting down"))

    def crash(self) -> None:
        """Fail-stop: drop the listener and every in-flight session.

        New SYNs to the port elicit stack-level RSTs until
        :meth:`restart`; in-flight sublinks are aborted, so peers see a
        reset rather than a quiet hang.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        self._listener.close_listener()
        self._cut(DepotDown(f"depot {self.host_name} crashed"))
        self._log("depot-crash", None)
        tel = self.stack.net.telemetry
        if tel.enabled:
            tel.metrics.counter("depot.crashes").inc()
            tel.flight_dump(
                "depot-crash",
                detail={"depot": self.host_name, "port": self.port},
            )

    def restart(self) -> None:
        """Bring a crashed depot back up (empty-handed: no session state)."""
        if not self.crashed:
            return
        self.crashed = False
        self._listen()
        self._log("depot-restart", None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Depot {self.host_name}:{self.port} "
            f"active={self.counters.active_sessions}>"
        )
