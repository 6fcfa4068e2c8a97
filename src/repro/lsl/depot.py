"""The depot daemon (the paper's ``lsd``).

An unprivileged user-level process that listens for LSL sublinks,
parses the session header, dials the next hop of the loose source
route, forwards the advanced header, and then "very simply establishes
a transport to transport binding" — two :class:`~repro.lsl.relay.RelayPump`
objects, one per direction, around a bounded relay buffer.

The header-phase decisions (parse, hop check, advance, surplus
carry-over, FIN-timing classification) live in
:class:`repro.lsl.core.RelayCore`; this module is the simulator driver
executing them with :class:`~repro.tcp.sockets.SimSocket` dials and
:class:`~repro.lsl.relay.RelayPump` byte pumping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.lsl.core import RelayCore, RelayReject
from repro.lsl.core.errors import DepotDown, RouteError
from repro.lsl.core.wire import LslHeader
from repro.lsl.relay import RelayPump
from repro.tcp.buffers import StreamChunk
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack
from repro.tcp.trace import ConnectionTrace

#: Default relay buffer: "small, short-lived" per the paper. 256 KiB
#: comfortably covers the BDP of the faster sublink in every scenario.
DEFAULT_RELAY_BUFFER = 256 * 1024


@dataclass
class DepotStats:
    """Counters exposed by a depot."""

    sessions_accepted: int = 0
    sessions_completed: int = 0
    sessions_failed: int = 0
    sessions_aborted: int = 0
    sessions_refused: int = 0
    bytes_relayed_forward: int = 0
    bytes_relayed_reverse: int = 0
    crashes: int = 0


class _DepotSession:
    """Plumbing for one relayed session inside a depot."""

    def __init__(self, depot: "Depot", upstream: SimSocket) -> None:
        self.depot = depot
        self.upstream = upstream
        self.downstream: Optional[SimSocket] = None
        self.header: Optional[LslHeader] = None
        self._onward_bytes = b""
        # distributed tracing (wall/sim-clock TraceSpool; distinct from
        # the sim telemetry span below)
        self.relay_span = 0
        self.dial_span = 0
        self.forward_pump: Optional[RelayPump] = None
        self.reverse_pump: Optional[RelayPump] = None
        self._surplus_chunks: List[StreamChunk] = []
        self.done = False
        self.telemetry = depot.stack.net.telemetry
        self.span = None
        from repro.telemetry.protocol import protocol_observer

        self.relay = RelayCore(
            observer=protocol_observer(self.telemetry, "depot", lambda: self.span)
        )

        upstream.on_readable = self._on_header_bytes
        upstream.on_close = self._on_upstream_close
        upstream.on_peer_fin = self._on_early_fin
        # pull anything that raced ahead of the callback registration
        if upstream.readable_bytes > 0:
            self._on_header_bytes()

    # -- header phase ----------------------------------------------------

    def _on_header_bytes(self) -> None:
        if self.done or self.relay.decided:
            return  # payload accumulating while we dial; pumps drain it
        decision = self.relay.feed(self.upstream.recv())
        if decision is None:
            return
        if isinstance(decision, RelayReject):
            self._fail(decision.error)
            return
        header = decision.header
        self.header = header
        if self.telemetry.enabled:
            # joins the session's Perfetto process as the depot's lane
            self.span = self.telemetry.spans.begin(
                f"relay@{self.depot.host_name}",
                cat="lsl",
                group=header.short_id,
                args={"hop_index": header.hop_index},
            )
            if self.upstream.conn is not None:
                self.upstream.conn.telemetry_span = self.span
        self._onward_bytes = decision.onward_bytes
        tracer = self.depot.tracer
        if tracer is not None and header.trace is not None:
            tctx = header.trace
            self.relay_span = tracer.begin(
                "depot.relay",
                tctx.trace_id,
                tctx.parent_span,
                session=header.short_id,
                depot=self.depot.host_name,
                hop=tctx.hop,
            )
            # forward our relay span as the downstream parent instead of
            # the core's verbatim onward header
            self._onward_bytes = header.traced_onward(self.relay_span).encode()
        self._surplus_chunks = [
            StreamChunk(c.length, c.data) for c in decision.surplus
        ]
        # per-session setup (thread spawn, buffer allocation, resolving
        # the next hop) happens before the onward dial
        if self.depot.session_setup_delay_s > 0.0:
            self.depot.stack.net.sim.schedule(
                self.depot.session_setup_delay_s, self._dial_next_hop
            )
        else:
            self._dial_next_hop()

    def _on_early_fin(self) -> None:
        if self.done:
            return
        error = self.relay.on_upstream_fin()
        if error is not None:
            self._fail(error)
        # FIN after the header but before the pumps exist (the dial
        # window) is legal: RelayPump.__init__ replays the peer-FIN state
        # from the socket when it registers its callbacks.

    def _dial_next_hop(self) -> None:
        if self.done:
            return  # upstream died while the setup delay was pending
        header = self.header
        assert header is not None
        nxt = header.next_hop
        if self.relay_span and header.trace is not None:
            assert self.depot.tracer is not None
            self.dial_span = self.depot.tracer.begin(
                "depot.dial", header.trace.trace_id, self.relay_span,
                hop=f"{nxt.host}:{nxt.port}",
            )
        sock = self.depot.stack.socket(self.depot.tcp_options)
        self.downstream = sock
        trace = None
        if self.depot.trace_factory is not None:
            trace = self.depot.trace_factory(header, self.depot)
        sock.on_close = self._on_downstream_close
        sock.connect((nxt.host, nxt.port), on_connected=self._on_next_hop_up,
                     trace=trace)
        if self.span is not None and sock.conn is not None:
            sock.conn.telemetry_span = self.span
            # the depot's downstream conn is a *sender*: its congestion
            # state is what the diagnosis engine decomposes per sublink
            from repro.telemetry.protocol import protocol_observer

            cc_obs = protocol_observer(
                self.telemetry, "tcp-depot", lambda: self.span
            )
            if cc_obs is not None:
                sock.conn.attach_cc_observer(cc_obs, header.short_id)

    def _on_next_hop_up(self) -> None:
        downstream = self.downstream
        assert self.header is not None and downstream is not None
        if self.dial_span:
            assert self.depot.tracer is not None
            self.depot.tracer.end(self.dial_span)
            self.dial_span = 0
        downstream.send(self._onward_bytes)
        # surplus payload that arrived piggybacked with the header
        for chunk in self._surplus_chunks:
            if chunk.data is None:
                downstream.send_virtual(chunk.length)
            else:
                downstream.send(chunk.data)
        self._surplus_chunks = []
        self.forward_pump = RelayPump(
            self.depot.stack.net.sim,
            self.upstream,
            downstream,
            buffer_bytes=self.depot.relay_buffer_bytes,
            fixed_delay_s=self.depot.fixed_delay_s,
            per_byte_cost_s=self.depot.per_byte_cost_s,
            on_finished=self._on_forward_done,
        )
        self.reverse_pump = RelayPump(
            self.depot.stack.net.sim,
            downstream,
            self.upstream,
            buffer_bytes=self.depot.relay_buffer_bytes,
            fixed_delay_s=self.depot.fixed_delay_s,
            per_byte_cost_s=self.depot.per_byte_cost_s,
        )
        # data may already be waiting in the upstream receive buffer
        self.forward_pump.pull()

    # -- teardown ----------------------------------------------------------

    def _on_forward_done(self, error: Optional[Exception]) -> None:
        if error is not None:
            self._fail(error)

    def _on_upstream_close(self, error: Optional[Exception]) -> None:
        # _fail sets ``done`` before aborting the sockets, so the
        # reentrant close callbacks those aborts fire are no-ops and the
        # downstream abort cannot be mistaken for a clean completion
        if error is not None and not self.done:
            self._fail(error)

    def _on_downstream_close(self, error: Optional[Exception]) -> None:
        if self.done:
            return
        if error is not None:
            self._fail(error)
        else:
            self._complete()

    def _complete(self) -> None:
        if self.done:
            return
        self.done = True
        stats = self.depot.stats
        stats.sessions_completed += 1
        if self.forward_pump:
            stats.bytes_relayed_forward += self.forward_pump.bytes_relayed
        if self.reverse_pump:
            stats.bytes_relayed_reverse += self.reverse_pump.bytes_relayed
        self.depot._session_ended(self)

    def _fail(self, error: Exception, outcome: str = "session-failed") -> None:
        if self.done:
            return
        self.done = True
        if outcome == "session-aborted":
            self.depot.stats.sessions_aborted += 1
        else:
            self.depot.stats.sessions_failed += 1
        self.upstream.abort()
        if self.downstream is not None:
            self.downstream.abort()
        if self.forward_pump:
            self.forward_pump.abort(error)
        if self.reverse_pump:
            self.reverse_pump.abort(error)
        self.depot._session_ended(self, error, outcome)


class Depot:
    """An LSL depot: listen, parse header, dial next hop, relay.

    ``max_sessions`` enables the admission control Section VII-A
    sketches: beyond the limit new sublinks are refused (RST), so an
    overloaded depot sheds load instead of degrading every session.
    """

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
        self.stack = stack
        self.port = port
        self.relay_buffer_bytes = relay_buffer_bytes
        self.fixed_delay_s = fixed_delay_s
        self.per_byte_cost_s = per_byte_cost_s
        self.session_setup_delay_s = session_setup_delay_s
        self.max_sessions = max_sessions
        self.tcp_options = tcp_options or stack.default_options
        #: Optional ``f(header, depot) -> ConnectionTrace`` used to trace
        #: the depot's outbound (downstream) sublinks for analysis.
        self.trace_factory = trace_factory
        #: Optional :class:`~repro.telemetry.tracing.TraceSpool` for
        #: distributed tracing (depot.relay / depot.dial spans).
        self.tracer = tracer
        self.stats = DepotStats()
        # dict-as-ordered-set: O(1) removal, deterministic iteration order
        self.active_sessions: Dict[_DepotSession, None] = {}
        self.crashed = False

        self._listener = stack.socket(self.tcp_options)
        self._listener.listen(port, self._on_accept)

    @property
    def host_name(self) -> str:
        return self.stack.host.name

    def _on_accept(self, sock: SimSocket) -> None:
        if (
            self.max_sessions is not None
            and len(self.active_sessions) >= self.max_sessions
        ):
            self.stats.sessions_refused += 1
            self.stack.net.logger.log(
                f"depot:{self.host_name}", "session-refused", self.max_sessions
            )
            sock.abort()
            return
        self.stats.sessions_accepted += 1
        self.active_sessions[_DepotSession(self, sock)] = None

    def _session_ended(
        self,
        session: _DepotSession,
        error: Optional[Exception] = None,
        outcome: Optional[str] = None,
    ) -> None:
        self.active_sessions.pop(session, None)
        if outcome is None:
            outcome = "session-failed" if error else "session-done"
        self.stack.net.logger.log(f"depot:{self.host_name}", outcome, error)
        if self.tracer is not None:
            if session.dial_span:
                self.tracer.end(session.dial_span, status="error")
                session.dial_span = 0
            if session.relay_span:
                self.tracer.end(
                    session.relay_span,
                    status="ok" if outcome == "session-done" else "error",
                )
                session.relay_span = 0
        if session.span is not None:
            relayed = (
                session.forward_pump.bytes_relayed
                if session.forward_pump is not None
                else 0
            )
            session.telemetry.spans.end(
                session.span,
                args={"outcome": outcome, "bytes_relayed": relayed},
            )
            session.span = None

    def shutdown(self) -> None:
        """Stop accepting; abort in-flight sessions."""
        self._listener.close_listener()
        for session in list(self.active_sessions):
            session._fail(
                RouteError("depot shutting down"), outcome="session-aborted"
            )

    # -- fault injection ---------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: drop the listener and every in-flight session.

        New SYNs to the port elicit stack-level RSTs until
        :meth:`restart`; in-flight sublinks are aborted, so peers see a
        reset rather than a quiet hang.
        """
        if self.crashed:
            return
        self.crashed = True
        self.stats.crashes += 1
        self._listener.close_listener()
        for session in list(self.active_sessions):
            session._fail(
                DepotDown(f"depot {self.host_name} crashed"),
                outcome="session-aborted",
            )
        self.stack.net.logger.log(f"depot:{self.host_name}", "depot-crash", None)
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
        self._listener = self.stack.socket(self.tcp_options)
        self._listener.listen(self.port, self._on_accept)
        self.stack.net.logger.log(f"depot:{self.host_name}", "depot-restart", None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Depot {self.host_name}:{self.port} "
            f"active={len(self.active_sessions)}>"
        )
