"""Disconnected-endpoint sessions: the store-and-forward depot.

Section III: "Conceptually, the ultimate sending and receiving ports
need not exist at the same time, enabling a wide range of
functionality." A :class:`StoreForwardDepot` realizes that: it spools
an entire inbound session (bounded), acknowledges the sender via
ordinary TCP semantics, and delivers to the next hop *whenever it
becomes reachable* — retrying with exponential backoff until a
retention deadline.

Deferred sessions must use ``sync=False`` (there is no one to ack
establishment end-to-end while the receiver is away) and a declared
payload length. The end-to-end MD5 still travels with the payload, so
the eventual receiver verifies integrity against the original sender's
digest — the depot remains untrusted with content.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.lsl.core import RelayCore, RelayReject
from repro.lsl.core.errors import ProtocolError
from repro.lsl.core.wire import LslHeader
from repro.sim import Timer
from repro.sockets.depot import DepotCounters
from repro.tcp.buffers import StreamChunk
from repro.tcp.options import TcpOptions
from repro.tcp.sockets import SimSocket, TcpStack

#: Default cap on one spooled session (header surplus + payload + trailer).
DEFAULT_MAX_OBJECT = 64 << 20
#: Default retention after the upload completes.
DEFAULT_RETENTION_S = 3600.0
RETRY_INITIAL_S = 0.5
RETRY_MAX_S = 30.0


class _SpooledSession:
    """One deferred session: spool inbound, deliver outbound later."""

    def __init__(self, depot: "StoreForwardDepot", upstream: SimSocket) -> None:
        self.depot = depot
        self.upstream = upstream
        self.header: Optional[LslHeader] = None
        self._relay = RelayCore()
        self._onward_bytes = b""
        self.spool: List[StreamChunk] = []
        self.spooled_bytes = 0
        self.upload_complete = False
        self.delivered = False
        self.expired = False
        self._retry_delay = RETRY_INITIAL_S
        self._retry_timer = Timer(depot.stack.net.sim, self._attempt_delivery)
        self._expiry_timer = Timer(depot.stack.net.sim, self._expire)
        self.downstream: Optional[SimSocket] = None
        self._sent_from_spool = 0
        self._attempts = 0

        upstream.on_readable = self._on_upstream_data
        upstream.on_peer_fin = self._on_upload_done
        upstream.on_close = lambda err: None
        if upstream.readable_bytes:
            self._on_upstream_data()

    # -- inbound spooling -------------------------------------------------

    def _on_upstream_data(self) -> None:
        chunks = self.upstream.recv()
        if self.header is None:
            if self._relay.decided:
                return  # header phase already failed; upstream aborting
            decision = self._relay.feed(chunks)
            if decision is None:
                return
            if isinstance(decision, RelayReject):
                self._fail(decision.error)
                return
            header = decision.header
            if header.sync:
                self._fail(
                    ProtocolError("deferred sessions must use sync=False")
                )
                return
            if header.payload_length >= (1 << 62):
                self._fail(
                    ProtocolError("deferred sessions need a declared length")
                )
                return
            self.header = header
            self._onward_bytes = decision.onward_bytes
            chunks = [StreamChunk(c.length, c.data) for c in decision.surplus]
        for chunk in chunks:
            if not self._spool(chunk):
                return

    def _spool(self, chunk: StreamChunk) -> bool:
        if self.spooled_bytes + chunk.length > self.depot.max_object_bytes:
            self._fail(ProtocolError("spooled object exceeds depot limit"))
            return False
        self.spool.append(chunk)
        self.spooled_bytes += chunk.length
        return True

    def _on_upload_done(self) -> None:
        self._on_upstream_data()
        if self.header is None:
            self._fail(ProtocolError("upload ended before header complete"))
            return
        self.upload_complete = True
        self.upstream.close()
        self.depot.counters.add(sessions_accepted=1)
        self._expiry_timer.start(self.depot.retention_s)
        self._attempt_delivery()

    # -- outbound delivery -----------------------------------------------------

    def _attempt_delivery(self) -> None:
        if self.delivered or self.expired:
            return
        self._attempts += 1
        nxt = self.header.next_hop
        sock = self.depot.stack.socket(self.depot.tcp_options)
        self.downstream = sock
        self._sent_from_spool = 0
        sock.on_close = self._on_downstream_close
        sock.on_writable = self._push
        sock.connect((nxt.host, nxt.port), on_connected=self._on_connected)

    def _on_connected(self) -> None:
        self.downstream.send(self._onward_bytes)
        self._push()

    def _push(self) -> None:
        sock = self.downstream
        if sock is None or self.delivered or sock.conn is None:
            return
        # walk the spool from the resume point
        sent = 0
        for chunk in self.spool:
            if sent + chunk.length <= self._sent_from_spool:
                sent += chunk.length
                continue
            skip = max(0, self._sent_from_spool - sent)
            length = chunk.length - skip
            if chunk.data is None:
                accepted = sock.send_virtual(length)
            else:
                accepted = sock.send(chunk.data[skip:])
            self._sent_from_spool += accepted
            sent += chunk.length
            if accepted < length:
                return  # send buffer full; resume on_writable
        sock.close()  # whole spool queued: FIN

    def _on_downstream_close(self, error: Optional[Exception]) -> None:
        if self.delivered or self.expired:
            return
        if error is None and self._sent_from_spool >= self.spooled_bytes:
            self.delivered = True
            self._retry_timer.stop()
            self._expiry_timer.stop()
            self.depot.counters.add(
                sessions_completed=1, bytes_relayed=self.spooled_bytes
            )
            self.depot._session_finished(self)
            return
        # failed: back off and retry while within retention
        self.downstream = None
        self._retry_timer.restart(self._retry_delay)
        self._retry_delay = min(self._retry_delay * 2.0, RETRY_MAX_S)

    def _expire(self) -> None:
        if self.delivered:
            return
        self.expired = True
        self._retry_timer.stop()
        if self.downstream is not None:
            self.downstream.abort()
        self.depot.counters.add(sessions_failed=1)
        self.depot._session_finished(self)

    def _fail(self, error: Exception) -> None:
        self.upstream.abort()
        self.depot.counters.add(sessions_failed=1)
        self.depot.stack.net.logger.log(
            f"sfdepot:{self.depot.stack.host.name}", "spool-failed", str(error)
        )
        self.depot._session_finished(self)


class StoreForwardDepot:
    """A depot that spools whole sessions and delivers them later."""

    def __init__(
        self,
        stack: TcpStack,
        port: int,
        max_object_bytes: int = DEFAULT_MAX_OBJECT,
        retention_s: float = DEFAULT_RETENTION_S,
        tcp_options: Optional[TcpOptions] = None,
    ) -> None:
        if max_object_bytes <= 0:
            raise ValueError("max_object_bytes must be positive")
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        self.stack = stack
        self.port = port
        self.max_object_bytes = max_object_bytes
        self.retention_s = retention_s
        self.tcp_options = tcp_options or stack.default_options
        self.counters = DepotCounters()
        self.sessions: List[_SpooledSession] = []

        self._listener = stack.socket(self.tcp_options)
        self._listener.listen(port, self._on_accept)

    def _on_accept(self, sock: SimSocket) -> None:
        self.sessions.append(_SpooledSession(self, sock))

    def _session_finished(self, session: _SpooledSession) -> None:
        if session in self.sessions:
            self.sessions.remove(session)

    @property
    def pending_sessions(self) -> int:
        """Uploads finished, delivery not yet achieved."""
        return sum(
            1 for s in self.sessions if s.upload_complete and not s.delivered
        )

    @property
    def spooled_bytes_total(self) -> int:
        return sum(s.spooled_bytes for s in self.sessions)

    def shutdown(self) -> None:
        self._listener.close_listener()
        for s in list(self.sessions):
            s._expire()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<StoreForwardDepot {self.stack.host.name}:{self.port} "
            f"pending={self.pending_sessions}>"
        )
