"""``lsd`` — the real-socket depot daemon.

"The daemon runs without privileges — it is a user-level process ...
the lsd process very simply establishes a transport to transport
binding based on the LSL header information."

One thread accepts sublinks; each accepted sublink is handed to a
pooled worker (:mod:`repro.sockets.workers`) that drives
:class:`~repro.lsl.core.RelayCore` over blocking reads until it decides
(the same header-phase machine the simulator depot runs), dials the
decided next hop, forwards the onward bytes, and then pumps one
direction itself and the other on a second pooled worker, each copying
through a small user-space buffer. Backpressure is the kernel's: a blocking
``send`` on a full downstream socket stalls the pump, the upstream
receive buffer fills, and the sender's window closes — the same chain
the simulator models explicitly.
"""

from __future__ import annotations

import errno
import socket
import threading
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.lsl.core import (
    Chunk,
    ProtocolObserver,
    RelayCore,
    RelayForward,
    RelayReject,
)
from repro.lsl.core.events import emit
from repro.lsl.core.errors import ProtocolError
from repro.sockets import workers
from repro.sockets.wire import CHUNK
from repro.telemetry.tracing import TraceSpool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sockets.obs import ExpositionServer, JsonEventLog

#: Listen backlog for depot/server listeners. 16 was enough for the
#: demos but drops SYNs under a connection storm; the kernel clamps to
#: ``net.core.somaxconn`` anyway, so asking high is free.
LISTEN_BACKLOG = 128

#: ``errno`` values that mean the *listener itself* is gone — any other
#: ``OSError`` out of ``accept()`` (EMFILE, ENFILE, ECONNABORTED,
#: ENOBUFS, ...) is a transient, per-connection condition the accept
#: loop must survive.
_FATAL_ACCEPT_ERRNOS = frozenset(
    {errno.EBADF, errno.ENOTSOCK, errno.EINVAL}
)

#: Pause before retrying a transiently-failed ``accept()`` — long
#: enough for fds to be released under EMFILE pressure, short enough
#: to be invisible at human timescales.
_ACCEPT_RETRY_DELAY_S = 0.05


def make_listener(
    host: str,
    port: int,
    *,
    backlog: int = LISTEN_BACKLOG,
    reuse_port: bool = False,
    listen: bool = True,
) -> socket.socket:
    """Create a bound (and by default listening) TCP listener socket.

    ``reuse_port=True`` joins/creates an ``SO_REUSEPORT`` group on
    ``(host, port)`` so several workers — threads or processes — can
    accept on the same port and let the kernel load-balance inbound
    connections (the cluster's shared-listener mode).
    ``listen=False`` yields a bound-but-not-listening socket: a parent
    process uses it to *reserve* a concrete port for a REUSEPORT group
    without itself receiving connections (only LISTEN sockets are in
    the kernel's dispatch set).
    """
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if reuse_port:
        if not hasattr(socket, "SO_REUSEPORT"):
            raise OSError("SO_REUSEPORT is not available on this platform")
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    if listen:
        sock.listen(backlog)
    return sock


class DepotCounters:
    """Thread-safe depot counters with an active-session gauge.

    All mutation goes through :meth:`add` / the session gauge helpers
    under one internal lock, and :meth:`snapshot` returns a consistent
    view — readers never see a torn update. Mirrors the simulator
    depot's outcome accounting: ``sessions_completed`` only when the
    relay drained cleanly in both directions, ``sessions_failed``
    otherwise.
    """

    _FIELDS = (
        "sessions_accepted",
        "sessions_completed",
        "sessions_failed",
        "sessions_suspended",
        "sessions_expired",
        "bytes_relayed",
        "accept_errors",
        "takeovers",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, int] = {name: 0 for name in self._FIELDS}
        self._active = 0

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                if name not in self._values:
                    raise AttributeError(f"unknown counter {name!r}")
                self._values[name] += delta

    def session_started(self) -> None:
        with self._lock:
            self._values["sessions_accepted"] += 1
            self._active += 1

    def session_ended(self, completed: bool) -> None:
        with self._lock:
            self._active -= 1
            key = "sessions_completed" if completed else "sessions_failed"
            self._values[key] += 1

    def session_suspended(self) -> None:
        """A terminal session EOFed mid-payload and is parked for a
        rebind — neither completed nor failed yet."""
        with self._lock:
            self._active -= 1
            self._values["sessions_suspended"] += 1

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            snap = dict(self._values)
            snap["active_sessions"] = self._active
            return snap

    def __getattr__(self, name: str) -> int:
        if name in DepotCounters._FIELDS:
            with self._lock:
                return self._values[name]
        raise AttributeError(name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DepotCounters({self.snapshot()})"


class ThreadedDepot:
    """A depot listening on ``(host, port)`` until :meth:`shutdown`.

    ``connect_timeout`` bounds the *dial* of the downstream hop only;
    once the relay is up the sockets carry no timeout, so an idle
    mid-transfer gap of any length (a stalled sender, a long
    zero-window) never kills a healthy relay.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        observer: Optional[ProtocolObserver] = None,
        connect_timeout: float = 30.0,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
        tracer: Optional[TraceSpool] = None,
    ) -> None:
        # an injected listener (already bound + listening) supports the
        # cluster's FD-handoff mode, where the parent acceptor owns the
        # socket and workers inherit it
        self._listener = (
            listener
            if listener is not None
            else make_listener(host, port, reuse_port=reuse_port)
        )
        self.address: Tuple[str, int] = self._listener.getsockname()
        self.counters = DepotCounters()
        self._observer = observer
        self._tracer = tracer
        self._connect_timeout = connect_timeout
        self._shutdown = threading.Event()
        self._session_socks: Set[socket.socket] = set()
        self._socks_lock = threading.Lock()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"lsd-accept-{self.address[1]}", daemon=True
        )
        self._accept_thread.start()

    # -- accept / session ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                upstream, _ = self._listener.accept()
            except OSError as exc:
                if (
                    self._shutdown.is_set()
                    or exc.errno in _FATAL_ACCEPT_ERRNOS
                ):
                    return  # listener closed / gone
                # Transient accept failure (EMFILE, ECONNABORTED, ...):
                # the depot must keep accepting — exiting here would
                # permanently wedge a depot that /healthz still calls
                # healthy. Count it, surface it, back off briefly.
                self.counters.add(accept_errors=1)
                emit(self._observer, "accept-error", "",
                     error=type(exc).__name__, detail=str(exc))
                self._shutdown.wait(_ACCEPT_RETRY_DELAY_S)
                continue
            self.counters.session_started()
            workers.run(self._session, upstream)

    def _session(self, upstream: socket.socket) -> None:
        completed = False
        core = RelayCore(observer=self._observer)
        self._track(upstream)
        try:
            decision = None
            while decision is None:
                data = upstream.recv(CHUNK)
                if not data:
                    error = core.on_upstream_fin()
                    raise error if error is not None else ProtocolError(
                        "upstream closed during header phase"
                    )
                decision = core.feed([Chunk.real(data)])
            if isinstance(decision, RelayReject):
                raise decision.error
            self._relay(upstream, decision)
            completed = True
        except Exception as exc:
            emit(self._observer, "relay-failed",
                 core.header.short_id if core.header is not None else "",
                 reason=f"{type(exc).__name__}: {exc}")
        finally:
            self.counters.session_ended(completed)
            self._untrack(upstream)
            try:
                upstream.close()
            except OSError:
                pass

    def _relay(self, upstream: socket.socket, decision: "RelayForward") -> None:
        """Dial the decided next hop and pump both directions to EOF.

        Owns the downstream socket for its whole life (tracked for
        crash-abort, closed before returning) so callers only manage
        the upstream side. Shared with the cluster node, whose sessions
        enter here after their own header phase.

        When this depot carries a tracer and the header a trace
        context, the onward header is re-encoded with this depot's
        relay span as the downstream parent (``traced_onward``) instead
        of the core's precomputed verbatim forward.
        """
        tracer = self._tracer
        tctx = decision.header.trace
        relay_span = 0
        dial_span = 0
        onward = decision.onward_bytes
        if tracer is not None and tctx is not None:
            relay_span = tracer.begin(
                "depot.relay",
                tctx.trace_id,
                tctx.parent_span,
                session=decision.header.short_id,
                depot=f"{self.address[0]}:{self.address[1]}",
                hop=tctx.hop,
            )
            onward = decision.header.traced_onward(relay_span).encode()
        downstream: Optional[socket.socket] = None
        status = "error"
        try:
            nxt = decision.next_hop
            if relay_span:
                assert tracer is not None and tctx is not None
                dial_span = tracer.begin(
                    "depot.dial", tctx.trace_id, relay_span, hop=str(nxt)
                )
            downstream = socket.create_connection(
                (nxt.host, nxt.port), timeout=self._connect_timeout
            )
            if dial_span:
                assert tracer is not None
                tracer.end(dial_span)
                dial_span = 0
            # the timeout was for the dial only: a relay must tolerate
            # arbitrarily long mid-transfer idle gaps without dying
            downstream.settimeout(None)
            self._track(downstream)
            downstream.sendall(onward)
            relayed = 0
            for chunk in decision.surplus:
                assert chunk.data is not None  # real sockets carry real bytes
                downstream.sendall(chunk.data)
                relayed += chunk.length
            if relayed:
                self.counters.add(bytes_relayed=relayed)
            # full-duplex relay: two pumps, half-close aware
            fwd = workers.run(self._pump, upstream, downstream)
            self._pump(downstream, upstream)
            fwd.wait()
            status = "ok"
        finally:
            if tracer is not None:
                if dial_span:
                    tracer.end(dial_span, status="error")
                if relay_span:
                    tracer.end(relay_span, status=status)
            if downstream is not None:
                self._untrack(downstream)
                try:
                    downstream.close()
                except OSError:
                    pass

    def _track(self, sock: socket.socket) -> None:
        with self._socks_lock:
            self._session_socks.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._socks_lock:
            self._session_socks.discard(sock)

    def _pump(self, src: socket.socket, dst: socket.socket) -> None:
        """Copy src -> dst until EOF, then half-close dst.

        The byte counter is batched per pump run — one locked update
        instead of one per chunk, keeping the hot copy loop free of
        lock traffic.
        """
        copied = 0
        try:
            while True:
                data = src.recv(CHUNK)
                if not data:
                    break
                dst.sendall(data)
                copied += len(data)
        except OSError:
            pass
        finally:
            if copied:
                self.counters.add(bytes_relayed=copied)
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    # -- observability -------------------------------------------------------

    def expose(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        event_log: Optional["JsonEventLog"] = None,
    ) -> "ExpositionServer":
        """Serve ``/metrics`` + ``/healthz`` + ``/events`` for this depot.

        The returned server runs on its own daemon threads; callers own
        its lifecycle (it is *not* stopped by :meth:`shutdown`, so one
        exposition endpoint can outlive a depot restart).
        """
        from repro.sockets.obs import ExpositionServer, depot_families

        def collect():  # type: ignore[no-untyped-def]
            return depot_families(self.counters.snapshot(), event_log)

        def health() -> Dict[str, object]:
            return {
                "status": "ok",
                "depot": f"{self.address[0]}:{self.address[1]}",
                "driver": "threads",
                "active_sessions": self.counters.active_sessions,
            }

        return ExpositionServer(
            collect, host=host, port=port, health=health,
            event_log=event_log, trace_spool=self._tracer,
        )

    # -- lifecycle ----------------------------------------------------------

    def shutdown(self, abort_sessions: bool = False) -> None:
        """Stop accepting; with ``abort_sessions`` also cut live relays.

        The default leaves in-flight relay pumps to drain naturally
        (their sockets close when both directions EOF). Aborting models
        a depot crash: every tracked session socket is closed, so peers
        see a reset mid-transfer — what the failover path exercises.
        """
        self._shutdown.set()
        # shutdown() wakes an accept() blocked in the kernel (EINVAL);
        # close() alone would leave the accept thread parked and the
        # port in LISTEN until the next connection arrived
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        if abort_sessions:
            with self._socks_lock:
                socks = list(self._session_socks)
            for s in socks:
                # shutdown() before close(): close() alone does not
                # interrupt a pump blocked inside recv() — the kernel
                # keeps the socket alive for the in-flight syscall and
                # never sends the peer a FIN, so the "crashed" relay
                # would linger invisibly
                try:
                    s.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    s.close()
                except OSError:
                    pass
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "ThreadedDepot":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ThreadedDepot {self.address[0]}:{self.address[1]}>"
