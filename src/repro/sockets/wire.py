"""The threaded driver: a blocking link, its ``recv`` loop, and the
service chassis that accepts sockets into them.

A session object — a terminal, striped or cluster sublink, or a depot's
:class:`~repro.sockets.lsd.RelaySession` — is a plain object with
``received(link, data)`` / ``ended(link)`` / ``broken(link, exc)`` that
touches the world only through its links. On the event loop a link is a
:class:`repro.asockets.runtime.Endpoint`; here it is a
:class:`BlockingLink`, and :func:`run_blocking` is the ``recv`` loop
that stands in for the loop's readiness callback.
:class:`ThreadedService` is the twin of
:class:`repro.asockets.runtime.AsyncLoopService`: a listener, one
accept thread, a pooled worker reading each link, the TTL sweeper's
timer and shutdown.
"""

from __future__ import annotations

import errno
import socket
import threading
from typing import Any, Optional, Set, Tuple

from repro.sockets import workers

#: Relay copy chunk (matches a typical socket buffer read).
CHUNK = 64 * 1024

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


class ServiceShutdown(Exception):
    """A service stopped under a live session (see :data:`SHUTDOWN`)."""


#: What ``broken`` receives when a service shuts down without draining
#: (``shutdown(drain=False)``, a crash): not an ``OSError``, so never
#: mistaken for a dead sublink.
SHUTDOWN = ServiceShutdown("service shutdown")


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


class BlockingLink:
    """A blocking socket behind the link protocol of the session objects.

    ``owner`` gets the callbacks; ``peer`` is the other end of a relay;
    ``eof`` is set once the reader has seen the end of the stream.
    """

    __slots__ = ("sock", "owner", "peer", "closed", "eof")

    def __init__(
        self,
        sock: socket.socket,
        owner: Any = None,
        peer: Optional["BlockingLink"] = None,
    ) -> None:
        self.sock = sock
        self.owner = owner
        self.peer = peer
        self.closed = self.eof = False

    def write(self, data: Any) -> None:
        if not self.closed:
            self.sock.sendall(data)

    def finish(self) -> None:
        """Half-close: the peer reads EOF, the reverse direction flows on."""
        if not self.closed:
            try:
                self.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    # A threaded dial blocks inside the upstream reader's own callback,
    # so nothing is read meanwhile: there is nothing to pause.
    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass

    def close(self) -> None:
        """Safe from any thread, and idempotent. ``shutdown`` first:
        ``close`` alone does not wake a worker blocked inside ``recv``
        (the kernel keeps the socket for the syscall in flight), and a
        rebind, a restart, a crash or a TTL sweep closes links it is
        not reading."""
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def run_blocking(link: BlockingLink, owner: Any) -> None:
    """Make ``owner`` the link's owner and feed it until either closes it.

    The same contract as an ``Endpoint``: every callback goes to the
    link's owner *now* (a session may hand its link on), none once the
    link is closed, and none after ``ended`` or ``broken``. A relay end
    (``peer`` set) stays open when its reader stops — the reverse
    direction still flows through it, and its owner closes both ends;
    any other link is closed on the way out.
    """
    link.owner = owner
    sock = link.sock
    try:
        while not link.closed:
            try:
                data = sock.recv(CHUNK)
            except OSError as exc:
                if not link.closed:
                    link.eof = True
                    link.owner.broken(link, exc)
                return
            if link.closed:
                return  # closed under the read: what it returned is void
            if not data:
                link.eof = True
                link.owner.ended(link)
                return
            link.owner.received(link, data)
    finally:
        if link.peer is None:
            link.close()


class ThreadedService:
    """A TCP service whose links are read by pooled workers (subclass me).

    The engine mixed in before it supplies ``_open(sock)`` (start the
    session of one accepted socket, via :meth:`_link`) and
    ``_on_accept_error(exc)``, and — when it sets ``_session_ttl`` —
    ``_sweep()``, called every ``_sweep_every`` seconds.
    """

    #: Thread-name prefix; subclasses override for readable dumps.
    _thread_prefix = "lsl"
    _driver = "threads"
    _session_ttl: Optional[float] = None
    _sweep_every = 1.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
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
        self._stopped = threading.Event()
        self._live: Set[BlockingLink] = set()  # links being read
        self._live_lock = threading.Lock()
        name = f"{self._thread_prefix}-{self.address[1]}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=name, daemon=True
        )
        self._accept_thread.start()
        if self._session_ttl is not None:
            threading.Thread(
                target=self._sweeper, name=f"{name}-sweep", daemon=True
            ).start()

    def _open(self, sock: socket.socket) -> BlockingLink:
        """Start the session of one accepted socket (the engine's)."""
        raise NotImplementedError

    # -- links -------------------------------------------------------------

    def _link(
        self,
        sock: socket.socket,
        owner: Any,
        peer: Optional[BlockingLink] = None,
    ) -> BlockingLink:
        """Wrap ``sock`` in a link and start reading it on a worker."""
        link = BlockingLink(sock, owner, peer)
        with self._live_lock:
            self._live.add(link)
        workers.run(self._read, link)
        return link

    def _read(self, link: BlockingLink) -> None:
        try:
            run_blocking(link, link.owner)
        finally:
            with self._live_lock:
                self._live.discard(link)

    # -- accepting ---------------------------------------------------------

    def _accept(self) -> Tuple[socket.socket, Any]:
        """The accept seam (tests inject failures here)."""
        return self._listener.accept()

    def _accept_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                sock, _ = self._accept()
            except OSError as exc:
                if self._stopped.is_set() or exc.errno in _FATAL_ACCEPT_ERRNOS:
                    return  # listener closed / gone
                # Transient accept failure (EMFILE, ECONNABORTED, ...):
                # the service must keep accepting — exiting here would
                # permanently wedge a service that /healthz still calls
                # healthy. Report it, back off briefly.
                self._on_accept_error(exc)
                self._stopped.wait(_ACCEPT_RETRY_DELAY_S)
                continue
            self._open(sock)

    def _sweeper(self) -> None:
        while not self._stopped.wait(self._sweep_every):
            self._sweep()

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting; with ``drain=False`` also cut live sessions.

        ``drain=True`` (default) leaves live sessions to run out on
        their workers. ``drain=False`` models a crash: each live link's
        owner is told ``broken(link, SHUTDOWN)`` and the link closes,
        so peers see a reset mid-transfer — what failover exercises.
        """
        self._stopped.set()
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
        if not drain:
            with self._live_lock:
                links = list(self._live)
            for link in links:
                if not link.closed:
                    link.owner.broken(link, SHUTDOWN)
                link.close()
        self._accept_thread.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
