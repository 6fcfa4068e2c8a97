"""One event loop per service, on a dedicated thread, run as a reactor.

:class:`AsyncLoopService` is the shared chassis of the asyncio depot
and servers: a bound listener registered with a private loop **once**
(accepted until ``EAGAIN``, surviving transient ``accept()`` failures —
the threaded stack's permadeath bug class), a daemon thread running
that loop, the TTL sweeper's timer, and a graceful shutdown that waits
for the live endpoints to close before aborting stragglers.

No service creates a task or a future per session. Each accepted or
dialed socket is an :class:`Endpoint`, registered with ``add_reader``
once for its life, and its session is a plain object whose
``received(ep, data)`` / ``ended(ep)`` / ``broken(ep, exc)`` callbacks
feed the sans-I/O machines straight from the readiness callback.
One rule throughout: do the I/O first, ask the loop only on ``EAGAIN``
— a write is a ``send``, a dial is ``connect_ex`` (:func:`dial`), an
accepted socket is read once in the accept's own turn.

The constructor returns with the listener bound and the loop accepting
— same contract as the threaded classes, so tests, the CLI, and the
benchmarks can treat either driver interchangeably. All cross-thread
interaction goes through ``call_soon_threadsafe``; everything else
runs single-threaded inside the loop, so the locks of the session
objects shared with the threaded drivers (:mod:`repro.sockets.terminal`,
:mod:`repro.sockets.depot`) are taken here and never contended.
"""

from __future__ import annotations

import asyncio
import errno
import os
import socket
import threading
from typing import Any, Optional, Set, Tuple

from repro.sockets.wire import (
    _ACCEPT_RETRY_DELAY_S,
    _FATAL_ACCEPT_ERRNOS,
    CHUNK,
    LISTEN_BACKLOG,
    SHUTDOWN,
    make_listener,
)

#: Reads (or accepts) per readiness event. A read that filled the
#: buffer is followed by another without a poll in between (a bulk
#: relay would pay a loop turn per chunk), but at most this many —
#: 1 MiB — so one busy socket cannot starve the loop.
READS_PER_EVENT = 16


def connected(sock: socket.socket) -> bool:
    """Whether a non-blocking dial has already finished: on loopback
    ``connect_ex`` says ``EINPROGRESS`` with the handshake done."""
    try:
        sock.getpeername()
    except OSError:
        return False
    return True


def dial(sock: socket.socket, address: Tuple[str, int]) -> bool:
    """Start a non-blocking connect; true when it is already over."""
    err = sock.connect_ex(address)
    if err not in (0, errno.EINPROGRESS):
        raise OSError(err, os.strerror(err))
    return connected(sock)


async def _ready_by(
    sock: socket.socket, writing: bool, timeout: float, what: str
) -> None:
    """Wait until the kernel has done what ``sock`` waits for: a
    future, one writer or reader (by fd) and a timer whose expiry fails
    the future (no second task, as ``wait_for`` spawns)."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()

    def settle(exc: Optional[BaseException] = None) -> None:
        if done.done():
            return
        if exc is None:
            done.set_result(None)
        else:
            done.set_exception(exc)

    fd = sock.fileno()
    if writing:
        add, remove = loop.add_writer, loop.remove_writer
    else:
        add, remove = loop.add_reader, loop.remove_reader
    add(fd, settle)
    deadline = loop.call_later(timeout, settle, asyncio.TimeoutError(what))
    try:
        await done
    finally:
        deadline.cancel()
        remove(fd)


async def connect_by(
    sock: socket.socket, address: Tuple[str, int], timeout: float
) -> None:
    """Connect under a deadline, trying first: only a dial the kernel
    has not finished waits for the loop (:func:`_ready_by`)."""
    if dial(sock, address):
        return
    await _ready_by(sock, True, timeout, f"connect to {address}")
    err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
    if err:
        raise OSError(err, os.strerror(err))


async def recv_by(sock: socket.socket, n: int, timeout: float) -> bytes:
    """Read at most ``n`` bytes under a deadline, trying first: only a
    read the kernel cannot answer yet waits for the loop."""
    while True:
        try:
            return sock.recv(n)
        except (BlockingIOError, InterruptedError):
            pass
        await _ready_by(sock, False, timeout, "session establishment")


class Endpoint:
    """One connected non-blocking socket on a service's loop.

    Registered for reading once, at construction; :meth:`pause` is lazy
    (the registration goes only if the socket fires meanwhile). Bytes
    go to ``owner.received``, EOF to ``owner.ended``, a socket error to
    ``owner.broken``. :meth:`write` sends directly and queues only what
    the kernel refused; while anything is queued the ``peer``'s reads
    are paused, so a relay holds at most one chunk. With ``peer`` set
    (a relay) reads land in the loop's one shared buffer and ``data``
    is a ``memoryview`` borrowed for the callback, else ``bytes``.
    """

    __slots__ = (
        "_service", "_loop", "sock", "_fd", "owner", "peer", "closed",
        "eof", "_registered", "_paused", "_fin", "_queue",
    )

    def __init__(
        self,
        service: "AsyncLoopService",
        sock: socket.socket,
        owner: Any,
        peer: Optional["Endpoint"] = None,
    ) -> None:
        self._service = service
        self._loop = service._loop
        self.sock = sock
        self._fd = sock.fileno()  # a selector miss formats its key
        self.owner = owner
        self.peer = peer
        self.closed = self.eof = self._paused = self._fin = False
        self._queue: Optional[bytearray] = None  # the unsent remainder
        self._registered = True
        service._live.add(self)
        self._loop.add_reader(self._fd, self._readable)

    # -- reading -----------------------------------------------------------

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        if not (self._registered or self.eof or self.closed):
            self._registered = True
            self._loop.add_reader(self._fd, self._readable)

    def _unregister(self) -> None:
        if self._registered:
            self._registered = False
            self._loop.remove_reader(self._fd)

    def _readable(self, reads: int = READS_PER_EVENT) -> None:
        if self._paused:
            self._unregister()  # what arrived waits in the kernel
            return
        service = self._service
        for _ in range(reads):
            try:
                if self.peer is None:
                    data: Any = self.sock.recv(CHUNK)
                    n = len(data)
                else:
                    n = self.sock.recv_into(service._buf)
                    data = service._view[:n]
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.eof = True
                self._unregister()
                self.owner.broken(self, exc)
                return
            if not n:
                self.eof = True
                self._unregister()
                self.owner.ended(self)
                return
            self.owner.received(self, data)
            if n < CHUNK or self._paused or self.closed:
                return

    # -- writing -----------------------------------------------------------

    def write(self, data: Any) -> None:
        """Send now; queue only what the kernel would not take."""
        if self.closed:
            return
        if self._queue is not None:
            self._queue += data
            return
        try:
            sent = self.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError as exc:
            self.owner.broken(self, exc)
            return
        if sent < len(data):
            self._queue = bytearray(memoryview(data)[sent:])
            self._loop.add_writer(self._fd, self._writable)
            if self.peer is not None:
                self.peer.pause()

    def _writable(self) -> None:
        queue = self._queue
        try:
            del queue[: self.sock.send(queue)]
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            if self.closed:
                self.close(flush=False)
            else:
                self.owner.broken(self, exc)
            return
        if queue:
            return
        if self.closed:
            self.close(flush=False)
            return
        self._queue = None
        self._loop.remove_writer(self._fd)
        if self._fin:
            self.finish()
        if self.peer is not None:
            self.peer.resume()

    def finish(self) -> None:
        """Half-close (``SHUT_WR``) once the queue has drained."""
        self._fin = True
        if self._queue is None and not self.closed:
            try:
                self.sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def close(self, flush: bool = True) -> None:
        """No callback after this. What is queued is still sent first
        (``_writable`` closes behind it) unless ``flush`` is false."""
        self.closed = True
        # both registrations go before the fd does: the next accept
        # reuses its number
        self._unregister()
        if self._queue is not None:
            if flush:
                return
            self._queue = None
            self._loop.remove_writer(self._fd)
        service = self._service
        service._live.discard(self)
        self.sock.close()
        if service._closing and not service._live:
            service._idle.set()


class AsyncLoopService:
    """A TCP service on its own event loop thread (subclass me).

    The same hooks as :class:`repro.sockets.wire.ThreadedService`: the
    engine mixed in before it supplies ``_open(sock)`` (via
    :meth:`_link`), ``_on_accept_error(exc)`` and, when it sets
    ``_session_ttl``, ``_sweep()``, run on a loop timer every
    ``_sweep_every`` seconds.
    """

    #: Thread-name prefix; subclasses override for readable dumps.
    _thread_prefix = "alsl"
    _driver = "asyncio"
    _session_ttl: Optional[float] = None
    _sweep_every = 1.0

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        drain_timeout: float = 5.0,
        backlog: int = LISTEN_BACKLOG,
        reuse_port: bool = False,
        listener: Optional[socket.socket] = None,
    ) -> None:
        # one loop can hold thousands of sessions, so connection storms
        # proportionally deeper than the threaded stack's are expected;
        # the kernel clamps to net.core.somaxconn. An injected listener
        # (already bound + listening) supports the cluster's FD-handoff
        # mode; reuse_port joins a shared-port worker group.
        self._listener = (
            listener
            if listener is not None
            else make_listener(
                host, port, backlog=backlog, reuse_port=reuse_port
            )
        )
        self._listener.setblocking(False)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._drain = True
        self._drain_timeout = drain_timeout
        self._live: Set[Endpoint] = set()
        # the one read buffer every relaying endpoint of this loop shares
        self._buf = bytearray(CHUNK)
        self._view = memoryview(self._buf)
        self._closing = False
        self._stop: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._loop = asyncio.new_event_loop()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run,
            name=f"{self._thread_prefix}-{self.address[1]}",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()

    def _open(self, sock: socket.socket) -> Optional[Endpoint]:
        """Start the session of one accepted (non-blocking) socket (the
        engine's), or refuse it (None)."""
        raise NotImplementedError

    def _link(
        self, sock: socket.socket, owner: Any, peer: Optional[Endpoint] = None
    ) -> Endpoint:
        """Wrap ``sock`` in an endpoint, registered for reading."""
        return Endpoint(self, sock, owner, peer)

    # -- loop lifecycle ----------------------------------------------------

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        self._stop = asyncio.Event()
        self._idle = asyncio.Event()
        self._listen()
        if self._session_ttl is not None:
            self._loop.call_later(self._sweep_every, self._sweeper)
        self._ready.set()
        await self._stop.wait()
        self._closing = True
        self._loop.remove_reader(self._listener)
        self._listener.close()
        if self._live and self._drain:
            # graceful: let active sessions run to completion
            self._loop.call_later(self._drain_timeout, self._idle.set)
            await self._idle.wait()
        for endpoint in list(self._live):
            if not endpoint.closed:
                endpoint.owner.broken(endpoint, SHUTDOWN)
            endpoint.close(flush=False)

    # -- accepting ---------------------------------------------------------

    def _accept(self) -> Tuple[socket.socket, Any]:
        """The accept seam (tests inject failures here)."""
        return self._listener.accept()

    def _listen(self) -> None:
        if not self._closing:
            self._loop.add_reader(self._listener, self._acceptable)

    def _sweeper(self) -> None:
        if not self._closing:
            self._sweep()
            self._loop.call_later(self._sweep_every, self._sweeper)

    def _acceptable(self) -> None:
        for _ in range(READS_PER_EVENT):
            try:
                sock, _ = self._accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._loop.remove_reader(self._listener)
                if self._closing or exc.errno in _FATAL_ACCEPT_ERRNOS:
                    return  # listener closed / gone
                # transient (EMFILE/ECONNABORTED/...): keep accepting
                self._on_accept_error(exc)
                self._loop.call_later(_ACCEPT_RETRY_DELAY_S, self._listen)
                return
            sock.setblocking(False)
            endpoint = self._open(sock)
            if endpoint is not None:  # None: refused
                # try first; one read each keeps an accept event bounded
                endpoint._readable(1)

    # -- public lifecycle --------------------------------------------------

    @property
    def active_tasks(self) -> int:
        """Endpoints — accepted or dialed sockets — still open on the
        loop (leak check surface; the services run no session tasks)."""
        return len(self._live)

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop accepting and wind the loop down.

        ``drain=True`` (default) waits up to ``drain_timeout`` for
        in-flight sessions to finish before aborting them;
        ``drain=False`` models a crash — every session is told
        ``broken(ep, SHUTDOWN)`` and its sockets close mid-transfer.
        """
        if not self._thread.is_alive():
            try:
                self._listener.close()
            except OSError:
                pass
            return
        self._drain = drain
        assert self._stop is not None
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            return  # loop already closed under us
        self._thread.join(
            timeout=(self._drain_timeout + 10.0) if timeout is None else timeout
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
