"""The blocking link: how a pooled thread runs a session object.

A terminal session (:mod:`repro.sockets.terminal`, the striped and the
cluster sublinks) is a plain object with ``received(link, data)`` /
``ended(link)`` / ``broken(link, exc)`` that touches the world only
through its link's ``write``, ``close`` and ``closed``. On the event
loop the link is a :class:`repro.asockets.runtime.Endpoint`; here it is
a :class:`BlockingLink`, and :func:`run_blocking` is the ``recv`` loop
that stands in for the loop's readiness callback.
"""

from __future__ import annotations

import socket
from typing import Any

#: Relay copy chunk (matches a typical socket buffer read).
CHUNK = 64 * 1024


class BlockingLink:
    """A blocking socket behind the link protocol of the session objects."""

    __slots__ = ("sock", "closed")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.closed = False

    def write(self, data: bytes) -> None:
        if not self.closed:
            self.sock.sendall(data)

    def close(self) -> None:
        """Safe from any thread, and idempotent. ``shutdown`` first:
        ``close`` alone does not wake a worker blocked inside ``recv``
        (the kernel keeps the socket for the syscall in flight), and a
        rebind, a restart or a TTL sweep closes links it is not
        reading."""
        if self.closed:
            return
        self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def run_blocking(link: BlockingLink, session: Any) -> None:
    """Feed ``session`` from ``link`` until either of them closes it.

    The same contract as an ``Endpoint``: no callback once the link is
    closed, and none after ``ended`` or ``broken``.
    """
    try:
        while not link.closed:
            try:
                data = link.sock.recv(CHUNK)
            except OSError as exc:
                if not link.closed:
                    session.broken(link, exc)
                return
            if link.closed:
                return  # closed under the read: what it returned is void
            if not data:
                session.ended(link)
                return
            session.received(link, data)
    finally:
        link.close()
