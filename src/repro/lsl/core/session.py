"""Session identity, server-side registry, and accept/resume decisions.

The 128-bit session id names the *conversation*, decoupled from any
particular transport connection — the property Section III of the
paper leans on for mobility ("the ultimate server need not know of an
address change") and that the rebind extension exercises: a sublink
can die and be replaced while the session handle stays valid.

:class:`SessionAcceptor` centralizes what a server must decide when a
parsed header arrives on a fresh sublink — fresh session, rebind of a
live one, restart of a half-established one, or rejection — and
:func:`negotiate_resume` / :func:`establishment_reply` pin down the
exact reply bytes (``SESSION_ACK`` [+ 8-byte granted offset]), so the
simulator server and the threaded socket server cannot drift.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.lsl.core.errors import (
    LslError,
    ProtocolError,
    RouteError,
    SessionUnknown,
)
from repro.lsl.core.events import ProtocolObserver, emit
from repro.lsl.core.wire import SESSION_ACK, LslHeader

SessionId = bytes  # 16 bytes

#: Closed records a :class:`SessionRegistry` keeps, oldest forgotten
#: first: a closed record only refuses the reuse of its id, and lets a
#: striped session's late sublinks find the session and drain into it.
FINISHED_KEPT = 1024


def new_session_id(rng: random.Random) -> SessionId:
    """Generate a fresh 128-bit session id from a seeded stream."""
    return rng.getrandbits(128).to_bytes(16, "big")


@dataclass(frozen=True)
class BackoffPolicy:
    """Exponential backoff with truncation and optional jitter.

    ``delay(k)`` is the wait before retry ``k`` (0-based):
    ``min(base_s * factor**k, max_s)``, scaled by a uniform
    ``1 ± jitter`` factor when an RNG is supplied, so a fleet of
    recovering clients does not stampede a restarted depot in sync.
    """

    base_s: float = 0.2
    factor: float = 2.0
    max_s: float = 5.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.factor < 1.0 or self.max_s < self.base_s:
            raise ValueError("bad backoff parameters")
        if not (0.0 <= self.jitter < 1.0):
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        d = min(self.base_s * self.factor ** max(attempt, 0), self.max_s)
        if rng is not None and self.jitter > 0.0:
            d *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return d


@dataclass
class SessionRecord:
    """Server-side state that outlives individual transport sublinks."""

    session_id: SessionId
    created_at: float
    bytes_received: int = 0
    rebinds: int = 0
    #: Opaque per-application continuation state (e.g. the server
    #: connection object holding the running digest).
    attachment: object = None
    closed: bool = False
    #: Last moment the session showed signs of life (creation, rebind,
    #: suspend, completion) on the driver's clock. The TTL sweep
    #: (:meth:`SessionRegistry.expire`) measures idleness from here.
    last_active: float = 0.0


class SessionRegistry:
    """Tracks live sessions at a server (or depot) by session id; of
    the closed ones, the last :data:`FINISHED_KEPT`."""

    def __init__(self) -> None:
        self._sessions: Dict[SessionId, SessionRecord] = {}
        self._closed: Dict[SessionId, SessionRecord] = {}  # oldest first

    def create(self, session_id: SessionId, now: float) -> SessionRecord:
        if session_id in self._sessions:
            raise ValueError(f"session {session_id.hex()} already exists")
        record = SessionRecord(
            session_id=session_id, created_at=now, last_active=now
        )
        self._sessions[session_id] = record
        return record

    def lookup(self, session_id: SessionId) -> SessionRecord:
        record = self._sessions.get(session_id)
        if record is None or record.closed:
            raise SessionUnknown(f"unknown session {session_id.hex()}")
        return record

    def get(self, session_id: SessionId) -> Optional[SessionRecord]:
        return self._sessions.get(session_id)

    def close(self, session_id: SessionId) -> None:
        record = self._sessions.get(session_id)
        if record is not None and not record.closed:
            record.closed = True
            self._closed[session_id] = record
            if len(self._closed) > FINISHED_KEPT:
                oldest = next(iter(self._closed))
                del self._closed[oldest], self._sessions[oldest]

    def forget(self, session_id: SessionId) -> None:
        self._sessions.pop(session_id, None)
        self._closed.pop(session_id, None)

    def expire(self, now: float, ttl: float) -> List[SessionRecord]:
        """Drop sessions idle for longer than ``ttl``; returns the
        *open* records that were expired (suspended sessions that never
        rebound — the long-running ``lsd`` leak). Closed records past
        the TTL are garbage-collected silently: they were only kept to
        reject session-id reuse, and after a full TTL of silence the
        client has long since given up on the id.
        """
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        cutoff = now - ttl
        expired: List[SessionRecord] = []
        for session_id in [
            sid
            for sid, rec in self._sessions.items()
            if rec.last_active <= cutoff
        ]:
            record = self._sessions.pop(session_id)
            if record.closed:
                del self._closed[session_id]
            else:
                expired.append(record)
        return expired

    @property
    def live_count(self) -> int:
        return sum(1 for r in self._sessions.values() if not r.closed)

    def __len__(self) -> int:
        return len(self._sessions)

    def __contains__(self, session_id: SessionId) -> bool:
        return session_id in self._sessions


# -- accept decisions ------------------------------------------------------


@dataclass(frozen=True)
class AcceptNew:
    """Fresh session: create state, send ``reply``, start receiving."""

    record: SessionRecord
    reply: bytes


@dataclass(frozen=True)
class RestartSession:
    """A fresh connect reused a live id whose ack was evidently lost:
    drop ``stale`` (abort its transport), then proceed as a new session."""

    record: SessionRecord
    reply: bytes
    stale: object


@dataclass(frozen=True)
class AcceptRebind:
    """Attach the sublink to the existing session in ``record``.

    The driver must validate/answer the resume handshake against its
    receiver state via :func:`negotiate_resume` (which yields the reply
    bytes), then continue the session on the new transport.
    """

    record: SessionRecord


@dataclass(frozen=True)
class RejectSession:
    """Refuse the sublink (abort/RST); ``error`` says why."""

    error: LslError


AcceptDecision = Union[AcceptNew, RestartSession, AcceptRebind, RejectSession]


def establishment_reply(
    header: LslHeader, granted_offset: Optional[int] = None
) -> bytes:
    """The exact bytes a server sends back after accepting ``header``.

    ``SESSION_ACK`` when the header asked for synchronous
    establishment, followed by the 8-byte granted offset for a
    negotiated resume; empty for async establishment.
    """
    if not header.sync:
        return b""
    if header.resume_query:
        if granted_offset is None:
            raise LslError("resume_query reply needs the granted offset")
        return SESSION_ACK + struct.pack(">Q", granted_offset)
    return SESSION_ACK


def negotiate_resume(
    header: LslHeader,
    bytes_received: int,
    observer: Optional[ProtocolObserver] = None,
) -> bytes:
    """Validate a rebind against receiver state; returns the reply bytes.

    With ``resume_query`` the server's contiguously-received count is
    authoritative and is granted back to the client; without it the
    client-asserted offset must match exactly, else the rebind is a
    protocol error and the sublink must be aborted.
    """
    if not header.rebind:
        raise LslError("negotiate_resume on a non-rebind header")
    if not header.resume_query and header.resume_offset != bytes_received:
        raise ProtocolError(
            f"rebind resume offset {header.resume_offset} != "
            f"received {bytes_received}"
        )
    if header.resume_query:
        emit(observer, "resume-granted", header.short_id,
             granted_offset=bytes_received)
        return establishment_reply(header, granted_offset=bytes_received)
    return establishment_reply(header)


class SessionAcceptor:
    """Server-side accept logic over a :class:`SessionRegistry`."""

    def __init__(
        self,
        registry: SessionRegistry,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.registry = registry
        self._observer = observer

    def decide(self, header: LslHeader, now: float) -> AcceptDecision:
        """Classify an inbound header; mutates the registry accordingly.

        ``now`` is the driver's clock (simulated or wall) — the core
        holds no clock of its own.
        """
        if not header.is_last_hop:
            err = RouteError("server addressed as intermediate hop")
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        if header.rebind:
            try:
                record = self.registry.lookup(header.session_id)
            except SessionUnknown as exc:
                emit(self._observer, "session-rejected", header.short_id,
                     reason=str(exc))
                return RejectSession(exc)
            record.rebinds += 1
            record.last_active = now
            emit(self._observer, "session-rebound", header.short_id,
                 rebinds=record.rebinds, resume_query=header.resume_query)
            return AcceptRebind(record)
        existing = self.registry.get(header.session_id)
        if existing is not None:
            if existing.closed:
                err = ProtocolError("fresh connect reuses a closed session id")
                emit(self._observer, "session-rejected", header.short_id,
                     reason=str(err))
                return RejectSession(err)
            # our SESSION_ACK never reached the client and it restarted
            # the session from byte 0: drop the stale attachment and
            # accept the restart
            stale = existing.attachment
            self.registry.forget(header.session_id)
            record = self.registry.create(header.session_id, now)
            emit(self._observer, "session-restarted", header.short_id)
            return RestartSession(
                record, establishment_reply(header), stale
            )
        record = self.registry.create(header.session_id, now)
        emit(self._observer, "session-accepted", header.short_id,
             declared_length=header.payload_length, framed=header.framed)
        return AcceptNew(record, establishment_reply(header))
