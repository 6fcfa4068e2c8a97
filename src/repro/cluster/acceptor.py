"""Store-backed accept/rebind/restart decisions for cluster workers.

The cluster twin of :class:`~repro.lsl.core.SessionAcceptor`: same
classification of an inbound last-hop header, but the authoritative
session state lives in a :class:`~repro.cluster.store.SessionStore`
instead of a process-local registry, so the decision works identically
on whichever worker the kernel (or the shared listener) handed the
sublink to — resume anywhere.

Differences forced by distribution:

* A rebind is a **takeover** when the record's owner is a different
  worker. :meth:`StoreSessionAcceptor.decide` claims ownership through
  the store's epoch CAS before replying, so the previous owner's next
  guarded write fails and it abandons its (now dead) sublink instead
  of double-serving the session.
* The granted resume offset is the store's ``bytes_received`` — the
  durably spooled prefix — not whatever a live receiver had in memory.
  The decision carries ``prefix_length`` so the worker can rebuild
  receiver state (including the running MD5) by re-feeding the spool,
  or check that a session its process parked holds exactly that
  prefix.
* A restart (fresh connect reusing a live id after a lost
  SESSION_ACK) resets the stored record **and truncates the spool**:
  the old accumulated digest prefix must not survive into the
  restarted session, or a later rebind would resume against payload
  bytes the restarted client never sent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.lsl.core import (
    ProtocolError,
    ProtocolObserver,
    RejectSession,
    RouteError,
    SessionUnknown,
    establishment_reply,
)
from repro.lsl.core.events import emit
from repro.lsl.core.wire import LslHeader
from repro.cluster.store import SessionStore, StoredSession


@dataclass(frozen=True)
class StoreAcceptNew:
    """Fresh session: record created, send ``reply``, start receiving."""

    record: StoredSession
    reply: bytes


@dataclass(frozen=True)
class StoreAcceptResume:
    """Rebind accepted; ownership now belongs to the deciding worker.

    ``prefix_length`` bytes of already-spooled payload must be re-fed
    into a fresh receiver before the sublink's live bytes, unless a
    worker of the deciding process parked the session at exactly that
    offset and the previous epoch (see :mod:`repro.cluster.node`);
    ``reply`` already grants that offset. ``takeover`` marks a
    cross-worker claim (the counter the cluster dashboards watch),
    whether the bytes then come from the spool or from memory.
    """

    record: StoredSession
    reply: bytes
    prefix_length: int
    takeover: bool


@dataclass(frozen=True)
class StoreRestart:
    """Fresh connect displaced a half-established session: state was
    reset (spool truncated), proceed as a new session from byte 0."""

    record: StoredSession
    reply: bytes


StoreDecision = Union[
    StoreAcceptNew, StoreAcceptResume, StoreRestart, RejectSession
]


class StoreSessionAcceptor:
    """Accept logic over a shared :class:`SessionStore`."""

    def __init__(
        self,
        store: SessionStore,
        worker: str,
        observer: Optional[ProtocolObserver] = None,
    ) -> None:
        self.store = store
        self.worker = worker
        self._observer = observer

    def decide(self, header: LslHeader, now: float) -> StoreDecision:
        """Classify an inbound last-hop header; mutates the store."""
        if not header.is_last_hop:
            err = RouteError("terminal acceptor addressed as intermediate hop")
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        if header.rebind:
            return self._decide_rebind(header, now)
        existing = self.store.load(header.session_id)
        if existing is None:
            record = self.store.create(header.session_id, now, self.worker)
            emit(self._observer, "session-accepted", header.short_id,
                 declared_length=header.payload_length, framed=header.framed)
            return StoreAcceptNew(record, establishment_reply(header))
        if existing.closed:
            err = ProtocolError("fresh connect reuses a closed session id")
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        # our SESSION_ACK never reached the client and it restarted the
        # session from byte 0: reset the stored state (spool included)
        # and accept the restart
        record = self.store.reset(header.session_id, self.worker, now)
        emit(self._observer, "session-restarted", header.short_id)
        return StoreRestart(record, establishment_reply(header))

    def _decide_rebind(self, header: LslHeader, now: float) -> StoreDecision:
        previous = self.store.load(header.session_id)
        if previous is None or previous.closed:
            err = SessionUnknown(f"unknown session {header.session_id.hex()}")
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        record = self.store.claim(header.session_id, self.worker, now)
        if record is None:  # closed between load and claim
            err = SessionUnknown(f"unknown session {header.session_id.hex()}")
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        takeover = previous.owner not in ("", self.worker)
        emit(self._observer, "session-rebound", header.short_id,
             rebinds=record.rebinds, resume_query=header.resume_query)
        if takeover:
            emit(self._observer, "session-takeover", header.short_id,
                 previous_owner=previous.owner, owner=self.worker,
                 epoch=record.epoch)
        if not header.resume_query and header.resume_offset != record.bytes_received:
            err = ProtocolError(
                f"rebind resume offset {header.resume_offset} != "
                f"stored {record.bytes_received}"
            )
            emit(self._observer, "session-rejected", header.short_id,
                 reason=str(err))
            return RejectSession(err)
        if header.resume_query:
            emit(self._observer, "resume-granted", header.short_id,
                 granted_offset=record.bytes_received)
            reply = establishment_reply(
                header, granted_offset=record.bytes_received
            )
        else:
            reply = establishment_reply(header)
        return StoreAcceptResume(
            record=record,
            reply=reply,
            prefix_length=record.bytes_received,
            takeover=takeover,
        )
