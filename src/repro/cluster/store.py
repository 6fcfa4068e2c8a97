"""The external session store contract and its in-memory backend.

The store holds the part of a terminal session that must survive the
worker serving it: the session record (offsets, ownership, liveness)
and the *received-payload spool* — the contiguous prefix of payload a
worker has durably checkpointed. Together they make a session
resumable **anywhere**: a rebind landing on any worker loads the
record, grants the spool length as the negotiated resume offset, and
reconstructs the receiver (including the running MD5) by re-feeding
the spool through a fresh :class:`~repro.lsl.core.PayloadReceiver` —
unless that worker suspended the session itself and still holds its
receiver (:mod:`repro.cluster.node`), when the spool is not read.
Hash state never needs to be serialized — the bytes themselves are the
only portable representation of an MD5 in progress.

Ownership is an **epoch CAS**: every claim (fresh create, rebind
takeover, restart) bumps ``epoch`` and stamps ``owner``. Guarded
writes (:meth:`SessionStore.append_payload`, :meth:`touch`,
:meth:`finish`) carry the epoch the writer holds and are refused once
a later claim exists, so a worker that lost a session to a takeover
cannot double-serve it — its next checkpoint fails and it abandons the
sublink.

Clocks are wall time (``time.time()``): the store may be shared by
several processes, and wall time is the only clock they agree on.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

SESSION_ID_LEN = 16


@dataclass(frozen=True)
class StoredSession:
    """One session's externalized record (immutable snapshot)."""

    session_id: bytes
    created_at: float
    last_active: float
    #: Length of the payload spool — the durable, grantable resume
    #: offset. Bytes a worker received but had not yet checkpointed
    #: when it died are simply re-sent by the client after the grant.
    bytes_received: int = 0
    rebinds: int = 0
    #: Worker currently serving the session ("" before first claim).
    owner: str = ""
    #: Bumped by every claim; guarded writes quoting an older epoch
    #: are refused (the owner-epoch CAS).
    epoch: int = 0
    closed: bool = False

    def encode(self) -> str:
        """JSON form shared by the file and RESP backends."""
        return json.dumps(
            {
                "session_id": self.session_id.hex(),
                "created_at": self.created_at,
                "last_active": self.last_active,
                "bytes_received": self.bytes_received,
                "rebinds": self.rebinds,
                "owner": self.owner,
                "epoch": self.epoch,
                "closed": self.closed,
            },
            sort_keys=True,
        )

    @classmethod
    def decode(cls, text: str) -> "StoredSession":
        raw = json.loads(text)
        return cls(
            session_id=bytes.fromhex(raw["session_id"]),
            created_at=float(raw["created_at"]),
            last_active=float(raw["last_active"]),
            bytes_received=int(raw["bytes_received"]),
            rebinds=int(raw["rebinds"]),
            owner=str(raw["owner"]),
            epoch=int(raw["epoch"]),
            closed=bool(raw["closed"]),
        )


class SessionStore:
    """Contract every backend implements (see module docstring).

    All methods are atomic with respect to each other for a given
    session id — backends serialize per-session mutations however
    their medium allows (one process lock, ``flock``, ``SET NX``).
    Guarded methods return ``None``/``False`` instead of raising when
    the caller's ownership is stale: losing a session to a takeover is
    a normal cluster event, not an error.
    """

    # -- session records ---------------------------------------------------

    def create(self, session_id: bytes, now: float, owner: str) -> StoredSession:
        """Create a fresh record owned by ``owner`` at epoch 1.

        Raises :class:`ValueError` if the id already exists (callers
        check :meth:`load` first; the id space makes collisions moot).
        """
        raise NotImplementedError

    def load(self, session_id: bytes) -> Optional[StoredSession]:
        """The current record, or None if never created / deleted."""
        raise NotImplementedError

    def claim(
        self, session_id: bytes, owner: str, now: float
    ) -> Optional[StoredSession]:
        """Take ownership for a rebind: bump epoch, count the rebind.

        Returns the post-claim record (its ``epoch`` is the claimer's
        write token) or None when the session is unknown or closed.
        """
        raise NotImplementedError

    def reset(self, session_id: bytes, owner: str, now: float) -> StoredSession:
        """Restart from byte zero (lost-SESSION_ACK reconnect): bump
        epoch, zero ``bytes_received``/``rebinds``, truncate the spool.
        The stale digest state a previous worker checkpointed must not
        survive — a later rebind would otherwise resume against an MD5
        prefix the restarted client never sent."""
        raise NotImplementedError

    # -- guarded writes (owner + epoch checked) ----------------------------

    def append_payload(
        self, session_id: bytes, owner: str, epoch: int, data: bytes, now: float
    ) -> Optional[int]:
        """Checkpoint received payload; returns the new spool length,
        or None when ownership was lost (or the session vanished)."""
        raise NotImplementedError

    def touch(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        """Refresh ``last_active``; False when ownership was lost."""
        raise NotImplementedError

    def finish(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        """Close the session and drop its spool (the record stays to
        refuse session-id reuse until the sweep collects it)."""
        raise NotImplementedError

    # -- reads / maintenance ----------------------------------------------

    def payload(self, session_id: bytes) -> bytes:
        """The spool contents (b"" when absent)."""
        raise NotImplementedError

    def delete(self, session_id: bytes) -> None:
        """Forget the session entirely (record + spool)."""
        raise NotImplementedError

    def sweep(self, now: float, ttl: float) -> List[StoredSession]:
        """Drop sessions idle past ``ttl``; returns the *open* records
        dropped (closed ones are garbage-collected silently). Safe to
        run concurrently from every worker."""
        raise NotImplementedError

    def live_sessions(self) -> int:
        """Open (not closed) sessions currently stored."""
        raise NotImplementedError

    # -- cluster observability --------------------------------------------

    def publish_counters(self, worker: str, values: Dict[str, int]) -> None:
        """Publish one worker's counter snapshot for aggregation."""
        raise NotImplementedError

    def counters(self) -> Dict[str, Dict[str, int]]:
        """All published snapshots, keyed by worker id."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    def ping(self) -> bool:
        """True when the backing medium answers."""
        return True

    def close(self) -> None:
        """Release backend resources (connections, fds)."""


class _MutableRecord:
    """Internal mutable twin of :class:`StoredSession` + its spool."""

    __slots__ = ("snapshot", "spool")

    def __init__(self, snapshot: StoredSession) -> None:
        self.snapshot = snapshot
        self.spool = bytearray()


class InMemoryStore(SessionStore):
    """Single-process backend: one dict under one lock.

    The default for ``--workers 1`` and for :class:`LocalCluster`,
    where several worker *threads or loops* in one process share the
    store object directly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: Dict[bytes, _MutableRecord] = {}
        self._counters: Dict[str, Dict[str, int]] = {}

    def create(self, session_id: bytes, now: float, owner: str) -> StoredSession:
        with self._lock:
            if session_id in self._records:
                raise ValueError(f"session {session_id.hex()} already exists")
            snap = StoredSession(
                session_id=session_id,
                created_at=now,
                last_active=now,
                owner=owner,
                epoch=1,
            )
            self._records[session_id] = _MutableRecord(snap)
            return snap

    def load(self, session_id: bytes) -> Optional[StoredSession]:
        with self._lock:
            rec = self._records.get(session_id)
            return rec.snapshot if rec is not None else None

    def claim(
        self, session_id: bytes, owner: str, now: float
    ) -> Optional[StoredSession]:
        with self._lock:
            rec = self._records.get(session_id)
            if rec is None or rec.snapshot.closed:
                return None
            rec.snapshot = replace(
                rec.snapshot,
                owner=owner,
                epoch=rec.snapshot.epoch + 1,
                rebinds=rec.snapshot.rebinds + 1,
                last_active=now,
            )
            return rec.snapshot

    def reset(self, session_id: bytes, owner: str, now: float) -> StoredSession:
        with self._lock:
            rec = self._records.get(session_id)
            if rec is None:
                raise ValueError(f"unknown session {session_id.hex()}")
            rec.spool.clear()
            rec.snapshot = replace(
                rec.snapshot,
                owner=owner,
                epoch=rec.snapshot.epoch + 1,
                rebinds=0,
                bytes_received=0,
                closed=False,
                last_active=now,
            )
            return rec.snapshot

    def _guarded(
        self, session_id: bytes, owner: str, epoch: int
    ) -> Optional[_MutableRecord]:
        rec = self._records.get(session_id)
        if rec is None:
            return None
        snap = rec.snapshot
        if snap.owner != owner or snap.epoch != epoch or snap.closed:
            return None
        return rec

    def append_payload(
        self, session_id: bytes, owner: str, epoch: int, data: bytes, now: float
    ) -> Optional[int]:
        with self._lock:
            rec = self._guarded(session_id, owner, epoch)
            if rec is None:
                return None
            rec.spool.extend(data)
            rec.snapshot = replace(
                rec.snapshot,
                bytes_received=len(rec.spool),
                last_active=now,
            )
            return len(rec.spool)

    def touch(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        with self._lock:
            rec = self._guarded(session_id, owner, epoch)
            if rec is None:
                return False
            rec.snapshot = replace(rec.snapshot, last_active=now)
            return True

    def finish(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        with self._lock:
            rec = self._guarded(session_id, owner, epoch)
            if rec is None:
                return False
            rec.spool.clear()
            rec.snapshot = replace(rec.snapshot, closed=True, last_active=now)
            return True

    def payload(self, session_id: bytes) -> bytes:
        with self._lock:
            rec = self._records.get(session_id)
            return bytes(rec.spool) if rec is not None else b""

    def delete(self, session_id: bytes) -> None:
        with self._lock:
            self._records.pop(session_id, None)

    def sweep(self, now: float, ttl: float) -> List[StoredSession]:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        cutoff = now - ttl
        expired: List[StoredSession] = []
        with self._lock:
            for sid in [
                sid
                for sid, rec in self._records.items()
                if rec.snapshot.last_active <= cutoff
            ]:
                rec = self._records.pop(sid)
                if not rec.snapshot.closed:
                    expired.append(rec.snapshot)
        return expired

    def live_sessions(self) -> int:
        with self._lock:
            return sum(
                1 for rec in self._records.values() if not rec.snapshot.closed
            )

    def publish_counters(self, worker: str, values: Dict[str, int]) -> None:
        with self._lock:
            self._counters[worker] = dict(values)

    def counters(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {w: dict(v) for w, v in self._counters.items()}


def open_store(spec: str) -> SessionStore:
    """Build a backend from a ``--session-store`` spec.

    ``memory``             in-process dict (single process only)
    ``file:DIR``           :class:`~repro.cluster.filestore.SharedFileStore`
    ``redis://HOST:PORT``  :class:`~repro.cluster.resp.RedisProtocolStore`
    """
    if spec == "memory":
        return InMemoryStore()
    if spec.startswith("file:"):
        from repro.cluster.filestore import SharedFileStore

        path = spec[len("file:") :]
        if not path:
            raise ValueError("file: store needs a directory path")
        return SharedFileStore(path)
    if spec.startswith("redis://"):
        from repro.cluster.resp import RedisProtocolStore

        rest = spec[len("redis://") :].rstrip("/")
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise ValueError(f"bad redis spec {spec!r} (want redis://host:port)")
        return RedisProtocolStore(host, int(port_text))
    raise ValueError(
        f"unknown session store {spec!r} "
        "(want 'memory', 'file:DIR', or 'redis://host:port')"
    )
