"""Zero-dependency multi-process session store over a directory.

Layout under the root::

    sessions/<hex>.json      the record (atomic tmp + rename writes)
    sessions/<hex>.payload   the received-payload spool (append-only)
    locks/<hex>.lock         per-session flock target
    counters/<worker>.json   published counter snapshots

Every mutation takes the session's ``flock`` (exclusive, blocking),
re-reads the record, applies the change, and writes the JSON via a
temp file + ``os.replace`` so readers never observe a torn record.
``flock`` locks die with the holder's process — a SIGKILLed worker
releases them implicitly, which is exactly the failover story this
store exists for. Lock files are left in place on delete: unlinking a
file another process may be mid-``open`` on reintroduces the race the
lock exists to prevent, and an empty inode per session is free at
test scale.

The spool is opened in append mode under the same lock, so spool
length and the record's ``bytes_received`` can never disagree by more
than an in-flight crash — and on crash the *record* wins low (the
append lands before the JSON update), which only makes the granted
resume offset conservative, never wrong: the next :meth:`claim`
truncates the spool back to ``bytes_received``, so after a claim the
two agree exactly.
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional

from repro.cluster.store import SessionStore, StoredSession


class SharedFileStore(SessionStore):
    """Session store any local process can open by path."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._sessions_dir = os.path.join(root, "sessions")
        self._locks_dir = os.path.join(root, "locks")
        self._counters_dir = os.path.join(root, "counters")
        for d in (self._sessions_dir, self._locks_dir, self._counters_dir):
            os.makedirs(d, exist_ok=True)

    # -- paths / locking ---------------------------------------------------

    def _record_path(self, session_id: bytes) -> str:
        return os.path.join(self._sessions_dir, session_id.hex() + ".json")

    def _spool_path(self, session_id: bytes) -> str:
        return os.path.join(self._sessions_dir, session_id.hex() + ".payload")

    @contextmanager
    def _locked(self, session_id: bytes) -> Iterator[None]:
        path = os.path.join(self._locks_dir, session_id.hex() + ".lock")
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd releases the flock

    def _read(self, session_id: bytes) -> Optional[StoredSession]:
        try:
            with open(self._record_path(session_id), "r") as fp:
                return StoredSession.decode(fp.read())
        except FileNotFoundError:
            return None

    def _write(self, record: StoredSession) -> None:
        path = self._record_path(record.session_id)
        tmp = path + ".tmp"
        with open(tmp, "w") as fp:
            fp.write(record.encode())
        os.replace(tmp, path)

    # -- session records ---------------------------------------------------

    def create(self, session_id: bytes, now: float, owner: str) -> StoredSession:
        with self._locked(session_id):
            if self._read(session_id) is not None:
                raise ValueError(f"session {session_id.hex()} already exists")
            snap = StoredSession(
                session_id=session_id,
                created_at=now,
                last_active=now,
                owner=owner,
                epoch=1,
            )
            self._write(snap)
            return snap

    def load(self, session_id: bytes) -> Optional[StoredSession]:
        with self._locked(session_id):
            return self._read(session_id)

    def claim(
        self, session_id: bytes, owner: str, now: float
    ) -> Optional[StoredSession]:
        with self._locked(session_id):
            snap = self._read(session_id)
            if snap is None or snap.closed:
                return None
            # an append torn by a crash left spool bytes past the
            # record: drop them, the grant is the record's
            path = self._spool_path(session_id)
            try:
                if os.path.getsize(path) > snap.bytes_received:
                    os.truncate(path, snap.bytes_received)
            except FileNotFoundError:
                pass
            snap = replace(
                snap,
                owner=owner,
                epoch=snap.epoch + 1,
                rebinds=snap.rebinds + 1,
                last_active=now,
            )
            self._write(snap)
            return snap

    def reset(self, session_id: bytes, owner: str, now: float) -> StoredSession:
        with self._locked(session_id):
            snap = self._read(session_id)
            if snap is None:
                raise ValueError(f"unknown session {session_id.hex()}")
            try:
                os.unlink(self._spool_path(session_id))
            except FileNotFoundError:
                pass
            snap = replace(
                snap,
                owner=owner,
                epoch=snap.epoch + 1,
                rebinds=0,
                bytes_received=0,
                closed=False,
                last_active=now,
            )
            self._write(snap)
            return snap

    # -- guarded writes ----------------------------------------------------

    def _guarded(
        self, session_id: bytes, owner: str, epoch: int
    ) -> Optional[StoredSession]:
        snap = self._read(session_id)
        if snap is None or snap.owner != owner or snap.epoch != epoch or snap.closed:
            return None
        return snap

    def append_payload(
        self, session_id: bytes, owner: str, epoch: int, data: bytes, now: float
    ) -> Optional[int]:
        with self._locked(session_id):
            snap = self._guarded(session_id, owner, epoch)
            if snap is None:
                return None
            with open(self._spool_path(session_id), "ab") as fp:
                fp.write(data)
                fp.flush()
                total = fp.tell()
            self._write(
                replace(snap, bytes_received=total, last_active=now)
            )
            return total

    def touch(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        with self._locked(session_id):
            snap = self._guarded(session_id, owner, epoch)
            if snap is None:
                return False
            self._write(replace(snap, last_active=now))
            return True

    def finish(
        self, session_id: bytes, owner: str, epoch: int, now: float
    ) -> bool:
        with self._locked(session_id):
            snap = self._guarded(session_id, owner, epoch)
            if snap is None:
                return False
            try:
                os.unlink(self._spool_path(session_id))
            except FileNotFoundError:
                pass
            self._write(replace(snap, closed=True, last_active=now))
            return True

    # -- reads / maintenance ----------------------------------------------

    def payload(self, session_id: bytes) -> bytes:
        with self._locked(session_id):
            try:
                with open(self._spool_path(session_id), "rb") as fp:
                    return fp.read()
            except FileNotFoundError:
                return b""

    def delete(self, session_id: bytes) -> None:
        with self._locked(session_id):
            for path in (
                self._record_path(session_id),
                self._spool_path(session_id),
            ):
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass

    def _session_ids(self) -> List[bytes]:
        ids: List[bytes] = []
        try:
            names = os.listdir(self._sessions_dir)
        except FileNotFoundError:
            return ids
        for name in names:
            if name.endswith(".json"):
                try:
                    ids.append(bytes.fromhex(name[: -len(".json")]))
                except ValueError:
                    continue  # foreign file; not ours to touch
        return ids

    def sweep(self, now: float, ttl: float) -> List[StoredSession]:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        cutoff = now - ttl
        expired: List[StoredSession] = []
        for session_id in self._session_ids():
            with self._locked(session_id):
                snap = self._read(session_id)
                if snap is None or snap.last_active > cutoff:
                    continue
                for path in (
                    self._record_path(session_id),
                    self._spool_path(session_id),
                ):
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass
                if not snap.closed:
                    expired.append(snap)
        return expired

    def live_sessions(self) -> int:
        count = 0
        for session_id in self._session_ids():
            snap = self._read(session_id)
            if snap is not None and not snap.closed:
                count += 1
        return count

    # -- cluster observability --------------------------------------------

    def publish_counters(self, worker: str, values: Dict[str, int]) -> None:
        path = os.path.join(self._counters_dir, worker + ".json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fp:
            json.dump(values, fp, sort_keys=True)
        os.replace(tmp, path)

    def counters(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        try:
            names = os.listdir(self._counters_dir)
        except FileNotFoundError:
            return out
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._counters_dir, name), "r") as fp:
                    out[name[: -len(".json")]] = {
                        k: int(v) for k, v in json.load(fp).items()
                    }
            except (OSError, ValueError):
                continue  # torn/foreign snapshot; skip this scrape
        return out

    def ping(self) -> bool:
        return os.path.isdir(self._sessions_dir)
