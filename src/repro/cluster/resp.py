"""RESP client and the Redis-protocol session store backend.

:class:`RespClient` speaks the subset of RESP any Redis-compatible
server answers — arrays of bulk strings out; simple strings, errors,
integers, bulk strings, and arrays back — over one plain TCP socket
guarded by a lock (workers are multi-threaded; RESP is strictly
request/reply, so serializing commands is the whole concurrency
story).

:class:`RedisProtocolStore` maps the :class:`~repro.cluster.store.
SessionStore` contract onto keys::

    lsl:sess:<hex>       record JSON
    lsl:payload:<hex>    received-payload spool (APPEND / GET / STRLEN)
    lsl:lock:<hex>       mutation lock (SET NX PX — self-expiring, so
                         a SIGKILLed holder frees it after lock_ttl)
    lsl:counters:<id>    one worker's published counter snapshot

The spool is appended before the record is written, so a crash between
the two leaves the spool longer than ``bytes_received``; the next
``claim`` cuts it back (``STRLEN``, then ``GET``/``SET`` only when it is
longer), so after a claim the two agree exactly.

Per-session atomicity uses the classic ``SET NX PX`` spinlock. The
release is a plain ``DEL`` without a fencing token — safe here because
every lock hold is a handful of local commands, orders of magnitude
shorter than ``lock_ttl``; the epoch CAS in the records themselves is
what protects against genuinely stale owners.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional, Union

from repro.cluster.store import SessionStore, StoredSession

RespValue = Union[None, int, bytes, List["RespValue"]]


class RespError(Exception):
    """The server answered with a RESP error line."""


class RespClient:
    """One blocking RESP connection; thread-safe command execution."""

    def __init__(
        self, host: str, port: int, *, timeout: float = 10.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(timeout)
        self._buf = bytearray()
        self._lock = threading.Lock()

    def command(self, *parts: Union[str, bytes, int]) -> RespValue:
        """Send one command, return its decoded reply."""
        encoded: List[bytes] = []
        for part in parts:
            if isinstance(part, bytes):
                encoded.append(part)
            else:
                encoded.append(str(part).encode())
        out = [b"*" + str(len(encoded)).encode() + b"\r\n"]
        for part in encoded:
            out.append(b"$" + str(len(part)).encode() + b"\r\n")
            out.append(part)
            out.append(b"\r\n")
        with self._lock:
            self._sock.sendall(b"".join(out))
            return self._read_value()

    # -- reply parsing (caller holds self._lock) ---------------------------

    def _fill(self) -> None:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("RESP server closed the connection")
        self._buf.extend(data)

    def _line(self) -> bytes:
        while True:
            idx = self._buf.find(b"\r\n")
            if idx >= 0:
                line = bytes(self._buf[:idx])
                del self._buf[: idx + 2]
                return line
            self._fill()

    def _exact(self, n: int) -> bytes:
        while len(self._buf) < n + 2:
            self._fill()
        data = bytes(self._buf[:n])
        del self._buf[: n + 2]
        return data

    def _read_value(self) -> RespValue:
        line = self._line()
        kind, rest = line[:1], line[1:]
        if kind == b"+":
            return rest
        if kind == b"-":
            raise RespError(rest.decode("utf-8", "replace"))
        if kind == b":":
            return int(rest)
        if kind == b"$":
            n = int(rest)
            return None if n < 0 else self._exact(n)
        if kind == b"*":
            n = int(rest)
            return None if n < 0 else [self._read_value() for _ in range(n)]
        raise RespError(f"unparseable reply {line[:32]!r}")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RedisProtocolStore(SessionStore):
    """Session store over any RESP server (Redis or MiniRedis)."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        lock_ttl: float = 5.0,
        lock_spin_s: float = 0.002,
    ) -> None:
        self._client = RespClient(host, port, timeout=timeout)
        self._lock_ttl_ms = max(1, int(lock_ttl * 1000))
        self._lock_spin_s = lock_spin_s
        self._lock_wait_s = lock_ttl * 2

    # -- keys / locking ----------------------------------------------------

    @staticmethod
    def _record_key(session_id: bytes) -> str:
        return "lsl:sess:" + session_id.hex()

    @staticmethod
    def _spool_key(session_id: bytes) -> str:
        return "lsl:payload:" + session_id.hex()

    @contextmanager
    def _locked(self, session_id: bytes) -> Iterator[None]:
        key = "lsl:lock:" + session_id.hex()
        deadline = time.time() + self._lock_wait_s
        while (
            self._client.command(
                "SET", key, "1", "NX", "PX", self._lock_ttl_ms
            )
            is None
        ):
            if time.time() >= deadline:
                raise TimeoutError(f"session lock {key} held too long")
            time.sleep(self._lock_spin_s)
        try:
            yield
        finally:
            self._client.command("DEL", key)

    def _read(self, session_id: bytes) -> Optional[StoredSession]:
        raw = self._client.command("GET", self._record_key(session_id))
        if raw is None:
            return None
        return StoredSession.decode(bytes(raw).decode())

    def _write(self, record: StoredSession) -> None:
        self._client.command(
            "SET", self._record_key(record.session_id), record.encode()
        )

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
            # an append torn by a crash (APPEND done, record not
            # written) left spool bytes past the record: drop them
            key = self._spool_key(session_id)
            length = self._client.command("STRLEN", key)
            if isinstance(length, int) and length > snap.bytes_received:
                spool = self._client.command("GET", key)
                assert isinstance(spool, bytes)
                self._client.command(
                    "SET", key, spool[: snap.bytes_received]
                )
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
            self._client.command("DEL", self._spool_key(session_id))
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
            total = self._client.command(
                "APPEND", self._spool_key(session_id), data
            )
            assert isinstance(total, int)
            self._write(replace(snap, bytes_received=total, last_active=now))
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
            self._client.command("DEL", self._spool_key(session_id))
            self._write(replace(snap, closed=True, last_active=now))
            return True

    # -- reads / maintenance ----------------------------------------------

    def payload(self, session_id: bytes) -> bytes:
        raw = self._client.command("GET", self._spool_key(session_id))
        return b"" if raw is None else bytes(raw)

    def delete(self, session_id: bytes) -> None:
        with self._locked(session_id):
            self._client.command(
                "DEL", self._record_key(session_id), self._spool_key(session_id)
            )

    def _session_ids(self) -> List[bytes]:
        keys = self._client.command("KEYS", "lsl:sess:*")
        ids: List[bytes] = []
        if not isinstance(keys, list):
            return ids
        prefix = len("lsl:sess:")
        for key in keys:
            try:
                ids.append(bytes.fromhex(bytes(key)[prefix:].decode()))
            except ValueError:
                continue
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
                self._client.command(
                    "DEL",
                    self._record_key(session_id),
                    self._spool_key(session_id),
                )
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
        self._client.command(
            "SET", "lsl:counters:" + worker, json.dumps(values, sort_keys=True)
        )

    def counters(self) -> Dict[str, Dict[str, int]]:
        out: Dict[str, Dict[str, int]] = {}
        keys = self._client.command("KEYS", "lsl:counters:*")
        if not isinstance(keys, list):
            return out
        prefix = len("lsl:counters:")
        for key in keys:
            raw = self._client.command("GET", key)
            if raw is None:
                continue
            try:
                out[bytes(key)[prefix:].decode()] = {
                    k: int(v) for k, v in json.loads(bytes(raw)).items()
                }
            except ValueError:
                continue
        return out

    # -- lifecycle ---------------------------------------------------------

    def ping(self) -> bool:
        try:
            return self._client.command("PING") == b"PONG"
        except (OSError, RespError, ConnectionError):
            return False

    def close(self) -> None:
        self._client.close()
