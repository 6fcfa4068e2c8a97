"""A stdlib-only RESP server covering the session store's needs.

CI and the test suite cannot assume a Redis install, and the ground
rules forbid adding one — so the ``redis://`` backend talks RESP (the
REdis Serialization Protocol, a trivially simple length-prefixed text
framing) to *this* server in tests, and to a real Redis in any
deployment that has one. Only the commands
:class:`~repro.cluster.resp.RedisProtocolStore` issues are
implemented, plus the handful needed to poke it by hand:

``PING ECHO GET SET (NX/XX/EX/PX) DEL EXISTS APPEND STRLEN
KEYS DBSIZE FLUSHDB QUIT``

Values are bytes; expiry (``EX``/``PX``) is lazy — checked on access —
which is all the store's lock keys need. One pooled worker per
connection; the data dict sits under one lock, matching real Redis's
serialized command execution.
"""

from __future__ import annotations

import fnmatch
import socket
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.sockets import workers
from repro.sockets.wire import make_listener

_WRONG_ARGS = b"-ERR wrong number of arguments\r\n"


def _encode_simple(text: str) -> bytes:
    return b"+" + text.encode() + b"\r\n"


def _encode_error(text: str) -> bytes:
    return b"-ERR " + text.encode() + b"\r\n"


def _encode_int(value: int) -> bytes:
    return b":" + str(value).encode() + b"\r\n"


def _encode_bulk(value: Optional[bytes]) -> bytes:
    if value is None:
        return b"$-1\r\n"
    return b"$" + str(len(value)).encode() + b"\r\n" + value + b"\r\n"


def _encode_array(items: List[bytes]) -> bytes:
    out = [b"*" + str(len(items)).encode() + b"\r\n"]
    out.extend(_encode_bulk(item) for item in items)
    return b"".join(out)


class _Reader:
    """Buffered RESP request reader for one connection."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()

    def _fill(self) -> bool:
        data = self._sock.recv(65536)
        if not data:
            return False
        self._buf.extend(data)
        return True

    def _line(self) -> Optional[bytes]:
        while True:
            idx = self._buf.find(b"\r\n")
            if idx >= 0:
                line = bytes(self._buf[:idx])
                del self._buf[: idx + 2]
                return line
            if not self._fill():
                return None

    def _exact(self, n: int) -> Optional[bytes]:
        while len(self._buf) < n + 2:
            if not self._fill():
                return None
        data = bytes(self._buf[:n])
        del self._buf[: n + 2]  # payload + trailing \r\n
        return data

    def command(self) -> Optional[List[bytes]]:
        """One client command (array of bulk strings); None on EOF."""
        line = self._line()
        if line is None:
            return None
        if not line.startswith(b"*"):
            raise ValueError(f"expected array, got {line[:16]!r}")
        count = int(line[1:])
        parts: List[bytes] = []
        for _ in range(count):
            header = self._line()
            if header is None or not header.startswith(b"$"):
                return None
            part = self._exact(int(header[1:]))
            if part is None:
                return None
            parts.append(part)
        return parts


class MiniRedis:
    """Threaded RESP server on ``(host, port)`` until :meth:`shutdown`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._listener = make_listener(host, port)
        self.address: Tuple[str, int] = self._listener.getsockname()
        self._lock = threading.Lock()
        self._data: Dict[bytes, bytes] = {}
        self._expires: Dict[bytes, float] = {}
        self._shutdown = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"miniredis-{self.address[1]}",
            daemon=True,
        )
        self._accept_thread.start()

    # -- storage helpers (caller holds self._lock) -------------------------

    def _alive(self, key: bytes) -> bool:
        deadline = self._expires.get(key)
        if deadline is not None and time.time() >= deadline:
            self._data.pop(key, None)
            self._expires.pop(key, None)
        return key in self._data

    def _set(self, key: bytes, value: bytes, ttl_s: Optional[float]) -> None:
        self._data[key] = value
        if ttl_s is not None:
            self._expires[key] = time.time() + ttl_s
        else:
            self._expires.pop(key, None)

    # -- command dispatch --------------------------------------------------

    def _execute(self, parts: List[bytes]) -> bytes:
        name = parts[0].upper()
        args = parts[1:]
        if name == b"PING":
            return _encode_simple("PONG") if not args else _encode_bulk(args[0])
        if name == b"ECHO":
            return _encode_bulk(args[0]) if len(args) == 1 else _WRONG_ARGS
        if name == b"QUIT":
            return _encode_simple("OK")
        with self._lock:
            return self._execute_data(name, args)

    def _execute_data(self, name: bytes, args: List[bytes]) -> bytes:
        if name == b"SET":
            return self._cmd_set(args)
        if name == b"GET":
            if len(args) != 1:
                return _WRONG_ARGS
            key = args[0]
            return _encode_bulk(self._data[key] if self._alive(key) else None)
        if name == b"DEL":
            removed = 0
            for key in args:
                if self._alive(key):
                    del self._data[key]
                    self._expires.pop(key, None)
                    removed += 1
            return _encode_int(removed)
        if name == b"EXISTS":
            return _encode_int(sum(1 for key in args if self._alive(key)))
        if name == b"APPEND":
            if len(args) != 2:
                return _WRONG_ARGS
            key, value = args
            current = self._data[key] if self._alive(key) else b""
            self._set(key, current + value, None)
            return _encode_int(len(current) + len(value))
        if name == b"STRLEN":
            if len(args) != 1:
                return _WRONG_ARGS
            key = args[0]
            return _encode_int(len(self._data[key]) if self._alive(key) else 0)
        if name == b"KEYS":
            if len(args) != 1:
                return _WRONG_ARGS
            pattern = args[0].decode("utf-8", "surrogateescape")
            matched = [
                key
                for key in list(self._data)
                if self._alive(key)
                and fnmatch.fnmatchcase(
                    key.decode("utf-8", "surrogateescape"), pattern
                )
            ]
            return _encode_array(sorted(matched))
        if name == b"DBSIZE":
            return _encode_int(
                sum(1 for key in list(self._data) if self._alive(key))
            )
        if name == b"FLUSHDB":
            self._data.clear()
            self._expires.clear()
            return _encode_simple("OK")
        return _encode_error(f"unknown command '{name.decode()}'")

    def _cmd_set(self, args: List[bytes]) -> bytes:
        if len(args) < 2:
            return _WRONG_ARGS
        key, value = args[0], args[1]
        ttl_s: Optional[float] = None
        nx = xx = False
        i = 2
        while i < len(args):
            opt = args[i].upper()
            if opt == b"NX":
                nx = True
            elif opt == b"XX":
                xx = True
            elif opt in (b"EX", b"PX"):
                if i + 1 >= len(args):
                    return _encode_error("syntax error")
                try:
                    amount = int(args[i + 1])
                except ValueError:
                    return _encode_error("value is not an integer")
                if amount <= 0:
                    return _encode_error("invalid expire time")
                ttl_s = amount if opt == b"EX" else amount / 1000.0
                i += 1
            else:
                return _encode_error("syntax error")
            i += 1
        exists = self._alive(key)
        if (nx and exists) or (xx and not exists):
            return _encode_bulk(None)
        self._set(key, value, ttl_s)
        return _encode_simple("OK")

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            workers.run(self._serve, sock)

    def _serve(self, sock: socket.socket) -> None:
        reader = _Reader(sock)
        try:
            while True:
                try:
                    parts = reader.command()
                except (ValueError, OSError):
                    break
                if not parts:
                    break
                reply = self._execute(parts)
                sock.sendall(reply)
                if parts[0].upper() == b"QUIT":
                    break
        except OSError:
            pass
        finally:
            try:
                sock.close()
            except OSError:
                pass

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        self._shutdown.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5)

    def __enter__(self) -> "MiniRedis":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
