"""Cluster launchers: in-process and subprocess worker fleets.

Two ways to put N workers behind one ``(host, port)``:

* **reuseport** — every worker opens its own listener with
  ``SO_REUSEPORT``; the kernel load-balances inbound connections
  across the LISTEN sockets and a dead worker simply drops out of the
  dispatch set. The parent holds a bound-but-not-listening *anchor*
  socket on the same port: it reserves a concrete port for ``port=0``
  and keeps the group alive across worker restarts without ever
  receiving a connection itself.
* **handoff** — one listening socket created by the parent and
  inherited by every worker (``pass_fds`` + ``socket(fileno=...)``
  for subprocesses, ``dup()`` for in-process nodes); the kernel wakes
  one accepter per connection. The fallback for platforms without
  ``SO_REUSEPORT``.

:class:`LocalCluster` runs the workers inside this process (threads or
private event loops) sharing a store object directly — the only way a
``memory`` store can back more than one worker. :class:`WorkerPool`
spawns real subprocesses via ``python -m repro.cluster.worker``, which
is the deployment shape (and what the SIGKILL failover tests need);
it requires an external store (``file:`` / ``redis://``).
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.exposition import expose_cluster
from repro.cluster.node import DEFAULT_CHECKPOINT_BYTES, ClusterNode
from repro.cluster.store import InMemoryStore, SessionStore, open_store
from repro.sockets.obs import ExpositionServer
from repro.sockets.wire import make_listener
from repro.telemetry.tracing import TraceSpool


def pick_strategy(strategy: str = "auto") -> str:
    """Resolve 'auto' to the platform's best listener-sharing mode."""
    if strategy == "auto":
        return "reuseport" if hasattr(socket, "SO_REUSEPORT") else "handoff"
    if strategy not in ("reuseport", "handoff"):
        raise ValueError(f"unknown strategy {strategy!r}")
    return strategy


class LocalCluster:
    """N in-process depot workers sharing one port and one store."""

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store: Optional[SessionStore] = None,
        driver: str = "threads",
        observer=None,
        strategy: str = "auto",
        session_ttl: Optional[float] = None,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        reply: Optional[bytes] = None,
        trace_dir: Optional[str] = None,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.store = store if store is not None else InMemoryStore()
        self.strategy = pick_strategy(strategy)
        self._driver = driver
        self._observer = observer
        self._session_ttl = session_ttl
        self._checkpoint_bytes = checkpoint_bytes
        self._reply = reply
        self._trace_dir = trace_dir
        self._spools: List[TraceSpool] = []
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self._anchor: Optional[socket.socket] = None
        self._shared: Optional[socket.socket] = None
        if self.strategy == "reuseport":
            # non-listening REUSEPORT anchor: reserves the concrete
            # port without joining the kernel's dispatch set
            self._anchor = make_listener(
                host, port, reuse_port=True, listen=False
            )
            self.address: Tuple[str, int] = self._anchor.getsockname()
        else:
            self._shared = make_listener(host, port)
            self.address = self._shared.getsockname()
        self.nodes: List[object] = []
        self._down: Set[str] = set()  # workers kill() crashed
        for i in range(workers):
            self.nodes.append(self._make_node(i))

    def _make_node(self, index: int):
        tracer: Optional[TraceSpool] = None
        if self._trace_dir is not None:
            tracer = TraceSpool(
                service=f"worker:w{index}",
                path=os.path.join(self._trace_dir, f"spans-w{index}.jsonl"),
            )
            self._spools.append(tracer)
        kwargs = dict(
            store=self.store,
            worker=f"w{index}",
            observer=self._observer,
            session_ttl=self._session_ttl,
            checkpoint_bytes=self._checkpoint_bytes,
            reply=self._reply,
            tracer=tracer,
        )
        listener: Optional[socket.socket] = None
        reuse_port = False
        if self.strategy == "reuseport":
            reuse_port = True
        else:
            assert self._shared is not None
            # a dup'd fd of the shared socket: accept competes on the
            # same queue, but closing one worker's fd leaves the rest
            listener = socket.socket(fileno=os.dup(self._shared.fileno()))
        if self._driver == "asyncio":
            from repro.cluster.anode import AsyncClusterNode

            return AsyncClusterNode(
                self.address[0],
                self.address[1],
                reuse_port=reuse_port,
                listener=listener,
                **kwargs,
            )
        return ClusterNode(
            self.address[0],
            self.address[1],
            reuse_port=reuse_port,
            listener=listener,
            **kwargs,
        )

    # -- fleet operations --------------------------------------------------

    def kill(self, index: int) -> None:
        """Crash one worker: abort its sessions, leave the rest serving."""
        node = self.nodes[index]
        self._down.add(node.worker)
        node.shutdown(drain=False)

    def workers_alive(self) -> Dict[str, bool]:
        return {node.worker: node.worker not in self._down for node in self.nodes}

    def publish_counters(self) -> None:
        for node in self.nodes:
            node.publish_counters()

    def worker_counters(self) -> Dict[str, Dict[str, int]]:
        self.publish_counters()
        return self.store.counters()

    def results(self) -> List[object]:
        out: List[object] = []
        for node in self.nodes:
            out.extend(node.results)
        return out

    def wait_for_sessions(self, count: int, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.results()) >= count:
                return True
            time.sleep(0.01)
        return False

    def expose(
        self, host: str = "127.0.0.1", port: int = 0, event_log=None
    ) -> ExpositionServer:
        return expose_cluster(
            self.worker_counters,
            host=host,
            port=port,
            workers_alive=self.workers_alive,
            store_sessions=self.store.live_sessions,
            health_extra=lambda: {
                "cluster": f"{self.address[0]}:{self.address[1]}",
                "driver": self._driver,
                "strategy": self.strategy,
                "store": type(self.store).__name__,
            },
            event_log=event_log,
        )

    def shutdown(self) -> None:
        for node in self.nodes:
            try:
                node.shutdown()
            except Exception:
                pass
        for sock in (self._anchor, self._shared):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        for spool in self._spools:
            spool.close()
        self.store.close()

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _Worker:
    """Handle on one spawned worker process."""

    def __init__(self, worker_id: str, proc: subprocess.Popen) -> None:
        self.worker_id = worker_id
        self.proc = proc
        #: per-worker exposition URL (``--expose-port``), when enabled
        self.expose_url: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None


class WorkerPool:
    """N ``repro.cluster.worker`` subprocesses behind one port.

    The deployment shape of the cluster: each worker is a real process
    (own GIL, own fds) sharing only the listener and the external
    store. Workers print ``READY host port`` on stdout once accepting;
    the constructor returns after every worker has.
    """

    def __init__(
        self,
        workers: int,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        store_spec: str,
        driver: str = "threads",
        strategy: str = "auto",
        session_ttl: Optional[float] = None,
        checkpoint_bytes: int = DEFAULT_CHECKPOINT_BYTES,
        publish_interval: float = 0.25,
        ready_timeout: float = 20.0,
        trace_dir: Optional[str] = None,
        expose_workers: bool = False,
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if store_spec == "memory":
            raise ValueError(
                "the memory store cannot back subprocess workers; "
                "use LocalCluster or an external store (file:/redis://)"
            )
        self.store_spec = store_spec
        self.store = open_store(store_spec)
        self.strategy = pick_strategy(strategy)
        self._driver = driver
        self._session_ttl = session_ttl
        self._checkpoint_bytes = checkpoint_bytes
        self._publish_interval = publish_interval
        self._ready_timeout = ready_timeout
        self._trace_dir = trace_dir
        self._expose_workers = expose_workers
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
        self._lock = threading.Lock()
        self._next_index = 0
        self._anchor: Optional[socket.socket] = None
        self._shared: Optional[socket.socket] = None
        if self.strategy == "reuseport":
            self._anchor = make_listener(
                host, port, reuse_port=True, listen=False
            )
            self.address: Tuple[str, int] = self._anchor.getsockname()
        else:
            self._shared = make_listener(host, port)
            self.address = self._shared.getsockname()
        self.workers: List[_Worker] = []
        try:
            for _ in range(workers):
                self.add_worker()
        except Exception:
            self.shutdown()
            raise

    # -- spawning ----------------------------------------------------------

    def add_worker(self) -> _Worker:
        """Spawn one more worker and wait for its READY line."""
        with self._lock:
            index = self._next_index
            self._next_index += 1
        worker_id = f"w{index}"
        argv = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--host", self.address[0],
            "--port", str(self.address[1]),
            "--store", self.store_spec,
            "--worker-id", worker_id,
            "--driver", self._driver,
            "--publish-interval", str(self._publish_interval),
            "--checkpoint-bytes", str(self._checkpoint_bytes),
        ]
        if self._session_ttl is not None:
            argv += ["--session-ttl", str(self._session_ttl)]
        if self._trace_dir is not None:
            argv += ["--trace-dir", self._trace_dir]
        if self._expose_workers:
            argv += ["--expose-port", "0"]
        pass_fds: Tuple[int, ...] = ()
        if self.strategy == "reuseport":
            argv.append("--reuse-port")
        else:
            assert self._shared is not None
            fd = self._shared.fileno()
            argv += ["--listen-fd", str(fd)]
            pass_fds = (fd,)
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=None,  # worker stderr goes where ours goes
            pass_fds=pass_fds,
            text=True,
        )
        worker = _Worker(worker_id, proc)
        self._await_ready(worker)
        self.workers.append(worker)
        return worker

    def _await_ready(self, worker: _Worker) -> None:
        deadline = time.monotonic() + self._ready_timeout
        assert worker.proc.stdout is not None
        line = ""
        while time.monotonic() < deadline:
            line = worker.proc.stdout.readline()
            if not line:
                break  # EOF: the worker died before READY
            if line.startswith("READY"):
                if self._expose_workers:
                    # one more line: the worker's exposition URL
                    extra = worker.proc.stdout.readline()
                    if extra.startswith("EXPOSE "):
                        worker.expose_url = extra.split(None, 1)[1].strip()
                # stop consuming stdout; the worker stays quiet after
                # READY/EXPOSE, and nothing must block on a full pipe
                return
        worker.proc.kill()
        raise RuntimeError(
            f"worker {worker.worker_id} not ready within "
            f"{self._ready_timeout}s (last line: {line!r})"
        )

    # -- fleet operations --------------------------------------------------

    def kill(self, index: int, sig: int = signal.SIGKILL) -> None:
        """Crash one worker (default SIGKILL: no cleanup, no flush)."""
        worker = self.workers[index]
        if worker.alive:
            worker.proc.send_signal(sig)
            worker.proc.wait(timeout=10)

    def workers_alive(self) -> Dict[str, bool]:
        return {w.worker_id: w.alive for w in self.workers}

    def worker_expose_urls(self) -> Dict[str, str]:
        """Exposition URL per worker that printed one (live or dead)."""
        return {
            w.worker_id: w.expose_url
            for w in self.workers
            if w.expose_url is not None
        }

    def worker_counters(self) -> Dict[str, Dict[str, int]]:
        return self.store.counters()

    def expose(
        self, host: str = "127.0.0.1", port: int = 0, event_log=None
    ) -> ExpositionServer:
        return expose_cluster(
            self.worker_counters,
            host=host,
            port=port,
            workers_alive=self.workers_alive,
            store_sessions=self.store.live_sessions,
            health_extra=lambda: {
                "cluster": f"{self.address[0]}:{self.address[1]}",
                "driver": self._driver,
                "strategy": self.strategy,
                "store": self.store_spec,
            },
            event_log=event_log,
        )

    def shutdown(self, timeout: float = 10.0) -> None:
        for worker in self.workers:
            if worker.alive:
                try:
                    worker.proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for worker in self.workers:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait(timeout=5)
            if worker.proc.stdout is not None:
                worker.proc.stdout.close()
        for sock in (self._anchor, self._shared):
            if sock is not None:
                try:
                    sock.close()
                except OSError:
                    pass
        self.store.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
