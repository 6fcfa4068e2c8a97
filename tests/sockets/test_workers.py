"""The pooled session workers (``repro.sockets.workers``).

Pool tests run on a private :class:`~repro.sockets.workers.Pool`, so
they see only their own workers; the two stack tests at the end go
through the process-wide pool the drivers use. A pooled task carries no
completion signal, so most pool tests run on :class:`JoinablePool`,
whose ``run`` hands back one. Assertions are counts and identities —
the one clock is the retirement test's idle timeout.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from queue import Empty, SimpleQueue

from repro.sockets import (
    LslSocketClient,
    ThreadedDepot,
    ThreadedLslServer,
    workers,
)

WAIT_S = 10.0  # bound on every wait; reaching it is a failure


class _IdleList(list):
    """A pool's idle list that sets the event of the task a worker has
    just finished as that worker idles (``finished``, by thread)."""

    def __init__(self):
        super().__init__()
        self.finished = {}

    def append(self, inbox):
        super().append(inbox)
        done = self.finished.pop(threading.get_ident(), None)
        if done is not None:
            done.set()


class JoinablePool(workers.Pool):
    """A private pool whose ``run`` returns an event, set once the task
    has returned or raised *and* its worker is idle again — so a test
    that waits for it knows which worker the next task gets."""

    def __init__(self):
        super().__init__()
        self._idle = _IdleList()

    def run(self, fn, *args):
        done = threading.Event()

        def task():
            try:
                fn(*args)
            finally:
                self._idle.finished[threading.get_ident()] = done

        super().run(task)
        return done


def _block(pool, count, gate):
    """Occupy ``count`` workers until ``gate`` is set; returns their
    thread idents and the handles to wait on after releasing them."""
    idents, started, handles = [], [], []

    def task(flag):
        idents.append(threading.get_ident())
        flag.set()
        assert gate.wait(WAIT_S)

    for _ in range(count):
        flag = threading.Event()
        started.append(flag)
        handles.append(pool.run(task, flag))
    assert all(flag.wait(WAIT_S) for flag in started)
    return idents, handles


def test_sequential_tasks_reuse_one_thread():
    pool = JoinablePool()
    idents = []
    for _ in range(50):
        done = pool.run(lambda: idents.append(threading.get_ident()))
        assert done.wait(WAIT_S)
    assert len(idents) == 50
    assert len(set(idents)) == 1
    assert idents[0] != threading.get_ident()
    assert len(pool._idle) == 1


def test_busy_workers_never_queue_a_task():
    pool = JoinablePool()
    gate = threading.Event()
    idents, handles = _block(pool, 8, gate)
    try:
        assert len(set(idents)) == 8
        assert not pool._idle

        # the depot's shape: a task hands a child to the pool and waits
        # for it while every other worker is busy
        order = []

        def parent():
            child = pool.run(order.append, "child")
            assert child.wait(WAIT_S)
            order.append("parent")

        assert pool.run(parent).wait(WAIT_S)
        assert order == ["child", "parent"]
    finally:
        gate.set()
    assert all(done.wait(WAIT_S) for done in handles)
    assert len(pool._idle) == 10


def test_raising_task_reaches_excepthook_and_worker_survives(monkeypatch):
    reported = []
    monkeypatch.setattr(threading, "excepthook", reported.append)
    pool = JoinablePool()
    idents = []

    def boom():
        idents.append(threading.get_ident())
        raise ValueError("boom")

    assert pool.run(boom).wait(WAIT_S)
    assert pool.run(lambda: idents.append(threading.get_ident())).wait(WAIT_S)
    (args,) = reported
    assert args.exc_type is ValueError and str(args.exc_value) == "boom"
    assert args.thread.ident == idents[0]
    assert idents[0] == idents[1]


def test_task_without_a_signal_reaches_excepthook_and_worker_serves_next(
    monkeypatch,
):
    """The bare pool: nothing to wait on but what the tasks post."""
    reported, posted = [], SimpleQueue()

    def hook(args):
        reported.append(args)
        posted.put("reported")

    monkeypatch.setattr(threading, "excepthook", hook)
    pool = workers.Pool()
    idents = []

    def boom():
        idents.append(threading.get_ident())
        raise ValueError("boom")

    assert pool.run(boom) is None
    assert posted.get(timeout=WAIT_S) == "reported"
    # the hook runs before the worker idles: wait for it to
    deadline = time.monotonic() + WAIT_S
    while not pool._idle and time.monotonic() < deadline:
        time.sleep(0.001)
    assert len(pool._idle) == 1

    def after():
        idents.append(threading.get_ident())
        posted.put("ran")

    pool.run(after)
    assert posted.get(timeout=WAIT_S) == "ran"
    (args,) = reported
    assert args.exc_type is ValueError and str(args.exc_value) == "boom"
    assert args.thread.ident == idents[0]
    assert idents[0] == idents[1]


def test_surplus_workers_retire_after_a_burst(monkeypatch):
    monkeypatch.setattr(workers, "_IDLE_TIMEOUT_S", 0.2)
    pool = JoinablePool()
    gate = threading.Event()
    _idents, handles = _block(pool, 8, gate)
    gate.set()
    assert all(done.wait(WAIT_S) for done in handles)
    assert len(pool._idle) == 8
    # steady sequential work keeps taking the most recently idled
    # worker, so the other seven see no task and time out
    deadline = time.monotonic() + WAIT_S
    while len(pool._idle) > 2 and time.monotonic() < deadline:
        assert pool.run(time.sleep, 0.01).wait(WAIT_S)
    assert 1 <= len(pool._idle) <= 2
    # and an idle pool empties altogether
    while pool._idle and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not pool._idle


def test_task_claimed_as_the_idle_wait_times_out_still_runs(monkeypatch):
    pool = JoinablePool()
    ran, handles = [], []

    class RacyQueue:
        """An inbox whose first idle wait times out at the very moment
        ``run`` has taken the worker off the idle list."""

        def __init__(self):
            self._queue = SimpleQueue()
            self.put = self._queue.put

        def get(self, timeout=None):
            if timeout is not None and not handles:
                handles.append(
                    pool.run(lambda: ran.append(threading.get_ident()))
                )
                raise Empty
            return self._queue.get(timeout=timeout)

    monkeypatch.setattr(workers, "SimpleQueue", RacyQueue)
    first = []
    assert pool.run(lambda: first.append(threading.get_ident())).wait(WAIT_S)
    deadline = time.monotonic() + WAIT_S
    while not handles and time.monotonic() < deadline:
        time.sleep(0.001)
    assert handles and handles[0].wait(WAIT_S)
    # claimed from, and run on, the one worker: nothing was stranded
    # and no second thread was grown for it
    assert ran == first


def test_concurrent_submitters_lose_no_task():
    pool = JoinablePool()
    lock = threading.Lock()
    total = [0]

    def bump():
        with lock:
            total[0] += 1

    def submitter():
        for _ in range(200):
            assert pool.run(bump).wait(WAIT_S)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        submitters = [threading.Thread(target=submitter) for _ in range(16)]
        for thread in submitters:
            thread.start()
        for thread in submitters:
            thread.join(60)
        assert not any(thread.is_alive() for thread in submitters)
    finally:
        sys.setswitchinterval(interval)
    assert total[0] == 16 * 200
    assert 1 <= len(pool._idle) <= 16


# -- through the stack -------------------------------------------------------


def _send(route, payload, session_id=None):
    with LslSocketClient(
        route, payload_length=len(payload), session_id=session_id
    ) as client:
        client.sendall(payload)
        client.finish()


def test_sequential_sessions_start_no_threads(monkeypatch):
    """200 sessions through depot -> server used to start 600 threads."""
    started = [0]
    thread_start = threading.Thread.start

    def counting_start(self):
        started[0] += 1
        thread_start(self)

    payload = os.urandom(4096)
    with ThreadedLslServer() as server, ThreadedDepot() as depot:
        route = [depot.address, server.address]
        for n in range(1, 201):
            if n == 11:
                monkeypatch.setattr(threading.Thread, "start", counting_start)
            _send(route, payload)
            assert server.wait_for_sessions(n, timeout=WAIT_S)
        monkeypatch.undo()
    assert not server.errors
    assert all(result.payload == payload for result in server.results)
    assert started[0] <= 6


def test_concurrent_burst_through_one_depot():
    payloads = {bytes([n]) * 16: os.urandom(4096) for n in range(64)}
    with ThreadedLslServer() as server, ThreadedDepot() as depot:
        route = [depot.address, server.address]
        clients = [
            threading.Thread(target=_send, args=(route, payload, sid))
            for sid, payload in payloads.items()
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(WAIT_S)
        assert not any(client.is_alive() for client in clients)
        assert server.wait_for_sessions(64, timeout=WAIT_S)
    assert not server.errors
    assert {r.session_id: r.payload for r in server.results} == payloads
    assert all(r.digest_ok for r in server.results)
