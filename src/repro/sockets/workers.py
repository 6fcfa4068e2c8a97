"""Pooled daemon threads for per-connection work.

A session used to cost a ``threading.Thread`` per accepted sublink and
per relay pump; creating one is several times dearer than handing the
same callable to a thread that already exists. :func:`run` does the
latter, on one process-wide :class:`Pool`. The pool is **unbounded**: a
task never queues behind a busy worker (a relay's upstream reader
starts its downstream reader and neither direction can finish without
the other, so a bound could deadlock) — a new
thread starts whenever no worker is idle. The most recently idled
worker is taken first, so after a burst the surplus sits untouched and
retires after ``_IDLE_TIMEOUT_S``. Workers are daemons: a session
blocked in ``recv`` must not hold up interpreter exit.
"""

from __future__ import annotations

import sys
import threading
from queue import Empty, SimpleQueue
from typing import Any, Callable, List, Tuple

_IDLE_TIMEOUT_S = 5.0

_Task = Tuple[Callable[..., object], Tuple[Any, ...], threading.Event]


class Pool:
    """Idle workers, and the threads grown when there are none."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # inboxes of the workers waiting for a task, most recent last
        self._idle: List["SimpleQueue[_Task]"] = []

    def run(self, fn: Callable[..., object], *args: Any) -> threading.Event:
        """Run ``fn(*args)`` on a worker; the returned event is set once
        it has returned or raised (a raise goes to
        ``threading.excepthook``, as it would from a thread of its own)."""
        done = threading.Event()
        task = (fn, args, done)
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is not None:
            inbox.put(task)
        else:
            threading.Thread(
                target=self._work, args=(task,), name="lsl-worker", daemon=True
            ).start()
        return done

    def _work(self, task: _Task) -> None:
        inbox: "SimpleQueue[_Task]" = SimpleQueue()
        while True:
            fn, args, done = task
            try:
                fn(*args)
            except BaseException:
                # the thread boundary: report as Thread's own bootstrap
                # does, and live to serve the next task
                threading.excepthook(
                    threading.ExceptHookArgs(
                        (*sys.exc_info(), threading.current_thread())
                    )
                )
            del task, fn, args  # hold no session's objects while idle
            with self._lock:
                self._idle.append(inbox)
            done.set()
            try:
                task = inbox.get(timeout=_IDLE_TIMEOUT_S)
            except Empty:
                with self._lock:
                    if inbox in self._idle:
                        self._idle.remove(inbox)
                        return
                # run() claimed this worker as the timeout fired: its
                # task is on the way and must not be stranded
                task = inbox.get()


run = Pool().run
