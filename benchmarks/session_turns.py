"""Loop turns and CPU per thread for one 4 KiB asyncio session.

``PYTHONPATH=src taskset -c 0 python benchmarks/session_turns.py [N]``

Drives N sequential sessions client -> ``AsyncDepot`` ->
``AsyncLslServer`` the way ``bench/``'s ``session_churn`` lane 2 does
(one persistent client loop, delivery signalled by ``on_session``) and
prints, per session, how many times each of the three loops turned
(``BaseEventLoop._run_once`` wrapped) and how much CPU each of the
three threads burnt (its own POSIX CPU clock). Counts, not clocks, are
what to compare across two checkouts: the lane is CPU-bound on one
core, so a turn saved is time saved, and a turn is the same on any
host. Not a gate; ``docs/PERFORMANCE.md`` quotes it.
"""

import asyncio
import collections
import sys
import threading
import time
from asyncio import base_events

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer

WARM_UP = 200
PAYLOAD = bytes(4096)


def main(sessions: int) -> None:
    turns: collections.Counter = collections.Counter()
    run_once = base_events.BaseEventLoop._run_once

    def counted(loop) -> None:
        turns[threading.get_ident()] += 1
        run_once(loop)

    base_events.BaseEventLoop._run_once = counted
    loop = asyncio.new_event_loop()
    delivered = loop.create_future()

    def on_session(result) -> None:
        loop.call_soon_threadsafe(delivered.set_result, result)

    with AsyncLslServer(on_session=on_session) as server, AsyncDepot() as depot:
        route = [depot.address, server.address]

        async def drive(count: int) -> None:
            nonlocal delivered
            for _ in range(count):
                delivered = loop.create_future()
                async with AsyncLslClient(
                    route, payload_length=len(PAYLOAD)
                ) as client:
                    await client.sendall(PAYLOAD)
                    await client.finish()
                    await delivered

        def cpu(thread: threading.Thread) -> float:
            return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))

        loop.run_until_complete(drive(WARM_UP))
        threads = {
            "client": threading.main_thread(),
            "depot": depot._thread,
            "server": server._thread,
        }
        turns.clear()
        before = {name: cpu(thread) for name, thread in threads.items()}
        start = time.perf_counter()
        loop.run_until_complete(drive(sessions))
        wall = time.perf_counter() - start
        rows = {
            name: (
                turns[thread.ident] / sessions,
                (cpu(thread) - before[name]) / sessions * 1e3,
            )
            for name, thread in threads.items()
        }
    loop.close()
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    print(f"{sessions} sessions, {wall / sessions * 1e3:.3f} ms wall each")
    for name, (per_session, cpu_ms) in rows.items():
        print(f"{name:7s} {per_session:5.2f} turns  {cpu_ms:.3f} ms cpu")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
