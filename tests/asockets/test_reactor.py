"""The reactor under ``repro.asockets``, pinned by counts, not clocks.

What the endpoint promises — bounded reads per readiness event, one
queued chunk at most, one registration per socket, no task or future
per session, no fd left behind — is asserted from counters the tests
plant on the loop and the endpoint; nothing here measures time.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
from types import SimpleNamespace

import pytest

from repro.asockets import AsyncDepot, AsyncLslClient, AsyncLslServer, runtime
from repro.asockets.depot import RelaySession
from repro.asockets.runtime import READS_PER_EVENT, Endpoint
from repro.lsl.core import real_digest_factory
from repro.sockets import LslSocketClient
from repro.sockets.client import plan_client_session
from repro.sockets.terminal import TerminalSublink
from repro.sockets.wire import CHUNK

from tests.asockets.test_async_stack import RecordingObserver, _wait
from tests.asockets.test_runtime import _loop_call

PAYLOAD = bytes(range(256)) * 16  # 4 KiB
SESSION_ID = bytes(range(16))


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _unused_address():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    address = probe.getsockname()
    probe.close()
    return address


# -- the endpoint alone -----------------------------------------------------


class _ToppedUpSocket:
    """A socketpair end whose kernel queue never runs dry: every read
    is followed by a refill from the other end, until ``total`` bytes
    have been written. Counts what the endpoint calls."""

    def __init__(self, total, log):
        self._sock, self._feeder = socket.socketpair()
        self._sock.setblocking(False)
        self._feeder.setblocking(False)
        self._left = total
        self._log = log
        self.top_up()

    def top_up(self):
        while self._left:
            try:
                self._left -= self._feeder.send(b"\xa5" * min(CHUNK, self._left))
            except BlockingIOError:
                return
        self._feeder.close()  # everything written: EOF follows

    def fileno(self):
        return self._sock.fileno()

    def recv(self, n):
        self._log.append("read")
        try:
            return self._sock.recv(n)
        finally:
            self.top_up()

    def recv_into(self, buf):
        self._log.append("read")
        try:
            return self._sock.recv_into(buf)
        finally:
            self.top_up()

    def close(self):
        self._sock.close()


@pytest.mark.parametrize("relaying", [False, True])
def test_one_readiness_event_reads_a_bounded_number_of_chunks(relaying):
    """4 MiB is ready, yet one callback reads 16 chunks and returns to
    the loop: a callback scheduled during the first read runs before
    the 17th (the parent read on for as long as data was ready)."""
    total = 4 << 20
    loop = asyncio.new_event_loop()
    log = []
    got = [0]

    class Owner:
        def received(self, ep, data):
            if not got[0]:
                loop.call_soon(log.append, "soon")
            got[0] += len(data)

        def ended(self, ep):
            ep.close()
            loop.stop()

        def broken(self, ep, exc):  # pragma: no cover - would fail below
            raise exc

    class Probe(Endpoint):
        def _readable(self):
            log.append("event")
            super()._readable()

    buf = bytearray(CHUNK)
    service = SimpleNamespace(
        _loop=loop, _live=set(), _buf=buf, _view=memoryview(buf),
        _closing=False,
    )
    try:
        sock = _ToppedUpSocket(total, log)
        Probe(service, sock, Owner(), peer=object() if relaying else None)
        loop.run_forever()
    finally:
        loop.close()
    assert got[0] == total
    assert not service._live
    assert log[: READS_PER_EVENT + 2] == (
        ["event"] + ["read"] * READS_PER_EVENT + ["soon"]
    )
    per_event = []
    for entry in log:
        if entry == "event":
            per_event.append(0)
        elif entry == "read":
            per_event[-1] += 1
    assert max(per_event) == READS_PER_EVENT
    assert sum(per_event) >= total // CHUNK


class _HeldSink:
    """A raw next hop behind a small receive buffer that reads nothing
    until released, then everything."""

    def __init__(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()
        self.release = threading.Event()
        self.data = b""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        sock, _ = self._listener.accept()
        self._listener.close()
        assert self.release.wait(30)
        pieces = []
        while True:
            piece = sock.recv(16384)
            if not piece:
                break
            pieces.append(piece)
        sock.close()
        self.data = b"".join(pieces)

    def wait(self):
        self._thread.join(30)
        assert not self._thread.is_alive()
        return self.data


def test_relay_into_a_slow_sink_holds_one_chunk_and_pauses_upstream(monkeypatch):
    payload = os.urandom(8 << 20)
    queued = []
    calls = {"pause": 0, "resume": 0}
    write, pause, resume = Endpoint.write, Endpoint.pause, Endpoint.resume

    def spy_write(ep, data):
        write(ep, data)
        queued.append(len(ep._queue or b""))

    def spy_pause(ep):
        calls["pause"] += 1
        pause(ep)

    def spy_resume(ep):
        # the dial's own resume has nothing registered to restore
        calls["resume"] += not ep._registered
        resume(ep)

    monkeypatch.setattr(Endpoint, "write", spy_write)
    monkeypatch.setattr(Endpoint, "pause", spy_pause)
    monkeypatch.setattr(Endpoint, "resume", spy_resume)
    sink = _HeldSink()
    with AsyncDepot() as depot:

        def send():
            with LslSocketClient(
                [depot.address, sink.address], payload_length=len(payload),
                digest=False, sync=False,
            ) as client:
                client.sendall(payload)
                client.finish()

        sender = threading.Thread(target=send)
        sender.start()
        # the sink reads only once the depot has pushed back, at least
        # once after the dial's own pause
        assert _wait(lambda: calls["pause"] >= 2, timeout=30)
        sink.release.set()
        sender.join(30)
        assert not sender.is_alive()
        data = sink.wait()
        assert _wait(lambda: depot.counters.sessions_completed == 1)
        assert depot.active_tasks == 0
    assert data.endswith(payload)
    assert len(data) - len(payload) < 256  # the advanced header, no more
    assert max(queued) <= CHUNK
    assert max(queued) > 0
    assert calls["resume"] >= 1
    assert depot.counters.bytes_relayed == len(payload)


# -- the services: no task, no future, one registration ----------------------


class _LoopCounts:
    """Count what a service asks of its loop."""

    def __init__(self, service):
        self.tasks = self.futures = self.readers = self.unreaders = 0
        self.writers = self.unwriters = 0
        self.fds, self.timers, self.errors = [], [], []
        loop = service._loop
        create_task, create_future = loop.create_task, loop.create_future
        add_reader, remove_reader = loop.add_reader, loop.remove_reader
        add_writer, remove_writer = loop.add_writer, loop.remove_writer
        call_later = loop.call_later

        def counted_task(*args, **kwargs):
            self.tasks += 1
            return create_task(*args, **kwargs)

        def counted_future():
            self.futures += 1
            return create_future()

        def counted_add(fd, callback, *args):
            self.readers += 1
            self.fds.append(fd)
            return add_reader(fd, callback, *args)

        def counted_remove(fd):
            self.unreaders += 1
            self.fds.append(fd)
            return remove_reader(fd)

        def counted_add_writer(fd, callback, *args):
            self.writers += 1
            self.fds.append(fd)
            return add_writer(fd, callback, *args)

        def counted_remove_writer(fd):
            self.unwriters += 1
            self.fds.append(fd)
            return remove_writer(fd)

        def counted_call_later(delay, callback, *args):
            self.timers.append(call_later(delay, callback, *args))
            return self.timers[-1]

        loop.create_task, loop.create_future = counted_task, counted_future
        loop.add_reader, loop.remove_reader = counted_add, counted_remove
        loop.add_writer, loop.remove_writer = (
            counted_add_writer, counted_remove_writer
        )
        loop.call_later = counted_call_later
        loop.set_exception_handler(
            lambda _loop, context: self.errors.append(context)
        )


def _run_sessions(route, server, count, done_before):
    async def drive():
        for i in range(count):
            async with AsyncLslClient(
                route, payload_length=len(PAYLOAD)
            ) as client:
                await client.sendall(PAYLOAD)
                await client.finish()
            # sequential: the next session starts once this one is in
            await asyncio.get_running_loop().run_in_executor(
                None, server.wait_for_sessions, done_before + i + 1
            )

    asyncio.run(drive())


def test_sessions_cost_no_task_no_future_and_one_registration_per_socket():
    sessions = 200
    with AsyncLslServer() as server, AsyncDepot() as depot:
        route = [depot.address, server.address]
        _run_sessions(route, server, 10, 0)  # warm-up
        assert _wait(lambda: depot.active_tasks == 0)
        on_depot, on_server = _LoopCounts(depot), _LoopCounts(server)
        _run_sessions(route, server, sessions, 10)
        assert _wait(lambda: depot.counters.sessions_completed == 10 + sessions)
        assert _wait(lambda: depot.active_tasks == server.active_tasks == 0)
        for counts in (on_depot, on_server):
            assert counts.tasks == 0
            assert counts.futures == 0
            assert not counts.errors
        # one accepted + one dialed socket per relayed session, one
        # accepted per terminal session, each registered once and
        # removed once
        assert on_depot.readers == on_depot.unreaders == 2 * sessions
        assert on_server.readers == on_server.unreaders == sessions
    assert all(r.payload == PAYLOAD and r.digest_ok for r in server.results)
    assert depot.counters.sessions_failed == 0


def test_two_thousand_sessions_leave_nothing_behind():
    sessions = 2000
    with AsyncLslServer() as server, AsyncDepot() as depot:
        route = [depot.address, server.address]
        _run_sessions(route, server, 10, 0)
        assert _wait(lambda: depot.active_tasks == server.active_tasks == 0)
        on_depot, on_server = _LoopCounts(depot), _LoopCounts(server)
        fds = _open_fds()
        _run_sessions(route, server, sessions, 10)
        assert _wait(lambda: depot.counters.active_sessions == 0)
        assert _wait(lambda: depot.active_tasks == server.active_tasks == 0)
        assert _open_fds() <= fds
        assert depot.counters.sessions_completed == 10 + sessions
        assert depot.counters.sessions_failed == 0
    # a selector KeyError/ValueError (an fd closed while registered, or
    # registered twice) would surface through the loop's handler
    assert not on_depot.errors and not on_server.errors
    assert len(server.results) == 10 + sessions and not server.errors


# -- try first: what the kernel has already done costs the loop nothing -------


def test_loopback_sessions_register_by_number_and_arm_no_writer_no_timer(
    monkeypatch,
):
    sessions = 200
    formatted = []
    with AsyncLslServer() as server, AsyncDepot() as depot:
        route = [depot.address, server.address]
        on_depot, on_server = _LoopCounts(depot), _LoopCounts(server)
        # the listeners are in (one registration for life, by object);
        # from here on, what the two service loops format is counted
        services = (depot._thread, server._thread)

        def counted_repr(sock):
            if threading.current_thread() in services:
                formatted.append(sock.fileno())
            return "<socket>"

        monkeypatch.setattr(socket.socket, "__repr__", counted_repr)
        _run_sessions(route, server, sessions, 0)
        assert _wait(lambda: depot.counters.sessions_completed == sessions)
        assert _wait(lambda: depot.active_tasks == server.active_tasks == 0)
        for counts in (on_depot, on_server):
            # the dial finished inside connect_ex, 4 KiB never fills a
            # send buffer: nothing to wait for, so nothing is asked
            assert counts.writers == counts.unwriters == 0
            assert counts.timers == []
            assert counts.fds and all(type(fd) is int for fd in counts.fds)
            assert not counts.errors
        assert on_depot.readers == on_depot.unreaders == 2 * sessions
    # a selector miss formats its key: by number that is an int
    assert formatted == []
    assert all(r.payload == PAYLOAD and r.digest_ok for r in server.results)
    assert depot.counters.sessions_failed == 0


def test_a_dial_the_kernel_has_not_finished_costs_one_writer_and_one_timer(
    monkeypatch,
):
    """The WAN case, forced on loopback: every dial takes the waiting
    path, which is the parent's — one writer and one deadline each,
    both gone when the dial is over."""
    sessions = 200
    monkeypatch.setattr(runtime, "connected", lambda sock: False)
    with AsyncLslServer() as server, AsyncDepot() as depot:
        route = [depot.address, server.address]
        on_depot, on_server = _LoopCounts(depot), _LoopCounts(server)
        _run_sessions(route, server, sessions, 0)
        assert _wait(lambda: depot.counters.sessions_completed == sessions)
        assert _wait(lambda: depot.active_tasks == server.active_tasks == 0)
        assert on_depot.writers == on_depot.unwriters == sessions
        assert len(on_depot.timers) == sessions
        assert all(timer.cancelled() for timer in on_depot.timers)
        assert on_depot.readers == on_depot.unreaders == 2 * sessions
        assert on_server.writers == 0 and on_server.timers == []
        for counts in (on_depot, on_server):
            assert counts.tasks == counts.futures == 0
            assert all(type(fd) is int for fd in counts.fds)
            assert not counts.errors
    assert all(r.payload == PAYLOAD and r.digest_ok for r in server.results)
    assert depot.counters.sessions_failed == 0


def _frozen(service):
    """Hold ``service``'s loop until the returned event is set."""
    hold = threading.Event()
    service._loop.call_soon_threadsafe(hold.wait, 30)
    return hold


def _send_whole_session(route, payload):
    """Header, payload, trailer and FIN in one go, from a raw socket."""
    header, handshake, sender = plan_client_session(
        route, payload_length=len(payload), sync=False,
    )
    sender.record(payload)
    raw = socket.create_connection(route[0], timeout=5)
    raw.sendall(handshake.initial_bytes() + payload + sender.finish())
    raw.shutdown(socket.SHUT_WR)
    return raw


def test_header_that_came_with_the_handshake_is_decided_in_the_accept_turn(
    monkeypatch,
):
    log = []
    acceptable, dial = AsyncDepot._acceptable, RelaySession._dial

    def spy_acceptable(depot):
        acceptable(depot)
        log.append("accept returned")

    def spy_dial(relay, decision):
        dial(relay, decision)
        log.append("dialed" if relay.down is not None else "dialing")

    monkeypatch.setattr(AsyncDepot, "_acceptable", spy_acceptable)
    monkeypatch.setattr(RelaySession, "_dial", spy_dial)
    with AsyncLslServer() as server, AsyncDepot() as depot:
        hold = _frozen(depot)
        raw = _send_whole_session([depot.address, server.address], PAYLOAD)
        hold.set()
        assert server.wait_for_sessions(1, timeout=10)
        assert raw.recv(1) == b""
        raw.close()
        assert _wait(lambda: depot.active_tasks == 0)
    # no turn between accept and header, none between header and dial
    assert log[:2] == ["dialed", "accept returned"]
    (result,) = server.results
    assert result.payload == PAYLOAD and result.digest_ok is True


def test_an_accept_event_reads_each_accepted_socket_once(monkeypatch):
    """Three connections wait in the backlog with 300 kB each: the one
    accept event that takes them reads one chunk of each and returns
    to the loop — bounded, like every other readiness event."""
    payload = os.urandom(300_000)
    log = []
    acceptable, received = (
        AsyncLslServer._acceptable, TerminalSublink.received
    )

    def spy_acceptable(server):
        log.append("accept")
        acceptable(server)
        log.append("accept returned")

    def spy_received(sublink, link, data):
        log.append(link)
        received(sublink, link, data)

    monkeypatch.setattr(AsyncLslServer, "_acceptable", spy_acceptable)
    monkeypatch.setattr(TerminalSublink, "received", spy_received)
    with AsyncLslServer() as server:
        hold = _frozen(server)
        raws = [
            _send_whole_session([server.address], payload) for _ in range(3)
        ]
        hold.set()
        assert server.wait_for_sessions(3, timeout=10)
        for raw in raws:
            raw.close()
        assert _wait(lambda: server.active_tasks == 0)
    assert log[0] == "accept"
    in_accept = log[1 : log.index("accept returned")]
    assert len(in_accept) == len(set(in_accept)) == 3
    assert len(log) > 3 * (300_000 // CHUNK)  # the rest came by events
    assert not server.errors
    assert all(r.payload == payload and r.digest_ok for r in server.results)


# -- the dial window ----------------------------------------------------------


@pytest.mark.parametrize("nbytes", [4096, 300_000])
def test_bytes_and_fin_sent_before_the_dial_completes_are_delivered(nbytes):
    """Header, payload, trailer and FIN all sit in the kernel before
    the depot has dialed; upstream reads are paused during the dial,
    so they wait there and are relayed afterwards, FIN last."""
    payload = os.urandom(nbytes)
    with AsyncLslServer() as server, AsyncDepot() as depot:
        header, handshake, sender = plan_client_session(
            [depot.address, server.address],
            payload_length=len(payload), sync=False,
        )
        sender.record(payload)
        wire = handshake.initial_bytes() + payload + sender.finish()
        hold = threading.Event()
        depot._loop.call_soon_threadsafe(hold.wait, 30)  # freeze the depot
        raw = socket.create_connection(depot.address, timeout=5)
        raw.sendall(wire)
        raw.shutdown(socket.SHUT_WR)
        hold.set()
        assert server.wait_for_sessions(1, timeout=10)
        assert raw.recv(1) == b""  # the relay closed cleanly behind it
        raw.close()
        assert _wait(lambda: depot.counters.sessions_completed == 1)
        assert _wait(lambda: depot.active_tasks == 0)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload and result.digest_ok is True


def _silent_listener():
    """A listener whose accept queue is full: further SYNs go
    unanswered, so a dial to it neither completes nor fails."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(0)
    fillers = []
    for _ in range(3):
        filler = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        filler.setblocking(False)
        filler.connect_ex(listener.getsockname())
        fillers.append(filler)
    return listener, fillers


@pytest.mark.parametrize("next_hop", ["refusing", "silent"])
def test_failed_dial_is_counted_reported_and_leaves_no_fd(next_hop):
    observer = RecordingObserver()
    held = []
    if next_hop == "refusing":
        address, expect = _unused_address(), "ConnectionRefusedError"
    else:
        listener, fillers = _silent_listener()
        held = [listener, *fillers]
        address, expect = listener.getsockname(), "TimeoutError"
    try:
        with AsyncDepot(observer=observer, connect_timeout=0.3) as depot:
            fds = _open_fds()
            header, handshake, _ = plan_client_session(
                [depot.address, address], payload_length=0, sync=False,
            )
            raw = socket.create_connection(depot.address, timeout=5)
            raw.sendall(handshake.initial_bytes())
            assert _wait(lambda: depot.counters.sessions_failed == 1)
            assert raw.recv(1) == b""  # the depot hung up
            raw.close()
            assert _wait(lambda: _open_fds() == fds)
            assert depot.active_tasks == 0
            assert depot.counters.sessions_completed == 0
    finally:
        for sock in held:
            sock.close()
    detail = observer.detail_for("relay-failed")
    assert detail is not None and expect in detail["reason"]


def test_client_connect_deadline_raises_timeout_without_a_second_task():
    listener, fillers = _silent_listener()
    spawned = []

    def counting_factory(loop, coro, **kwargs):
        spawned.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def dial():
        asyncio.get_running_loop().set_task_factory(counting_factory)
        with pytest.raises(asyncio.TimeoutError):
            await AsyncLslClient.open(
                [listener.getsockname()], payload_length=0, timeout=0.2
            )
        task = asyncio.current_task()
        # the deadline's cancel was consumed, not left on the task
        cancelling = task.cancelling() if hasattr(task, "cancelling") else 0
        return len(spawned), cancelling

    try:
        fds = _open_fds()
        # asyncio.wait_for would have spawned a task around the connect
        assert asyncio.run(dial()) == (0, 0)
        assert _open_fds() == fds
    finally:
        for sock in (listener, *fillers):
            sock.close()


def test_client_connect_deadline_leaves_no_future_writer_or_fd_behind():
    listener, fillers = _silent_listener()

    async def dial():
        loop = asyncio.get_running_loop()
        counts = _LoopCounts(SimpleNamespace(_loop=loop))
        futures, create_future = [], loop.create_future
        loop.create_future = lambda: futures.append(create_future()) or futures[-1]
        with pytest.raises(asyncio.TimeoutError):
            await AsyncLslClient.open(
                [listener.getsockname()], payload_length=0, timeout=0.2
            )
        # the waiting path: one future, one writer by number, one
        # timer (asyncio.run's own teardown is not the client's)
        assert counts.tasks == 0
        assert len(futures) == 1 and futures[0].done()
        assert counts.writers == counts.unwriters == 1
        assert len(counts.timers) == 1
        assert all(type(fd) is int for fd in counts.fds)
        return counts.errors

    try:
        fds = _open_fds()
        assert asyncio.run(dial()) == []
        assert _open_fds() == fds
    finally:
        for sock in (listener, *fillers):
            sock.close()


def test_client_establishment_deadline_raises_timeout_without_a_task():
    """A first hop that accepts (its backlog does) and never answers:
    the dial is over at once, the ack read waits under ``timeout`` on a
    reader and a timer, no task, and the socket goes with the error."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    spawned = []

    def counting_factory(loop, coro, **kwargs):
        spawned.append(coro)
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def dial():
        loop = asyncio.get_running_loop()
        loop.set_task_factory(counting_factory)
        # a read with no deadline would wait forever: cut it at 3 s
        guard = loop.call_later(3.0, asyncio.current_task().cancel)
        start = loop.time()
        try:
            with pytest.raises(asyncio.TimeoutError):
                await AsyncLslClient.open(
                    [listener.getsockname()], payload_length=0, timeout=0.3
                )
        finally:
            guard.cancel()
        return loop.time() - start, len(spawned)

    try:
        fds = _open_fds()
        elapsed, tasks = asyncio.run(dial())
        assert elapsed < 1.0
        assert tasks == 0
        assert _open_fds() == fds
    finally:
        listener.close()


# -- rebind -------------------------------------------------------------------


def test_rebind_displaces_the_old_sublink_without_touching_the_receiver():
    payload = os.urandom(120_000)
    cut = 48_000
    with AsyncLslServer() as server:
        old = LslSocketClient(
            [server.address], payload_length=len(payload),
            session_id=SESSION_ID,
        )
        old.sendall(payload[:cut])

        def received():
            record = server.registry.get(SESSION_ID)
            live = getattr(record, "attachment", None)
            return live.receiver.payload_received if live else -1

        assert _wait(lambda: received() == cut)
        live = server.registry.get(SESSION_ID).attachment
        receiver, displaced = live.receiver, live.link
        new = LslSocketClient(
            [server.address], payload_length=len(payload),
            session_id=SESSION_ID, rebind=True, resume_query=True,
            digest_factory=real_digest_factory(payload),
        )
        assert new.granted_offset == cut
        # the old sublink is still open at the client and keeps sending:
        # its endpoint is closed, so none of it reaches the receiver
        assert _loop_call(server, lambda: displaced.closed)
        assert live.link is not displaced and live.receiver is receiver
        try:
            old.sock.sendall(payload[cut : cut + 10_000])
        except OSError:
            pass
        assert _loop_call(server, lambda: receiver.payload_received) == cut
        new.sendall(payload[cut:])
        new.finish()
        assert server.wait_for_sessions(1, timeout=10)
        old.close()
        new.close()
        assert _wait(lambda: server.active_tasks == 0)
    assert not server.errors
    (result,) = server.results
    assert result.payload == payload and result.digest_ok is True
    assert result.rebinds == 1
