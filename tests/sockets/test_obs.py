"""Live exposition + event log + dump-on-signal for the real stack.

Covers the acceptance path: a live ``lsd`` under a real-socket
transfer serves parseable Prometheus text on ``/metrics`` and a
healthy ``/healthz``; SIGUSR1 snapshots the event ring and counters to
the telemetry dir without stopping the daemon.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.sockets import LslSocketClient, ThreadedDepot, ThreadedLslServer
from repro.sockets.obs import (
    JsonEventLog,
    dump_snapshot,
    install_sigusr1_dump,
)
from repro.telemetry.exposition import parse_prometheus_text


def _get(url, timeout=5):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


class TestJsonEventLog:
    def test_ring_bounds_and_seq(self):
        log = JsonEventLog(capacity=3)
        for i in range(5):
            log.append("tick", i=i)
        events = log.tail()
        assert [e["i"] for e in events] == [2, 3, 4]
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert log.total_events == 5
        assert log.kind_counts() == {"tick": 5}

    def test_tail_n(self):
        log = JsonEventLog(capacity=10)
        for i in range(4):
            log.append("e", i=i)
        assert [e["i"] for e in log.tail(2)] == [2, 3]
        assert log.tail(0) == []

    def test_jsonl_spill(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JsonEventLog(capacity=2, path=path)
        for i in range(4):
            log.append("e", i=i)
        log.close()
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        # the file keeps everything even after the ring evicted
        assert [x["i"] for x in lines] == [0, 1, 2, 3]

    def test_protocol_observer_adapter(self):
        from repro.lsl.core.events import ProtocolEvent

        log = JsonEventLog()
        obs = log.protocol_observer("depot")
        obs(ProtocolEvent(kind="relay-forward", session="ab", detail={"n": 1}))
        (event,) = log.tail()
        assert event["kind"] == "relay-forward"
        assert event["role"] == "depot"
        assert event["session"] == "ab"
        assert event["n"] == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            JsonEventLog(capacity=0)


class TestLiveExposition:
    def test_metrics_healthz_events_under_real_transfer(self):
        # acceptance: live lsd serves parseable Prometheus text +
        # /healthz while relaying a real-socket transfer
        log = JsonEventLog(capacity=64)
        payload = os.urandom(200_000)
        with ThreadedLslServer(
            observer=log.protocol_observer("server")
        ) as server, ThreadedDepot(
            observer=log.protocol_observer("depot")
        ) as depot:
            with depot.expose(event_log=log) as exposer:
                with LslSocketClient(
                    [depot.address, server.address],
                    payload_length=len(payload),
                ) as c:
                    c.sendall(payload)
                    c.finish()
                assert server.wait_for_sessions(1)
                deadline = time.monotonic() + 5
                while depot.counters.active_sessions and (
                    time.monotonic() < deadline
                ):
                    time.sleep(0.01)

                status, text = _get(exposer.url + "/metrics")
                assert status == 200
                families = parse_prometheus_text(text)  # the lint
                assert (
                    families["lsd_sessions_completed_total"].samples[0][1]
                    == 1.0
                )
                assert families["lsd_bytes_relayed_total"].samples[0][1] >= (
                    len(payload)
                )
                kinds = {
                    labels["kind"]
                    for labels, _ in families["lsd_proto_events_total"].samples
                }
                assert "relay-forward" in kinds
                assert "session-accepted" in kinds  # server-side observer
                assert "payload-complete" in kinds

                status, body = _get(exposer.url + "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["active_sessions"] == 0

                status, body = _get(exposer.url + "/events?n=5")
                assert status == 200
                events = json.loads(body)
                assert 0 < len(events) <= 5
                assert all("kind" in e and "seq" in e for e in events)

    def test_unknown_path_404(self):
        log = JsonEventLog()
        with ThreadedDepot() as depot, depot.expose(event_log=log) as ex:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(ex.url + "/nope")
            assert err.value.code == 404
            err.value.close()  # the error is the response: it holds the socket

    def test_server_exposition(self):
        payload = os.urandom(10_000)
        log = JsonEventLog()
        with ThreadedLslServer(
            observer=log.protocol_observer("server")
        ) as server:
            with server.expose(event_log=log) as ex:
                with LslSocketClient(
                    [server.address], payload_length=len(payload)
                ) as c:
                    c.sendall(payload)
                    c.finish()
                assert server.wait_for_sessions(1)
                _, text = _get(ex.url + "/metrics")
                families = parse_prometheus_text(text)
                assert (
                    families["lsl_server_sessions_completed_total"]
                    .samples[0][1] == 1.0
                )


class TestDumpOnSignal:
    def test_dump_snapshot_writes_counters_and_ring(self, tmp_path):
        log = JsonEventLog()
        log.append("relay-forward", session="x")
        path = dump_snapshot(
            tmp_path, {"sessions_accepted": 2}, log, reason="test"
        )
        with open(path) as fp:
            data = json.load(fp)
        assert data["reason"] == "test"
        assert data["counters"]["sessions_accepted"] == 2
        assert data["events"][0]["kind"] == "relay-forward"
        assert data["event_kind_counts"] == {"relay-forward": 1}

    def test_dump_snapshot_never_overwrites(self, tmp_path):
        p1 = dump_snapshot(tmp_path, {})
        p2 = dump_snapshot(tmp_path, {})
        assert p1 != p2
        assert os.path.exists(p1) and os.path.exists(p2)

    def test_sigusr1_dumps_and_uninstalls(self, tmp_path):
        log = JsonEventLog()
        log.append("e")
        counters = {"sessions_accepted": 1}
        uninstall = install_sigusr1_dump(lambda: counters, tmp_path, log)
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                dumps = list(tmp_path.glob("lsd-dump-*.json"))
                if dumps:
                    break
                time.sleep(0.05)
            assert dumps, "SIGUSR1 produced no dump"
            data = json.loads(dumps[0].read_text())
            assert data["reason"] == "SIGUSR1"
            assert data["counters"] == counters
        finally:
            uninstall()


class TestLsdDaemon:
    def test_runner_lsd_serves_and_dumps(self, tmp_path):
        """`repro-lsl lsd`: live daemon, exposition, SIGUSR1 snapshot."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.runner", "lsd",
                "--telemetry-dir", str(tmp_path),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            lsd_line = proc.stdout.readline()
            expose_line = proc.stdout.readline()
            assert "lsd (threads) listening on" in lsd_line
            depot_port = int(lsd_line.rsplit(":", 1)[1])
            url = expose_line.split()[-1].rsplit("/metrics", 1)[0]

            payload = os.urandom(50_000)
            with ThreadedLslServer() as server:
                with LslSocketClient(
                    [("127.0.0.1", depot_port), server.address],
                    payload_length=len(payload),
                ) as c:
                    c.sendall(payload)
                    c.finish()
                assert server.wait_for_sessions(1)
                assert server.results[0].payload == payload

            _, text = _get(url + "/metrics")
            families = parse_prometheus_text(text)
            assert families["lsd_sessions_accepted_total"].samples[0][1] == 1.0
            _, body = _get(url + "/healthz")
            assert json.loads(body)["status"] == "ok"

            proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 10
            dumps = []
            while time.monotonic() < deadline and not dumps:
                dumps = list(tmp_path.glob("lsd-dump-*.json"))
                time.sleep(0.05)
            assert dumps, "daemon SIGUSR1 produced no dump"
            data = json.loads(dumps[0].read_text())
            assert data["counters"]["sessions_accepted"] == 1
            # protocol events spilled to the JSONL log as well
            spill = tmp_path / "lsd-events.jsonl"
            assert spill.exists()
            kinds = {
                json.loads(x)["kind"]
                for x in spill.read_text().splitlines()
            }
            assert "relay-forward" in kinds
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
