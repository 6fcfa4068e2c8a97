#!/usr/bin/env python
"""Disconnected endpoints: sender and receiver never online together.

Section III claims "the ultimate sending and receiving ports need not
exist at the same time". Here a field sensor uploads its day's data to
a store-and-forward depot and disconnects; the lab server only comes
up later, the depot delivers with retry/backoff, and the end-to-end
MD5 — computed by the sensor, verified by the lab — still holds. The
depot never needs to be trusted with integrity.

Run:  python examples/disconnected_delivery.py
"""

from repro.lsl.client import lsl_connect
from repro.lsl.server import LslServer
from repro.lsl.storeforward import StoreForwardDepot
from repro.net import Network
from repro.tcp import TcpStack
from repro.util.units import fmt_bytes

SIZE = 2 << 20


def main() -> None:
    net = Network(seed=13)
    for h in ("sensor", "depot", "lab"):
        net.add_host(h)
    net.add_link("sensor", "depot", 10e6, 25.0)   # slow field uplink
    net.add_link("depot", "lab", 100e6, 5.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h)) for h in ("sensor", "depot", "lab")}

    depot = StoreForwardDepot(stacks["depot"], 4000, retention_s=600.0)

    # t=0: the sensor uploads and disconnects. The lab is NOT running.
    conn = lsl_connect(
        stacks["sensor"],
        [("depot", 4000), ("lab", 5000)],
        payload_length=SIZE,
        sync=False,  # nobody will ack end-to-end; fire and forget
    )
    pending = [SIZE]

    def pump():
        if pending[0] > 0:
            pending[0] -= conn.send_virtual(pending[0])
            if pending[0] == 0:
                conn.finish()

    conn.on_writable = pump
    conn._user_on_connected = pump

    net.sim.run(until=10.0)
    print(f"t={net.sim.now:5.1f}s  sensor uploaded {fmt_bytes(SIZE)} and went "
          f"to sleep; depot holds {fmt_bytes(depot.spooled_bytes_total)} "
          f"({depot.pending_sessions} pending session)")
    print(f"         depot has already tried the lab "
          f"{depot.sessions[0]._attempts} time(s): connection refused")

    # t=60: the lab comes online
    completed = []

    def lab_up():
        def on_session(c):
            c.on_readable = lambda: c.recv()
            c.on_complete = completed.append

        LslServer(stacks["lab"], 5000, on_session)
        print(f"t={net.sim.now:5.1f}s  lab server started")

    net.sim.schedule_at(60.0, lab_up)
    net.sim.run(until=300.0)

    result = completed[0]
    print(f"t={result and net.sim.now:5.1f}s  (sim end)")
    print(f"\ndelivered: {fmt_bytes(result.payload_received)}; "
          f"MD5 verified against the sensor's digest: {result.digest_ok}")
    print(f"depot stats: {depot.stats}")


if __name__ == "__main__":
    main()
