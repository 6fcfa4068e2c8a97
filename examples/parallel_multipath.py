#!/usr/bin/env python
"""Session-layer framing: parallel streams and multi-path sessions.

The paper's Section VII names "multi-path performance optimizations
and parallel TCP streams" as the generalization that session-layer
framing would enable. This example runs the four strategies on one
topology with two disjoint POP paths:

  1. direct TCP                      (baseline)
  2. LSL via one depot               (the paper)
  3. 4 parallel direct streams      (PSockets-style striping)
  4. striped over two depot paths    (multi-path LSL)

Run:  python examples/parallel_multipath.py
"""

from repro.analysis.stats import mean
from repro.experiments.transfer import run_direct_transfer, run_lsl_transfer
from repro.lsl.depot import Depot
from repro.lsl.striped import StripedClient, StripedLslServer
from repro.net import BernoulliLoss, Network
from repro.tcp import TcpOptions, TcpStack
from repro.util.units import fmt_bytes

SIZE = 4 << 20
SEEDS = (1, 2, 3)
OPTS = TcpOptions(initial_ssthresh=64 * 1024)


def build(seed):
    net = Network(seed=seed)
    for h in ("src", "dst", "d-north", "d-south"):
        net.add_host(h)
    for r in ("north", "south"):
        net.add_router(r)
    net.add_link("src", "north", 100e6, 14.0, BernoulliLoss(3e-4))
    net.add_link("north", "dst", 100e6, 15.0, BernoulliLoss(1e-4))
    net.add_link("src", "south", 100e6, 22.0, BernoulliLoss(3e-4))
    net.add_link("south", "dst", 100e6, 23.0, BernoulliLoss(1e-4))
    net.add_link("north", "d-north", 622e6, 1.0)
    net.add_link("south", "d-south", 622e6, 1.0)
    net.finalize()
    stacks = {h: TcpStack(net.host(h), OPTS)
              for h in ("src", "dst", "d-north", "d-south")}
    Depot(stacks["d-north"], 4000, tcp_options=OPTS)
    Depot(stacks["d-south"], 4000, tcp_options=OPTS)
    return net, stacks


def run_striped(routes, seed):
    net, stacks = build(seed)
    done = {}

    def on_session(sess):
        sess.on_complete = lambda s: done.update(t=net.sim.now, split=None)

    StripedLslServer(stacks["dst"], 5000, on_session)
    client = StripedClient(stacks["src"], routes, payload_length=SIZE)
    net.sim.run(until=600.0)
    return SIZE * 8 / done["t"] / 1e6, client.per_sublink_bytes()


def main() -> None:
    from repro.experiments.scenarios import LinkSpec, Scenario

    scen = Scenario(
        name="dual-pop",
        description="two disjoint depot paths",
        client="src",
        server="dst",
        depots=("d-north",),
        extra_hosts=("d-south",),
        routers=("north", "south"),
        tcp_options=OPTS,
        links=(
            LinkSpec("src", "north", 100e6, 14.0, BernoulliLoss(3e-4)),
            LinkSpec("north", "dst", 100e6, 15.0, BernoulliLoss(1e-4)),
            LinkSpec("src", "south", 100e6, 22.0, BernoulliLoss(3e-4)),
            LinkSpec("south", "dst", 100e6, 23.0, BernoulliLoss(1e-4)),
            LinkSpec("north", "d-north", 622e6, 1.0),
            LinkSpec("south", "d-south", 622e6, 1.0),
        ),
    )

    print(f"transfer: {fmt_bytes(SIZE)}, mean of {len(SEEDS)} runs\n")
    direct = mean(
        [run_direct_transfer(scen, SIZE, seed=s).throughput_mbps for s in SEEDS]
    )
    lsl = mean(
        [run_lsl_transfer(scen, SIZE, seed=s).throughput_mbps for s in SEEDS]
    )
    psock = mean([run_striped([[("dst", 5000)]] * 4, s)[0] for s in SEEDS])
    multi_runs = [
        run_striped(
            [
                [("d-north", 4000), ("dst", 5000)],
                [("d-south", 4000), ("dst", 5000)],
            ],
            s,
        )
        for s in SEEDS
    ]
    multi = mean([m for m, _ in multi_runs])
    split = multi_runs[0][1]

    rows = [
        ("direct TCP", direct),
        ("LSL via one depot", lsl),
        ("4 parallel streams (PSockets)", psock),
        ("multi-path via two depots", multi),
    ]
    for name, mbps in rows:
        print(f"  {name:>30}: {mbps:6.2f} Mbit/s  ({mbps / direct:4.2f}x)")
    print(
        f"\n  multi-path stripe split (north/south): "
        f"{fmt_bytes(split[0])} / {fmt_bytes(split[1])} — the faster "
        f"path pulled more stripes, no scheduler needed"
    )


if __name__ == "__main__":
    main()
