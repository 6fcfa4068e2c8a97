"""Periodic samplers: poll live objects into gauge time series.

A :class:`PeriodicSampler` reschedules itself on the simulator every
``interval_s`` and runs its registered probes, each of which sets one
or more gauges. Sampling is pull-based, so the sampled objects carry
**zero** instrumentation cost — the sim kernel, TCP connections, link
queues and depot relay buffers are polled, not hooked.

Lifetime: a self-rescheduling event would keep the event loop alive
forever, so the sampler stops when its ``while_fn`` predicate turns
false (runners wire it to "the transfer is still in flight") or when
:meth:`stop` is called. At most one extra interval of simulated time is
added after the predicate flips.
"""

from __future__ import annotations

from typing import Callable, List, Optional

Probe = Callable[[], None]

DEFAULT_INTERVAL_S = 0.05


class PeriodicSampler:
    """Drives registered probes on a fixed sim-time cadence."""

    def __init__(
        self,
        telemetry,
        interval_s: float = DEFAULT_INTERVAL_S,
        while_fn: Optional[Callable[[], bool]] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval must be positive")
        self.telemetry = telemetry
        self.sim = telemetry.sim
        self.interval_s = interval_s
        self.while_fn = while_fn
        self.probes: List[Probe] = []
        self.ticks = 0
        self._event = None
        self._stopped = False

    # -- probe registration ---------------------------------------------

    def add_probe(self, fn: Probe) -> None:
        self.probes.append(fn)

    def add_tcp_connection(self, conn, label: str) -> None:
        """Poll cwnd / ssthresh / srtt / in-flight of one connection."""
        metrics = self.telemetry.metrics

        def probe() -> None:
            if conn.closed_at is not None:
                return
            now = self.sim.now
            metrics.gauge(f"tcp.{label}.cwnd_bytes").set(conn.cc.cwnd, now)
            metrics.gauge(f"tcp.{label}.ssthresh_bytes").set(
                conn.cc.ssthresh, now
            )
            if conn.rtt.has_sample:
                metrics.gauge(f"tcp.{label}.srtt_s").set(conn.rtt.srtt, now)
            metrics.gauge(f"tcp.{label}.inflight_bytes").set(
                conn.flight_size, now
            )

        self.add_probe(probe)

    def add_link_direction(self, direction) -> None:
        """Poll queue depth and cumulative drops of one link direction."""
        metrics = self.telemetry.metrics
        name = direction.name

        def probe() -> None:
            now = self.sim.now
            metrics.gauge(f"link.{name}.queue_bytes").set(
                direction.queued_bytes, now
            )
            metrics.gauge(f"link.{name}.dropped_packets").set(
                direction.stats.dropped_packets, now
            )

        self.add_probe(probe)

    def add_network_links(self, net) -> None:
        for link in net.links:
            self.add_link_direction(link.forward)
            self.add_link_direction(link.reverse)

    def add_depot(self, depot) -> None:
        """Poll a depot's active-session count and relay occupancy."""
        metrics = self.telemetry.metrics
        name = depot.host_name

        def probe() -> None:
            now = self.sim.now
            buffered = 0
            for end in depot.sessions:
                for pump in end.owner.pumps:
                    buffered += pump.buffered_bytes
            metrics.gauge(f"depot.{name}.active_sessions").set(
                depot.counters.active_sessions, now
            )
            metrics.gauge(f"depot.{name}.relay_buffered_bytes").set(
                buffered, now
            )

        self.add_probe(probe)

    def add_sim_kernel(self, sim) -> None:
        """Poll the event loop itself: processed count and queue length."""
        metrics = self.telemetry.metrics

        def probe() -> None:
            now = sim.now
            metrics.gauge("sim.events_processed").set(
                sim.events_processed, now
            )
            metrics.gauge("sim.event_queue_len").set(sim.queue_len, now)

        self.add_probe(probe)

    # -- scheduling -----------------------------------------------------

    def start(self) -> None:
        if self._event is not None or self._stopped:
            return
        self._event = self.sim.schedule(0.0, self._tick)

    def stop(self) -> None:
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = None
        if self._stopped:
            return
        self.ticks += 1
        for probe in self.probes:
            probe()
        if self.while_fn is not None and not self.while_fn():
            self._stopped = True
            return
        self._event = self.sim.schedule(self.interval_s, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<PeriodicSampler interval={self.interval_s}s "
            f"probes={len(self.probes)} ticks={self.ticks}>"
        )
