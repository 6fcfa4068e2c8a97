"""The per-run telemetry hub, :class:`Telemetry`, and its shared
disabled instance :data:`NULL_TELEMETRY`.

A simulator run builds one hub over its metrics registry, span tracer,
flight recorder and sampler. The live stack never builds one: it traces
through :mod:`repro.telemetry.tracing` alone, so it loads none of this.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.telemetry.chrometrace import export_chrome_trace
from repro.telemetry.recorder import FlightRecorder
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.samplers import DEFAULT_INTERVAL_S, PeriodicSampler
from repro.telemetry.spans import SpanTracer


class Telemetry:
    """The per-run telemetry hub.

    Construct one per :class:`~repro.net.topology.Network` and
    :meth:`attach` it; everything downstream (TCP, links, depots, the
    LSL session machinery) finds it at ``net.telemetry`` and records
    only when ``enabled``.
    """

    def __init__(
        self,
        sim=None,
        enabled: bool = True,
        recorder_capacity: int = 2048,
    ) -> None:
        self.sim = sim
        self.enabled = enabled
        time_fn = (lambda: sim.now) if sim is not None else None
        self.metrics = MetricsRegistry(time_fn)
        self.spans = SpanTracer(time_fn)
        self.recorder = FlightRecorder(recorder_capacity)
        self.sampler: Optional[PeriodicSampler] = None
        self._exporters: List[Callable[[], Dict[str, object]]] = []
        self.net = None

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # -- wiring ---------------------------------------------------------

    def attach(
        self,
        net,
        sample_interval_s: float = DEFAULT_INTERVAL_S,
        sample_while: Optional[Callable[[], bool]] = None,
        sample_kernel: bool = True,
        sample_links: bool = True,
    ) -> "Telemetry":
        """Become ``net.telemetry``: route the event log through the
        flight recorder and start a sampler over the kernel and links.
        """
        self.net = net
        if self.sim is None:
            self.sim = net.sim
            time_fn = lambda: net.sim.now  # noqa: E731
            self.metrics._time_fn = time_fn
            self.spans._time_fn = time_fn
        net.telemetry = self
        # one event stream: SimLogger feeds the recorder via its sink
        net.logger.sink = self._on_log_record
        self.sampler = PeriodicSampler(
            self, interval_s=sample_interval_s, while_fn=sample_while
        )
        if sample_kernel:
            self.sampler.add_sim_kernel(net.sim)
        if sample_links:
            self.sampler.add_network_links(net)
        self.sampler.start()
        return self

    def detach(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()
        if self.net is not None:
            if self.net.logger.sink is self._on_log_record:
                self.net.logger.sink = None
            self.net.telemetry = NULL_TELEMETRY
            self.net = None

    def _on_log_record(self, record) -> None:
        self.recorder.record(
            record.time, record.source, record.event, record.detail
        )
        self.metrics.counter(f"events.{record.event}").inc()

    def event(self, source: str, event: str, detail=None) -> None:
        """Record a telemetry-originated event (same bus as SimLogger)."""
        self.recorder.record(self.now, source, event, detail)
        self.metrics.counter(f"events.{event}").inc()

    def flight_dump(self, reason: str, detail=None) -> Dict[str, object]:
        """Snapshot the flight recorder (called on aborts/failovers)."""
        return self.recorder.dump(reason, self.now, detail)

    def register_exporter(self, name: str,
                          fn: Callable[[], Dict[str, object]]) -> None:
        """Add a callable whose dict is merged into the metrics snapshot
        at write time (used for end-of-run stats like DepotStats)."""
        self._exporters.append(lambda: {name: fn()})

    # -- export ---------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        snap: Dict[str, object] = {
            "sim_time_s": self.now,
            "metrics": self.metrics.snapshot(),
            "spans": {
                "total": len(self.spans.spans),
                "open": len(self.spans.open_spans()),
            },
            "flight_recorder": {
                "capacity": self.recorder.capacity,
                "recorded": self.recorder.total_recorded,
                "dumps": self.recorder.dumps,
            },
        }
        extra: Dict[str, object] = {}
        for fn in self._exporters:
            extra.update(fn())
        if extra:
            snap["extra"] = extra
        return snap

    def write(self, outdir: Union[str, Path], name: str = "run") -> Dict[str, Path]:
        """Persist ``<name>.metrics.json`` and ``<name>.trace.json``.

        Returns the paths written. Open spans are exported clamped to
        the current sim time and flagged ``unfinished``.
        """
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        metrics_path = outdir / f"{name}.metrics.json"
        with metrics_path.open("w") as fp:
            json.dump(self.snapshot(), fp, indent=1, default=str)
        trace_path = export_chrome_trace(self, outdir / f"{name}.trace.json")
        return {"metrics": metrics_path, "trace": trace_path}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Telemetry {state} spans={len(self.spans.spans)}>"


#: Shared disabled instance: the default ``Network.telemetry``. Hot
#: paths check ``telemetry.enabled`` and never record against it.
NULL_TELEMETRY = Telemetry(enabled=False)
