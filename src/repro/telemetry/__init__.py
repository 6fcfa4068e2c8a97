"""Unified telemetry: metrics, spans, samplers and the flight recorder.

One observability plane for the whole stack, replacing the former
trio of disconnected pieces (``tcp/trace.py`` packet traces,
``sim/logging.py`` event logs, ``logistics/monitor.py`` forecasters —
all still present, now feeding or feeding off this layer):

- :class:`~repro.telemetry.registry.MetricsRegistry` — sim-time-stamped
  counters, gauges (with bounded time series) and log-linear histograms;
- :class:`~repro.telemetry.spans.SpanTracer` — begin/end spans with
  parent links (session -> route attempt -> sublink -> recovery epoch);
- :class:`~repro.telemetry.chrometrace` — export to Chrome trace-event
  JSON, loadable in ``chrome://tracing`` / Perfetto;
- :class:`~repro.telemetry.samplers.PeriodicSampler` — polls cwnd /
  ssthresh / srtt from TCP, queue depth and drops from links, relay
  occupancy and session counts from depots, and the sim kernel itself;
- :class:`~repro.telemetry.recorder.FlightRecorder` — bounded ring of
  recent events, dumped automatically on aborts and failovers;
- :class:`~repro.telemetry.hub.Telemetry` — the per-run hub over all of
  the above, for simulator runs;
- :class:`~repro.telemetry.tracing.TraceSpool` — the live stack's
  distributed-trace spans, the only piece it imports.

Cost contract: every :class:`~repro.net.topology.Network` carries a
``telemetry`` attribute. It defaults to the shared disabled
:data:`NULL_TELEMETRY`, and **every** hot-path instrumentation site is
a single ``if tel.enabled:`` branch, so runs that do not opt in pay one
attribute load and one predictable branch per site (measured < 5%
wall-clock on the 64 MB cascaded benchmark, see docs/OBSERVABILITY.md).
"""

from repro import lazy_exports

#: public name -> the submodule defining it, imported on first use, so
#: importing :mod:`repro.telemetry.tracing` (all the live stack uses)
#: loads no registry, span tracer, sampler or recorder
_EXPORTS = {
    "Telemetry": "hub",
    "NULL_TELEMETRY": "hub",
    "MetricsRegistry": "registry",
    "Counter": "registry",
    "Gauge": "registry",
    "Histogram": "registry",
    "SpanTracer": "spans",
    "Span": "spans",
    "Instant": "spans",
    "FlightRecorder": "recorder",
    "PeriodicSampler": "samplers",
    "TraceSpool": "tracing",
    "new_trace_id": "tracing",
    "chrome_trace": "chrometrace",
    "export_chrome_trace": "chrometrace",
    "validate_trace_events": "chrometrace",
    "validate_trace_file": "chrometrace",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
