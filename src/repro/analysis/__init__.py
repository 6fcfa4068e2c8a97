"""Packet-trace analysis mirroring the paper's methodology.

The paper derives everything from sender-side ``tcpdump`` captures:

- **RTT** per connection from ACK timings (Figs 3, 4, 9) —
  :mod:`repro.analysis.rtt`;
- **sequence-number growth** curves, normalized and averaged across
  iterations (Figs 11–27) — :mod:`repro.analysis.seqgrowth`;
- **loss-case selection**: comparing runs with minimum / median /
  maximum observed retransmissions (Figs 15–25) —
  :mod:`repro.analysis.losscases`;
- trace files on disk — :mod:`repro.analysis.traceio`;
- summary statistics — :mod:`repro.analysis.stats`.

The package itself imports nothing, so that the fleet collector's
import of :mod:`repro.analysis.stats` does not load the simulator
through :mod:`repro.analysis.rtt`.
"""
