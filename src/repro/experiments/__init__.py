"""The paper's experimental campaign.

- :mod:`repro.experiments.scenarios` — the four testbed configurations
  (Case 1: UCSB→UIUC via Denver; Case 2: UCSB→UF via Houston; Case 3:
  UTK→wireless UCSB; Case 4: UCSB→OSU steady state), with topologies
  calibrated to the RTTs the paper reports in Figs 3, 4 and 9.
- :mod:`repro.experiments.transfer` — run one transfer, direct TCP or
  LSL-cascaded, and collect wall-clock + sender-side traces.
- :mod:`repro.experiments.striped` — striped (multipath) transfers
  with redundancy, seeded faults, and the online re-planner.
- :mod:`repro.experiments.figures` — one entry point per data figure
  (fig03 ... fig29) returning printable series.
- :mod:`repro.experiments.report` — ASCII rendering of those series.
- :mod:`repro.experiments.runner` — ``repro-lsl`` CLI.

Scaling knobs (environment variables, all optional):

- ``REPRO_ITERATIONS`` — iterations per data point (default 3; the
  paper uses 10, Case 4 uses 120).
- ``REPRO_MAX_SIZE`` — cap on transfer sizes, e.g. ``"16M"`` (default
  64M). Paper sizes above the cap are dropped from sweeps.
- ``REPRO_SEED`` — base RNG seed (default 2002).
"""
