"""The live stack imports without the simulator.

A depot daemon, a cluster worker and the transport-free core are
started in fresh interpreters, so what a package import drags in is
part of what they cost to start. Each case imports in a new
``sys.executable`` and asserts on the module set it leaves behind
(counts, not clocks).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

LIVE_STACK = (
    "repro.lsl.core",
    "repro.sockets",
    "repro.asockets",
    "repro.cluster",
    "repro.cluster.worker",
    "repro.telemetry.collect",
)

SIMULATOR_SIDE = (
    "repro.sim",
    "repro.net",
    "repro.tcp",
    "repro.experiments",
    "repro.lsl.relay",
    "networkx",
    "numpy",
    "http.server",
)


def _fresh_modules(code: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_live_stack_loads_nothing_of_the_simulator():
    modules = _fresh_modules(
        "import importlib, json, sys\n"
        f"for name in {LIVE_STACK!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps({'loaded': sorted(sys.modules)}))\n"
    )["loaded"]
    assert set(LIVE_STACK) <= set(modules)
    assert [m for m in SIMULATOR_SIDE if m in modules] == []


def test_core_loads_only_the_core():
    result = _fresh_modules(
        "import json, sys\n"
        "import repro\n"
        "base = set(sys.modules)\n"
        "import repro.lsl.core\n"
        "print(json.dumps({'base': sorted(base),"
        " 'loaded': sorted(sys.modules)}))\n"
    )
    allowed = set(result["base"]) | {"repro.lsl", "repro.lsl.core"}
    outside = [
        m for m in result["loaded"]
        if m.startswith("repro.")
        and m not in allowed
        and not m.startswith("repro.lsl.core.")
    ]
    assert "repro.lsl.core.wire" in result["loaded"]
    assert outside == []
