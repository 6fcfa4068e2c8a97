"""The live stack imports without the simulator, and the simulator
without networkx or numpy; each live role loads only the code it runs.

A depot daemon, a cluster worker, the transport-free core and a
simulator run are started in fresh interpreters, so what a package
import drags in is part of what they cost to start. Each case imports in a new
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


def test_the_simulator_loads_neither_networkx_nor_numpy():
    modules = _fresh_modules(
        "import json, sys\n"
        "import repro.experiments.scenarios, repro.experiments.transfer\n"
        "print(json.dumps({'loaded': sorted(sys.modules)}))\n"
    )["loaded"]
    assert {"repro.net.routing", "repro.experiments.transfer"} <= set(modules)
    assert [m for m in ("networkx", "numpy") if m in modules] == []


def test_the_simulator_loads_no_threaded_chassis():
    """A simulated transfer's client and server import
    ``repro.sockets.client`` and ``repro.sockets.terminal``; the blocking
    dial, the link and the worker pool load with the first real-socket
    session only."""
    modules = _fresh_modules(
        "import json, sys\n"
        "import repro.experiments.transfer\n"
        "print(json.dumps({'loaded': sorted(sys.modules)}))\n"
    )["loaded"]
    assert "repro.sockets.client" in modules
    assert [m for m in ("repro.sockets.wire", "repro.sockets.workers")
            if m in modules] == []


def test_the_experiments_package_loads_no_submodule():
    modules = _fresh_modules(
        "import json, sys\n"
        "import repro.experiments\n"
        "print(json.dumps({'loaded': sorted(sys.modules)}))\n"
    )["loaded"]
    assert "repro.experiments" in modules
    assert [m for m in modules if m.startswith("repro.experiments.")] == []


def _loaded(code: str) -> list:
    return _fresh_modules(
        "import json, sys\n"
        + code
        + "print(json.dumps({'loaded': sorted(sys.modules)}))\n"
    )["loaded"]


def test_the_cluster_package_loads_no_submodule_and_no_asyncio():
    modules = _loaded("import repro.cluster\n")
    assert "repro.cluster" in modules
    assert [m for m in modules if m.startswith("repro.cluster.")] == []
    assert "asyncio" not in modules


def test_tracing_loads_none_of_the_run_hub():
    modules = _loaded("import repro.telemetry.tracing\n")
    assert "repro.telemetry.tracing" in modules
    hub = ("hub", "registry", "spans", "samplers", "recorder", "chrometrace")
    assert [m for m in hub if f"repro.telemetry.{m}" in modules] == []


def test_a_threaded_worker_loads_no_asyncio():
    modules = _loaded(
        "import repro.cluster.worker\n"
        "from repro.cluster.node import ClusterNode\n"
    )
    assert "repro.cluster.node" in modules
    assert [m for m in modules if m == "asyncio" or m.startswith("asyncio.")] == []
    assert [m for m in modules if m.startswith("repro.asockets")] == []


def test_the_lsd_command_loads_neither_numpy_nor_the_simulator():
    modules = _loaded(
        "from repro.experiments.runner import build_parser\n"
        "build_parser().parse_args(['lsd', '--workers', '2'])\n"
        "import repro.sockets.lsd, repro.sockets.obs, repro.cluster.pool\n"
    )
    assert "repro.experiments.runner" in modules
    assert "numpy" not in modules
    assert [m for m in modules if m == "repro.sim" or m.startswith("repro.sim.")] == []
