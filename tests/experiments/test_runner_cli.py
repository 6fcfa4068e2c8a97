"""CLI tests (in-process, via main(argv))."""

import pytest

from repro.experiments.runner import build_parser, main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig05" in out and "case1" in out


def test_figure_shorthand(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_ITERATIONS", "1")
    monkeypatch.setenv("REPRO_MAX_SIZE", "64K")
    assert main(["fig03"]) == 0
    out = capsys.readouterr().out
    assert "fig03" in out and "sublink" in out


def test_figure_with_flags(capsys):
    assert main(["figure", "fig05", "--iterations", "1", "--max-size", "64K"]) == 0
    out = capsys.readouterr().out
    assert "direct Mbit/s" in out


def test_transfer_command(capsys):
    assert main(["transfer", "case1", "--size", "64K", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "direct" in out and "lsl" in out and "gain" in out


def test_plan_command(capsys):
    assert main(["plan", "case1", "--size", "16M"]) == 0
    out = capsys.readouterr().out
    assert "chosen" in out
    assert "denver-depot" in out


def test_unknown_figure_rejected():
    with pytest.raises(SystemExit):
        main(["figure", "fig99"])


def test_transfer_real_payload(capsys):
    assert main(
        ["transfer", "case1", "--size", "64K", "--seeds", "1",
         "--payload", "real"]
    ) == 0
    out = capsys.readouterr().out
    assert "direct" in out and "lsl" in out


# -- numeric-option truthiness regressions ---------------------------------
# Zero-valued options must be honored or rejected loudly, never silently
# swallowed by a `value or default` check (the old `--seed 0` bug class).


def test_zero_seed_is_applied_to_environment(monkeypatch):
    from repro.experiments.runner import _apply_scaling, build_parser

    monkeypatch.delenv("REPRO_SEED", raising=False)
    args = build_parser().parse_args(
        ["figure", "fig05", "--seed", "0", "--iterations", "1"]
    )
    _apply_scaling(args)
    import os

    assert os.environ["REPRO_SEED"] == "0"
    assert os.environ["REPRO_ITERATIONS"] == "1"


def test_zero_iterations_rejected_at_parse_time():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure", "fig05", "--iterations", "0"])


def test_zero_seeds_rejected_at_parse_time():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["transfer", "case1", "--seeds", "0"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace", "case1", "--seeds", "0"])


def test_zero_rate_rejected_at_parse_time():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["workload", "case1", "--rate", "0"])


def test_workload_seed_zero_matches_explicit_default(capsys):
    # `--seed 0` must produce the seed-0 workload, not fall back to
    # anything else: same arrival times and sizes as the default run
    argv = ["workload", "case1", "--rate", "2", "--sessions", "2",
            "--mean-size", "128K", "--max-size", "256K"]
    assert main(argv + ["--seed", "0"]) == 0
    with_zero = capsys.readouterr().out
    assert main(argv) == 0  # default seed is 0
    assert capsys.readouterr().out == with_zero


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_workload_command(capsys):
    assert main(
        ["workload", "case1", "--rate", "2", "--sessions", "2",
         "--mean-size", "128K", "--max-size", "256K"]
    ) == 0
    out = capsys.readouterr().out
    assert "sessions complete" in out
    assert "fairness" in out


def test_trace_command(tmp_path, capsys):
    out_dir = tmp_path / "traces"
    assert main(
        ["trace", "case1", "--size", "128K", "--seeds", "1",
         "--out", str(out_dir)]
    ) == 0
    out = capsys.readouterr().out
    assert "wrote 3 sender traces" in out
    from repro.analysis.traceio import load_traces

    loaded = load_traces(out_dir)
    assert {t.label for t in loaded} == {
        "direct-s0", "sublink1-s0", "sublink2-s0"
    }
    assert all(t.data_events() for t in loaded)


def test_transfer_striped_command(capsys):
    assert main(
        ["transfer", "depot-failure", "--size", "1M", "--seeds", "1",
         "--routes", "3", "--redundancy", "duplicate-1"]
    ) == 0
    out = capsys.readouterr().out
    assert "striped" in out and "redundant stripe(s)" in out
    assert "resume round-trip(s)" in out


def test_failover_striped_zero_resume(capsys):
    assert main(
        ["failover", "depot-failure", "--size", "4M", "--routes", "3",
         "--redundancy", "duplicate-1", "--crash-at", "0.5"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 resume round-trip(s)" in out
    assert "complete" in out and "digest ok" in out


def test_bad_redundancy_rejected_at_parse_time():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["transfer", "case1", "--routes", "2", "--redundancy", "bogus"]
        )


def test_failover_sockets_rejects_routes(capsys):
    assert main(
        ["failover", "depot-failure", "--transport", "sockets",
         "--routes", "2"]
    ) == 2
    err = capsys.readouterr().err
    assert "transfer --transport sockets" in err


def test_commands_lists_every_subcommand():
    """``main`` looks a first word up as a figure only when it is no
    command, so ``COMMANDS`` must name every subcommand."""
    from repro.experiments.runner import COMMANDS

    assert "{" + ",".join(COMMANDS) + "}" in build_parser().format_usage()


def test_output_into_a_closed_pipe_ends_quietly():
    """``repro-lsl list | head -1``: the reader is gone before the
    output is flushed. The CLI exits 1 without a traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner", "list"],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write)
    assert proc.stderr == b""
    assert proc.returncode == 1
