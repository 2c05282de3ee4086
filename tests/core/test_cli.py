"""Tests for the ``repro`` command-line interface."""

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_no_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_errors():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_parser_lists_all_commands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    commands = set(sub.choices)
    assert commands == {
        "table1",
        "demo",
        "load",
        "overhead",
        "hops",
        "distribution",
        "baselines",
        "ring-stats",
        "lossy",
        "lint",
        "protocol",
        "flow",
        "node",
        "client",
    }


def test_protocol_table_reflects_live_registry():
    code, text = run_cli("protocol")
    assert code == 0
    # one row per registered payload, naming the handling role service
    assert "MbrPublish" in text
    assert "IndexHolderService.on_mbr" in text
    assert "AggregatorService.on_similarity_report" in text
    # runtime-terminal payloads are attributed to the dispatch layer
    assert "NodeRuntime.deliver" in text


def test_table1_output():
    code, text = run_cli("table1")
    assert code == 0
    for token in ("PMIN", "150ms", "QRATE", "2q/sec", "NPER", "2sec"):
        assert token in text


def test_demo_small():
    code, text = run_cli(
        "demo", "--nodes", "8", "--duration", "4", "--radius", "0.3", "--seed", "5"
    )
    assert code == 0
    assert "matching stream(s)" in text
    assert "messages:" in text


def test_load_command():
    code, text = run_cli(
        "load", "--nodes", "8", "--measure", "2", "--batch", "2"
    )
    assert code == 0
    assert "Fig. 6(a)" in text
    assert "MBRs in transit" in text


def test_overhead_command():
    code, text = run_cli(
        "overhead", "--nodes", "8", "--measure", "2", "--radius", "0.2"
    )
    assert code == 0
    assert "radius 0.2" in text
    assert "Query messages" in text


def test_hops_command():
    code, text = run_cli("hops", "--nodes", "8", "--measure", "2")
    assert code == 0
    assert "hops" in text
    assert "Internal query messages" in text


def test_distribution_command():
    code, text = run_cli("distribution", "--nodes", "10", "--measure", "2")
    assert code == 0
    assert "Fig. 6(b)" in text
    assert "mean=" in text


def test_baselines_command():
    code, text = run_cli("baselines", "--nodes", "10", "--measure", "3")
    assert code == 0
    for arch in ("distributed", "centralized", "flooding"):
        assert arch in text
