"""Unit tests for configuration (Table I and middleware knobs)."""

import dataclasses
import pathlib
import re

import pytest

from repro.core import TABLE_I, MiddlewareConfig, WorkloadConfig


def test_table_i_defaults_match_paper():
    assert TABLE_I.pmin_ms == 150.0
    assert TABLE_I.pmax_ms == 250.0
    assert TABLE_I.bspan_ms == 5000.0
    assert TABLE_I.qrate_per_s == 2.0
    assert TABLE_I.qmin_ms == 20_000.0
    assert TABLE_I.qmax_ms == 100_000.0
    assert TABLE_I.nper_ms == 2_000.0


def test_table_i_formatting():
    rows = dict(TABLE_I.as_table())
    assert rows["PMIN"] == "150ms"
    assert rows["PMAX"] == "250ms"
    assert rows["BSPAN"] == "5000ms"
    assert rows["QRATE"] == "2q/sec"
    assert rows["QMIN"] == "20sec"
    assert rows["QMAX"] == "100sec"
    assert rows["NPER"] == "2sec"


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(pmin_ms=0)
    with pytest.raises(ValueError):
        WorkloadConfig(pmin_ms=200, pmax_ms=100)
    with pytest.raises(ValueError):
        WorkloadConfig(qmin_ms=50_000, qmax_ms=20_000)
    with pytest.raises(ValueError):
        WorkloadConfig(bspan_ms=-1)
    with pytest.raises(ValueError):
        WorkloadConfig(qrate_per_s=-0.1)


def test_middleware_defaults():
    cfg = MiddlewareConfig()
    assert cfg.m == 32
    assert cfg.hop_delay_ms == 50.0  # the paper's per-hop latency
    assert cfg.multicast == "sequential"
    assert cfg.query_radius == 0.1  # paper's default radius
    assert cfg.workload == TABLE_I


def test_middleware_validation():
    with pytest.raises(ValueError):
        MiddlewareConfig(multicast="diagonal")
    with pytest.raises(ValueError):
        MiddlewareConfig(normalization="median")
    with pytest.raises(ValueError):
        MiddlewareConfig(batch_size=0)
    with pytest.raises(ValueError):
        MiddlewareConfig(query_radius=0.0)
    with pytest.raises(ValueError):
        MiddlewareConfig(query_radius=3.0)
    with pytest.raises(ValueError):
        MiddlewareConfig(k=0)
    with pytest.raises(ValueError):
        MiddlewareConfig(k=128, window_size=128)
    with pytest.raises(ValueError):
        MiddlewareConfig(hop_delay_ms=-5.0)  # would fail at the first hop
    assert MiddlewareConfig(hop_delay_ms=0.0).hop_delay_ms == 0.0


def test_with_creates_modified_copy():
    base = MiddlewareConfig()
    mod = base.with_(query_radius=0.2, batch_size=5)
    assert mod.query_radius == 0.2
    assert mod.batch_size == 5
    assert base.query_radius == 0.1
    assert mod.m == base.m


def test_config_is_frozen():
    cfg = MiddlewareConfig()
    with pytest.raises(Exception):
        cfg.m = 16  # type: ignore[misc]


def _knob_rows(verdict=r"[^|]*"):
    """Field names in the first table of KNOBS.md (one row per knob).

    ``verdict`` (a regex) keeps only the rows whose verdict matches it.
    """
    text = (pathlib.Path(__file__).resolve().parents[2] / "KNOBS.md").read_text()
    section = text.split("\n## ")[1]
    row = rf"^\| `(\w+)` \|[^|]*\|[^|]*\| {verdict} \|"
    return re.findall(row, section, flags=re.MULTILINE)


def test_knobs_ledger_has_one_row_per_config_field():
    """A new config field must add its row (setters and verdict) to KNOBS.md."""
    rows = _knob_rows()
    assert len(rows) == len(set(rows)), "duplicate rows in KNOBS.md"
    fields = {f.name for f in dataclasses.fields(MiddlewareConfig)}
    fields |= {f.name for f in dataclasses.fields(WorkloadConfig)}
    assert set(rows) == fields


def test_knobs_ledger_has_no_unexercised_field():
    """A field that no caller outside the tests sets is a constant, not a knob."""
    assert _knob_rows(), "KNOBS.md config table not found"
    assert _knob_rows(r"\*unexercised\*") == []
