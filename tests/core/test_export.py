"""Tests for CSV export of bench results."""

import csv

import pytest

from repro.bench import run_to_csv, series_to_csv
from repro.bench.export import series_to_csv_string
from repro.core import MiddlewareConfig, WorkloadConfig
from repro.workload import run_measured


def test_series_to_csv_roundtrip(tmp_path):
    path = series_to_csv(
        tmp_path / "fig.csv",
        "N",
        [50, 100],
        {"MBRs": [1.0, 1.1], "Queries": [0.2, 0.3]},
    )
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["N", "MBRs", "Queries"]
    assert rows[1] == ["50", "1.0", "0.2"]
    assert rows[2] == ["100", "1.1", "0.3"]


def test_series_length_mismatch_rejected(tmp_path):
    with pytest.raises(ValueError):
        series_to_csv(tmp_path / "x.csv", "N", [1, 2], {"a": [1.0]})


def test_series_to_csv_string():
    text = series_to_csv_string("N", [1], {"a": [2.5]})
    assert text.splitlines()[0] == "N,a"
    assert text.splitlines()[1] == "1,2.5"


def test_run_to_csv(tmp_path):
    cfg = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=5_000.0,
            qrate_per_s=2.0,
            qmin_ms=2_000.0,
            qmax_ms=4_000.0,
            nper_ms=500.0,
        ),
    )
    run = run_measured(6, config=cfg, seed=1, measure_ms=2_000.0, warmup_extra_ms=500.0)
    path = run_to_csv(tmp_path / "run.csv", run)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["section", "metric", "value"]
    sections = {r[0] for r in rows[1:]}
    assert sections == {
        "meta",
        "load",
        "overhead",
        "hops",
        "latency_ms",
        "reliability",
        "replication",
        "load_balance",
    }
    meta = {r[1]: r[2] for r in rows if r[0] == "meta"}
    assert meta["n_nodes"] == "6"
    assert float(meta["total_load"]) > 0
    load_metrics = {r[1] for r in rows if r[0] == "load"}
    assert "MBRs in transit" in load_metrics


def test_stats_csv_covers_every_messagestats_counter():
    """Audit guard: a new MessageStats field must show up in the CSV dump.

    `stats_to_csv_string` is the byte-identity witness for the
    determinism regression tests; a counter added to MessageStats but
    not to the dump would silently escape that comparison.
    """
    from repro.bench.export import stats_to_csv_string
    from repro.sim.network import MessageStats

    stats = MessageStats()
    dumped = set()
    for line in stats_to_csv_string(stats).splitlines()[1:]:
        dumped.add(line.split(",", 1)[0])
    # every public data attribute of a fresh MessageStats is either a
    # counter (dumped under its own name) or scalar metadata (meta row)
    for name, value in vars(stats).items():
        if name.startswith("_"):
            continue
        expected = "meta" if isinstance(value, (int, float)) else name
        counter_names = {
            "sends", "receives", "sends_by_kind", "hops_by_kind",
            "latency_by_kind", "originations", "drops_per_kind",
            "duplicates_by_kind", "duplicates_suppressed",
            "retransmissions", "dead_letters", "reliable_sends",
            "reliable_acked", "reliable_cancelled", "unknown_payloads",
            "read_repairs", "handoffs_enqueued", "handoffs_drained",
            "publishes_shed", "backpressure_signals", "source_throttles",
        }
        assert expected == "meta" or expected in counter_names, (
            f"MessageStats.{name} is not covered by stats_to_csv_string; "
            "add it to the export (and to this list)"
        )


def test_export_all_exposes_string_variant():
    import repro.bench.export as export

    assert "series_to_csv_string" in export.__all__
