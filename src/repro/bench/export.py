"""CSV export of bench results, for external plotting.

The bench tables (``benchmarks/results/*.txt``) are human-readable; for
gnuplot/matplotlib post-processing, :func:`series_to_csv` writes the
same series in tidy wide format and :func:`run_to_csv` dumps one
measured run's full metric bundle.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Sequence, Union

__all__ = [
    "series_to_csv",
    "series_to_csv_string",
    "run_to_csv",
    "stats_to_csv_string",
]

PathLike = Union[str, Path]


def series_to_csv(
    path: PathLike,
    x_label: str,
    xs: Sequence,
    series: Dict[str, Sequence[float]],
) -> Path:
    """Write a figure's series as CSV: one row per x, one column per series.

    Returns the written path.

    Raises
    ------
    ValueError
        If any series' length differs from ``len(xs)``.
    """
    for name, values in series.items():
        if len(values) != len(xs):
            raise ValueError(
                f"series {name!r} has {len(values)} values for {len(xs)} x points"
            )
    path = Path(path)
    names = list(series)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_label] + names)
        for i, x in enumerate(xs):
            writer.writerow([x] + [series[name][i] for name in names])
    return path


def run_to_csv(path: PathLike, run) -> Path:
    """Dump one :class:`~repro.workload.scenario.MeasuredRun`'s metrics.

    Tidy long format: ``section,metric,value`` rows covering the load,
    overhead, hops and latency bundles plus run metadata.
    """
    path = Path(path)
    summary = run.metrics.summary()
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["section", "metric", "value"])
        writer.writerow(["meta", "n_nodes", run.system.n_nodes])
        writer.writerow(["meta", "measured_ms", run.measured_ms])
        writer.writerow(["meta", "queries_posted", run.queries_posted])
        writer.writerow(["meta", "total_load", summary["total_load"]])
        for section in (
            "load",
            "overhead",
            "hops",
            "latency_ms",
            "reliability",
            "replication",
            "load_balance",
        ):
            for metric, value in summary[section].items():
                writer.writerow([section, metric, value])
    return path


def stats_to_csv_string(stats) -> str:
    """Dump every :class:`~repro.sim.network.MessageStats` counter as CSV.

    Rows are ``counter,key,value`` with keys sorted, so two runs produce
    byte-identical output exactly when their message accounting is
    identical — the comparison the determinism regression test makes.
    Float values are written with ``repr`` (shortest exact form), so
    even latency sums must match bit-for-bit.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["counter", "key", "value"])

    counters = [
        ("sends", stats.sends),
        ("receives", stats.receives),
        ("sends_by_kind", stats.sends_by_kind),
        ("originations", stats.originations),
        ("drops_per_kind", stats.drops_per_kind),
        ("duplicates_by_kind", stats.duplicates_by_kind),
        ("duplicates_suppressed", stats.duplicates_suppressed),
        ("retransmissions", stats.retransmissions),
        ("dead_letters", stats.dead_letters),
        ("reliable_sends", stats.reliable_sends),
        ("reliable_acked", stats.reliable_acked),
        ("reliable_cancelled", stats.reliable_cancelled),
        ("unknown_payloads", stats.unknown_payloads),
        ("read_repairs", stats.read_repairs),
        ("handoffs_enqueued", stats.handoffs_enqueued),
        ("handoffs_drained", stats.handoffs_drained),
        ("publishes_shed", stats.publishes_shed),
        ("backpressure_signals", stats.backpressure_signals),
        ("source_throttles", stats.source_throttles),
    ]
    for name, counter in counters:
        for key in sorted(counter, key=repr):
            writer.writerow([name, repr(key), counter[key]])
    for name, table in (
        ("hops_by_kind", stats.hops_by_kind),
        ("latency_by_kind", stats.latency_by_kind),
    ):
        for kind in sorted(table):
            total, count = table[kind]
            writer.writerow([name, kind, f"{total!r}/{count!r}"])
    writer.writerow(["meta", "in_flight_at_reset", stats.in_flight_at_reset])
    return buf.getvalue()


def series_to_csv_string(x_label: str, xs, series) -> str:
    """Like :func:`series_to_csv` but returning the CSV text (for tests)."""
    buf = io.StringIO()
    names = list(series)
    writer = csv.writer(buf)
    writer.writerow([x_label] + names)
    for i, x in enumerate(xs):
        writer.writerow([x] + [series[name][i] for name in names])
    return buf.getvalue()
