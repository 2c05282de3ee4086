"""Benchmark harness: sweeps, caching, and paper-style reporting."""

from .harness import DEFAULT_MEASURE_MS, PAPER_NODE_COUNTS, SweepCache
from .report import format_histogram, format_series, format_table

__all__ = [
    "DEFAULT_MEASURE_MS",
    "PAPER_NODE_COUNTS",
    "SweepCache",
    "format_histogram",
    "format_series",
    "format_table",
]
