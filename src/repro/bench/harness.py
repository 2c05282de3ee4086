"""Experiment harness: node-count sweeps with shared result caching.

Every evaluation figure is a sweep over the system size N with the
Table I workload; several figures read different projections of the
*same* runs (Fig. 6(a) load, Fig. 7(a) overhead, Fig. 8 hops).  The
:class:`SweepCache` makes those runs once per (N, radius, config) and
hands each bench its projection, so the full benchmark suite stays
affordable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import MiddlewareConfig
from ..workload.scenario import MeasuredRun, run_measured

__all__ = ["SweepCache", "PAPER_NODE_COUNTS", "DEFAULT_MEASURE_MS"]

#: the node counts of the paper's scalability experiments (Sec. V)
PAPER_NODE_COUNTS = (50, 100, 200, 300, 500)

DEFAULT_MEASURE_MS = 15_000.0
DEFAULT_WARMUP_EXTRA_MS = 5_000.0


class SweepCache:
    """Caches :class:`MeasuredRun` results keyed by experiment settings."""

    def __init__(
        self,
        *,
        config: Optional[MiddlewareConfig] = None,
        seed: int = 0,
        measure_ms: float = DEFAULT_MEASURE_MS,
        warmup_extra_ms: float = DEFAULT_WARMUP_EXTRA_MS,
        hit_fraction: float = 0.5,
    ) -> None:
        self.config = config if config is not None else MiddlewareConfig()
        self.seed = seed
        self.measure_ms = measure_ms
        self.warmup_extra_ms = warmup_extra_ms
        self.hit_fraction = hit_fraction
        self._runs: Dict[Tuple[int, float], MeasuredRun] = {}

    def run(self, n_nodes: int, *, radius: Optional[float] = None) -> MeasuredRun:
        """The measured run for (N, radius), computed once."""
        r = radius if radius is not None else self.config.query_radius
        key = (n_nodes, r)
        if key not in self._runs:
            self._runs[key] = run_measured(
                n_nodes,
                config=self.config,
                seed=self.seed,
                radius=r,
                hit_fraction=self.hit_fraction,
                warmup_extra_ms=self.warmup_extra_ms,
                measure_ms=self.measure_ms,
            )
        return self._runs[key]

    # ------------------------------------------------------------------
    # figure projections
    # ------------------------------------------------------------------
    def load_series(
        self, node_counts: Iterable[int], *, radius: Optional[float] = None
    ) -> Dict[str, List[float]]:
        """Fig. 6(a): load components across the N sweep."""
        series: Dict[str, List[float]] = {}
        for n in node_counts:
            load = self.run(n, radius=radius).metrics.load_components()
            for name, value in load.items():
                series.setdefault(name, []).append(value)
        return series

    def overhead_series(
        self, node_counts: Iterable[int], *, radius: Optional[float] = None
    ) -> Dict[str, List[float]]:
        """Fig. 7: overhead components across the N sweep."""
        series: Dict[str, List[float]] = {}
        for n in node_counts:
            over = self.run(n, radius=radius).metrics.overhead_components()
            for name, value in over.items():
                series.setdefault(name, []).append(value)
        return series

    def hop_series(
        self, node_counts: Iterable[int], *, radius: Optional[float] = None
    ) -> Dict[str, List[float]]:
        """Fig. 8: hop components across the N sweep."""
        series: Dict[str, List[float]] = {}
        for n in node_counts:
            hops = self.run(n, radius=radius).metrics.hop_components()
            for name, value in hops.items():
                series.setdefault(name, []).append(value)
        return series
