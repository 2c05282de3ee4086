"""Query workload generation (Sec. V).

The paper's workload: "every query is issued by a random node. Queries
are generated synthetically by using a uniform distribution. Query
arrivals are modeled by Poisson processes with the average rate of 2
queries per second."

:class:`QueryWorkload` implements exactly that, with one practical
extension — a configurable *hit fraction*: that fraction of queries is
generated by perturbing the current window of a randomly chosen live
stream, guaranteeing that some queries actually have matches and the
detection/report/response pipeline is exercised end to end (a purely
uniform random pattern almost never matches anything at ε = 0.1).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.queries import SimilarityQuery
from ..core.system import StreamIndexSystem
from ..streams.generators import RandomWalkGenerator

__all__ = ["QueryWorkload"]


class QueryWorkload:
    """Poisson similarity-query arrivals posted at random nodes.

    Parameters
    ----------
    system:
        The deployment to post queries into.
    radius:
        Similarity radius ε; defaults to the system's configured radius.
    rate_per_s:
        Poisson arrival rate; defaults to Table I's QRATE.
    hit_fraction:
        Fraction of queries derived from a live stream's current window
        (see module docstring).
    noise:
        Relative perturbation applied to hit-query patterns.
    """

    def __init__(
        self,
        system: StreamIndexSystem,
        *,
        radius: Optional[float] = None,
        rate_per_s: Optional[float] = None,
        hit_fraction: float = 0.5,
        noise: float = 0.02,
    ) -> None:
        if not (0.0 <= hit_fraction <= 1.0):
            raise ValueError("hit_fraction must be in [0, 1]")
        self.system = system
        self.cfg = system.config
        self.radius = radius if radius is not None else self.cfg.query_radius
        self.rate_per_s = (
            rate_per_s if rate_per_s is not None else self.cfg.workload.qrate_per_s
        )
        self.hit_fraction = hit_fraction
        self.noise = noise
        self.rng = system.rngs.get("query-workload")
        self.posted_query_ids: List[int] = []
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> "QueryWorkload":
        """Begin the Poisson arrival process.  Returns ``self``."""
        if self.rate_per_s <= 0:
            return self
        self._running = True
        self._schedule_next()
        return self

    def stop(self) -> None:
        """Stop generating arrivals (already-posted queries keep running)."""
        self._running = False

    def _schedule_next(self) -> None:
        gap_ms = float(self.rng.exponential(1000.0 / self.rate_per_s))
        self.system.sim.schedule(gap_ms, self._arrival)

    def _arrival(self) -> None:
        if not self._running:
            return
        self.post_one()
        self._schedule_next()

    # ------------------------------------------------------------------
    def post_one(self) -> int:
        """Post a single query at a uniformly random node; returns its id."""
        app = self.system.app(int(self.rng.integers(self.system.n_nodes)))
        query = self.make_query()
        qid = app.post_similarity_query(query)
        self.posted_query_ids.append(qid)
        return qid

    def make_query(self) -> SimilarityQuery:
        """Generate one query's content (hit-derived or uniform random)."""
        wl = self.cfg.workload
        lifespan = float(self.rng.uniform(wl.qmin_ms, wl.qmax_ms))
        pattern = None
        if self.rng.random() < self.hit_fraction:
            pattern = self._pattern_from_live_stream()
        if pattern is None:
            pattern = self._random_pattern()
        return SimilarityQuery(
            pattern=pattern,
            radius=self.radius,
            lifespan_ms=lifespan,
            normalization=self.cfg.normalization,
        )

    def _pattern_from_live_stream(self) -> Optional[np.ndarray]:
        """The current window of a random live stream, mildly perturbed."""
        n = self.system.n_nodes
        start = int(self.rng.integers(n))
        for offset in range(n):
            app = self.system.app((start + offset) % n)
            for src in app.sources.values():
                if src.extractor.ready:
                    window = src.extractor.window.values()
                    scale = float(np.std(window)) or 1.0
                    return window + self.rng.normal(
                        0.0, self.noise * scale, size=len(window)
                    )
        return None  # no stream has a full window yet

    def _random_pattern(self) -> np.ndarray:
        """A fresh random-walk window (the paper's uniform synthetic query)."""
        gen = RandomWalkGenerator(
            self.rng, step=1.0, low=0.0, high=100.0, start=float(self.rng.uniform(0, 100))
        )
        return gen.series(self.cfg.window_size)
