"""Query model (Sec. III-B): inner-product and similarity queries.

Continuous queries are posed once and run for a *lifespan*.  Two
families:

* **Inner-product** queries — a quadruple ``(sid, V, W, T)``: stream
  identifier, index vector (which window positions), weight vector, and
  lifespan.  Point and range queries are special cases.
* **Similarity** queries — a triple ``(Q, epsilon, T)``: query sequence,
  distance threshold, lifespan.  Correlation queries use z-normalized
  distance; subsequence (pattern) queries use unit-normalized distance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..streams.features import extract_feature_vector
from ..streams.normalize import correlation_to_distance

__all__ = [
    "InnerProductQuery",
    "SimilarityQuery",
    "SimilarityMatch",
    "InnerProductResult",
    "point_query",
    "range_query",
    "correlation_query",
]

_query_ids = itertools.count(1)


def _next_query_id() -> int:
    return next(_query_ids)


@dataclass(frozen=True)
class InnerProductQuery:
    """A continuous weighted inner product over one stream's window.

    Attributes
    ----------
    stream_id:
        Which stream to evaluate against.
    index_vector:
        Window positions of interest (0 = oldest element of the window).
    weight_vector:
        Per-position weights; same length as ``index_vector``.
    lifespan_ms:
        How long the subscription stays active.
    query_id:
        Unique identifier, auto-assigned.
    """

    stream_id: str
    index_vector: np.ndarray
    weight_vector: np.ndarray
    lifespan_ms: float
    query_id: int = field(default_factory=_next_query_id)

    def __post_init__(self) -> None:
        iv = np.asarray(self.index_vector, dtype=np.int64)
        wv = np.asarray(self.weight_vector, dtype=np.float64)
        if iv.shape != wv.shape:
            raise ValueError("index and weight vectors must have equal length")
        if iv.size == 0:
            raise ValueError("inner product query must reference >= 1 position")
        if (iv < 0).any():
            raise ValueError("index vector entries must be non-negative")
        object.__setattr__(self, "index_vector", iv)
        object.__setattr__(self, "weight_vector", wv)
        if self.lifespan_ms <= 0:
            raise ValueError("lifespan must be positive")

    def evaluate(self, window: np.ndarray) -> float:
        """The exact inner product against a raw window (ground truth)."""
        window = np.asarray(window, dtype=np.float64)
        if int(self.index_vector.max()) >= len(window):
            raise ValueError("index vector exceeds window length")
        return float(np.dot(self.weight_vector, window[self.index_vector]))


@dataclass(frozen=True)
class SimilarityQuery:
    """A continuous similarity (range) query over *all* streams.

    Attributes
    ----------
    pattern:
        The query sequence ``Q`` (raw values, one window length).
    radius:
        Similarity threshold ε on the normalized Euclidean distance.
    lifespan_ms:
        Subscription lifetime.
    normalization:
        ``"z"`` for correlation semantics, ``"unit"`` for subsequence.
    consistency:
        Read mode under replication (DESIGN.md §10): ``""`` inherits
        the configured default, ``"eventual"`` releases the first
        answer, ``"quorum"`` waits for ⌈(r+1)/2⌉ agreeing replicas.
    """

    pattern: np.ndarray
    radius: float
    lifespan_ms: float
    normalization: str = "z"
    consistency: str = ""
    query_id: int = field(default_factory=_next_query_id)

    def __post_init__(self) -> None:
        p = np.asarray(self.pattern, dtype=np.float64)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("pattern must be a 1-D sequence of length >= 2")
        object.__setattr__(self, "pattern", p)
        if not (0.0 < self.radius <= 2.0):
            raise ValueError("radius must be in (0, 2]")
        if self.lifespan_ms <= 0:
            raise ValueError("lifespan must be positive")
        if self.normalization not in ("z", "unit", "none"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.consistency not in ("", "eventual", "quorum"):
            raise ValueError(f"unknown consistency mode {self.consistency!r}")

    def feature_vector(self, k: int) -> np.ndarray:
        """Extract the query's feature vector with ``k`` coefficients."""
        return extract_feature_vector(self.pattern, k, mode=self.normalization)

    def value_interval(self, k: int) -> Tuple[float, float]:
        """The first-coordinate interval ``[q1 - ε, q1 + ε]`` of Eq. 8."""
        q1 = float(self.feature_vector(k)[0])
        return q1 - self.radius, q1 + self.radius


@dataclass(frozen=True)
class SimilarityMatch:
    """A candidate reported for a similarity query.

    ``distance_bound`` is the feature-space (lower-bound) distance at
    the reporting node; exact verification against raw windows can be
    done at the client or source if required.  ``reported_by`` is the
    node id of the aggregator that pushed the match to the client.
    """

    query_id: int
    stream_id: str
    distance_bound: float
    reported_by: int
    time: float


@dataclass(frozen=True)
class InnerProductResult:
    """One periodic evaluation of an inner-product subscription."""

    query_id: int
    stream_id: str
    value: float
    time: float


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------
def point_query(stream_id: str, position: int, lifespan_ms: float) -> InnerProductQuery:
    """A point query ("value at window position p") as an inner product."""
    return InnerProductQuery(
        stream_id=stream_id,
        index_vector=np.array([position]),
        weight_vector=np.array([1.0]),
        lifespan_ms=lifespan_ms,
    )


def range_query(
    stream_id: str, start: int, stop: int, lifespan_ms: float, *, average: bool = True
) -> InnerProductQuery:
    """A range (sum or average over positions ``[start, stop)``) query."""
    if stop <= start:
        raise ValueError("need stop > start")
    idx = np.arange(start, stop)
    w = np.full(idx.shape, 1.0 / len(idx) if average else 1.0)
    return InnerProductQuery(
        stream_id=stream_id, index_vector=idx, weight_vector=w, lifespan_ms=lifespan_ms
    )


def correlation_query(
    pattern: np.ndarray,
    min_correlation: float,
    lifespan_ms: float,
    query_id: Optional[int] = None,
) -> SimilarityQuery:
    """Build a similarity query matching streams whose correlation with
    ``pattern`` is at least ``min_correlation`` (StatStream reduction)."""
    radius = correlation_to_distance(min_correlation)
    if radius <= 0.0:
        radius = 1e-6  # corr == 1.0: degenerate but valid ball
    kwargs = dict(
        pattern=np.asarray(pattern, dtype=np.float64),
        radius=min(radius, 2.0),
        lifespan_ms=lifespan_ms,
        normalization="z",
    )
    if query_id is not None:
        kwargs["query_id"] = query_id
    return SimilarityQuery(**kwargs)
