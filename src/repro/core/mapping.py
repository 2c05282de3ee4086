"""Mapping stream summaries to Chord keys (Sec. IV-B, Eq. 6).

The heart of content-based routing of summaries: the first feature
component ``v`` (real part of ``X_1`` for z-normalized streams) lies in
``[-1, 1]``; Eq. 6 scales that interval linearly onto the identifier
circle::

    key(v) = floor((v + 1) / 2 * 2**m)   (clamped to 2**m - 1)

so that numerically close summaries map to the same node or to ring
neighbors — "put" and "get" of similar content meet each other.

The paper assumes the feature value is uniformly distributed and leaves
"adaptively changing the mapping function for various distributions" as
future work; :class:`QuantileKeyMapper` implements that extension — an
equi-depth mapping built from a sample of observed feature values, which
restores uniform load when the value distribution is skewed.

:class:`AdaptiveQuantileMapper` is the epoch-versioned form: starting
from the Eq. 6 linear map, :meth:`AdaptiveQuantileMapper.refit` installs
an equi-depth mapping fitted to a density histogram as a new **epoch**,
and a bounded window of past epochs stays resolvable
(:meth:`AdaptiveQuantileMapper.mapper_at`).  No system path refits it
(DESIGN.md §13); it is kept as a unit-tested drop-in ``mapper=`` for
:class:`~repro.core.system.StreamIndexSystem`.  Monotonicity is
preserved at every epoch, so range queries always translate to
contiguous key ranges and the paper's no-false-dismissal guarantee
(Sec. IV-D) holds under any of them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chord.idspace import IdSpace

__all__ = [
    "LinearKeyMapper",
    "QuantileKeyMapper",
    "AdaptiveQuantileMapper",
    "paper_example_key",
]


class LinearKeyMapper:
    """The paper's Eq. 6: linear map from ``[vmin, vmax]`` to the key circle.

    Parameters
    ----------
    space:
        The Chord identifier space.
    vmin, vmax:
        The feature-value range; the paper uses ``[-1, 1]`` (all
        normalized summaries satisfy it).  Values outside are clamped —
        they can arise only from numerical noise.
    """

    def __init__(self, space: IdSpace, vmin: float = -1.0, vmax: float = 1.0) -> None:
        if vmax <= vmin:
            raise ValueError(f"need vmax > vmin, got [{vmin}, {vmax}]")
        self.space = space
        self.vmin = float(vmin)
        self.vmax = float(vmax)

    def key_of(self, value: float) -> int:
        """The Chord key of one feature value."""
        v = min(max(float(value), self.vmin), self.vmax)
        frac = (v - self.vmin) / (self.vmax - self.vmin)
        key = int(np.floor(frac * self.space.size))
        return min(key, self.space.size - 1)

    def key_range(self, low_value: float, high_value: float) -> Tuple[int, int]:
        """Keys of a value interval ``[low, high]`` (for queries and MBRs).

        Raises
        ------
        ValueError
            If ``low_value > high_value`` — value intervals never wrap.
        """
        if low_value > high_value:
            raise ValueError(f"need low <= high, got [{low_value}, {high_value}]")
        return self.key_of(low_value), self.key_of(high_value)

    def value_of(self, key: int) -> float:
        """Approximate inverse: the low edge of the value bucket of ``key``."""
        key %= self.space.size
        return self.vmin + (key / self.space.size) * (self.vmax - self.vmin)


class QuantileKeyMapper:
    """Equi-depth (CDF-based) mapping — the Sec. IV-B future-work extension.

    Built from a sample of observed feature values: the empirical CDF is
    applied before the linear scaling, so *any* value distribution maps
    to (approximately) uniform keys and storage load balances across
    nodes even when summaries cluster (as z-normalized features do
    around 0).

    Monotonicity is preserved, so range queries still translate to
    contiguous key ranges and the no-false-dismissal guarantee is
    unaffected.
    """

    def __init__(self, space: IdSpace, sample: Sequence[float], n_bins: int = 1024) -> None:
        sample_arr = np.asarray(sample, dtype=np.float64)
        if sample_arr.size < 2:
            raise ValueError("need at least 2 sample values to build quantiles")
        if n_bins < 2:
            raise ValueError("need at least 2 bins")
        self.space = space
        qs = np.linspace(0.0, 1.0, n_bins + 1)
        self._edges = np.quantile(sample_arr, qs)
        # Enforce strict monotonicity for searchsorted / interp stability.
        self._edges = np.maximum.accumulate(self._edges)
        self._n_bins = n_bins

    @classmethod
    def from_edges(
        cls, space: IdSpace, edges: Sequence[float]
    ) -> "QuantileKeyMapper":
        """Build a mapper directly from precomputed quantile edges.

        ``edges[i]`` is the value whose CDF is ``i / (len(edges) - 1)``;
        :meth:`AdaptiveQuantileMapper.refit` derives them from a density
        histogram instead of a raw value sample.
        """
        arr = np.asarray(edges, dtype=np.float64)
        if arr.size < 3:
            raise ValueError("need at least 3 edge values")
        mapper = cls.__new__(cls)
        mapper.space = space
        mapper._edges = np.maximum.accumulate(arr)
        mapper._n_bins = arr.size - 1
        return mapper

    def key_of(self, value: float) -> int:
        """The Chord key of one feature value under the empirical CDF."""
        v = float(value)
        edges = self._edges
        if v <= edges[0]:
            frac = 0.0
        elif v >= edges[-1]:
            frac = 1.0
        else:
            frac = float(np.interp(v, edges, np.linspace(0.0, 1.0, len(edges))))
        key = int(np.floor(frac * self.space.size))
        return min(key, self.space.size - 1)

    def key_range(self, low_value: float, high_value: float) -> Tuple[int, int]:
        """Keys of a value interval (monotone, so ranges stay contiguous)."""
        if low_value > high_value:
            raise ValueError(f"need low <= high, got [{low_value}, {high_value}]")
        return self.key_of(low_value), self.key_of(high_value)


class AdaptiveQuantileMapper:
    """Epoch-versioned quantile re-fitter (DESIGN.md §13).

    Epoch 0 is exactly the paper's Eq. 6 linear map, so a system built
    with this mapper behaves identically to a static one until a refit.
    :meth:`refit` consumes a value-density histogram, inverts its CDF
    into equi-depth quantile edges, and installs the resulting
    :class:`QuantileKeyMapper` as a *new epoch* — the previous
    ``history`` epochs stay resolvable through :meth:`mapper_at` so
    state placed under them can still be checked against the mapping
    it was routed by.

    The un-suffixed ``key_of`` / ``key_range`` / ``value_of`` methods
    delegate to the current epoch, making this a drop-in
    ``system.mapper``: sources and clients always route under the
    newest mapping, and the keys they embed in payloads keep every
    in-flight message self-consistent across a concurrent epoch bump.
    """

    def __init__(
        self,
        space: IdSpace,
        *,
        bins: int = 64,
        vmin: float = -1.0,
        vmax: float = 1.0,
        history: int = 4,
        smoothing: float = 1.0,
    ) -> None:
        if history < 1:
            raise ValueError("history must be >= 1")
        self.space = space
        self.bins = bins
        self.vmin = float(vmin)
        self.vmax = float(vmax)
        self.history = history
        #: Laplace-style mass added to every bin before inverting the
        #: CDF: keeps never-observed value regions mapped to non-empty
        #: key intervals (a query there must still route somewhere).
        self.smoothing = float(smoothing)
        self.epoch = 0
        self._epochs: "OrderedDict[int, object]" = OrderedDict(
            {0: LinearKeyMapper(space, vmin, vmax)}
        )

    # ------------------------------------------------------------------
    # epoch access
    # ------------------------------------------------------------------
    @property
    def current(self):
        """The mapper of the newest epoch."""
        return self._epochs[self.epoch]

    def mapper_at(self, epoch: int):
        """The mapper of a (retained) past epoch.

        Epochs older than the retained window resolve to the oldest
        retained mapper.
        """
        if epoch in self._epochs:
            return self._epochs[epoch]
        oldest = next(iter(self._epochs))
        return self._epochs[oldest]

    def mappers(self) -> List:
        """All retained epoch mappers, oldest first (for placement checks)."""
        return list(self._epochs.values())

    # ------------------------------------------------------------------
    # refitting
    # ------------------------------------------------------------------
    def refit(self, counts: Sequence[float]) -> int:
        """Install a new epoch fitted to a merged density histogram.

        ``counts[i]`` is the observed mass of value bin ``i`` over
        ``[vmin, vmax]``.  The inverse of the (smoothed) empirical CDF,
        evaluated at uniform quantiles, becomes the new equi-depth edge
        set: key space is divided so each node-sized key interval
        receives roughly equal observed mass.  Returns the new epoch.
        """
        arr = np.asarray(counts, dtype=np.float64)
        if arr.size != self.bins:
            raise ValueError(f"expected {self.bins} bins, got {arr.size}")
        if np.any(arr < 0):
            raise ValueError("histogram counts must be non-negative")
        arr = arr + self.smoothing
        cdf = np.concatenate(([0.0], np.cumsum(arr)))
        cdf /= cdf[-1]
        value_edges = np.linspace(self.vmin, self.vmax, self.bins + 1)
        qs = np.linspace(0.0, 1.0, self.bins + 1)
        edges = np.interp(qs, cdf, value_edges)
        mapper = QuantileKeyMapper.from_edges(self.space, edges)
        self.epoch += 1
        self._epochs[self.epoch] = mapper
        while len(self._epochs) > self.history:
            self._epochs.popitem(last=False)
        return self.epoch

    # ------------------------------------------------------------------
    # drop-in mapper interface (delegates to the current epoch)
    # ------------------------------------------------------------------
    def key_of(self, value: float, epoch: Optional[int] = None) -> int:
        """The Chord key of a feature value (under ``epoch`` if given)."""
        mapper = self.current if epoch is None else self.mapper_at(epoch)
        return mapper.key_of(value)

    def key_range(
        self,
        low_value: float,
        high_value: float,
        epoch: Optional[int] = None,
    ) -> Tuple[int, int]:
        """Keys of a value interval (under ``epoch`` if given)."""
        mapper = self.current if epoch is None else self.mapper_at(epoch)
        return mapper.key_range(low_value, high_value)

    def value_of(self, key: int) -> float:
        """Approximate inverse under the current epoch (where available)."""
        mapper = self.current
        if hasattr(mapper, "value_of"):
            return mapper.value_of(key)
        # QuantileKeyMapper epochs: invert the edge interpolation.
        key %= self.space.size
        frac = key / self.space.size
        edges = mapper._edges
        return float(np.interp(frac, np.linspace(0.0, 1.0, len(edges)), edges))


def paper_example_key(value: float = 0.40, m: int = 5) -> int:
    """The worked example of Sec. IV-B: ``v = 0.40``, ``m = 5`` → key 22.

    Kept as a executable cross-check against the paper's arithmetic.
    """
    return LinearKeyMapper(IdSpace(m)).key_of(value)
