"""Minimum bounding rectangles over feature vectors (Sec. IV-G, Eq. 10).

Consecutive feature vectors of one stream are strongly correlated (the
window slides by one value at a time), so instead of routing every
vector individually, the stream source groups every ``w`` of them into
an MBR — the axis-aligned box spanning them — and routes the MBR once.
This cuts update bandwidth by ~``w`` at the cost of coarser (but still
no-false-dismissal) similarity candidates.

The source hands the batcher all ``w`` vectors of a box at once, as one
``(w, d)`` block, so a box's bounds are one min/max reduce over the
block rather than ``w`` element-wise updates.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["MBR", "MBRBatcher"]


#: longest block whose box is folded row by row: two reduces cost more
#: than a few elementwise updates (about 7 µs against 2 per row, d = 5)
_FOLD_MAX_ROWS = 3


def _span(block: np.ndarray, out: np.ndarray) -> None:
    """Write the rows' ``[min, max]`` of a ``(b, d)`` block into ``out``.

    Bit for bit what folding ``np.minimum``/``np.maximum`` over the rows
    in order gives.  A min or max is exact, so a reduce agrees with the
    fold on every bound but a zero one: ``-0.0 == 0.0``, and which of
    the two a reduce keeps depends on its order.  A long block is
    therefore reduced, and folded only when a bound is zero.
    """
    if len(block) > _FOLD_MAX_ROWS:
        np.minimum.reduce(block, axis=0, out=out[0])
        np.maximum.reduce(block, axis=0, out=out[1])
        if out.all():
            return
    out[...] = block[0]
    if len(block) > 1:
        low, high = out
        for row in block[1:]:
            np.minimum(low, row, out=low)
            np.maximum(high, row, out=high)


class MBR:
    """An axis-aligned bounding box in feature space.

    Attributes
    ----------
    low, high:
        Per-dimension bounds; ``low[i] <= high[i]`` for every ``i``
        (Eq. 10).
    stream_id:
        The stream whose summaries this box covers.
    count:
        Number of feature vectors absorbed.
    created:
        Simulated time of the first vector (for lifespan bookkeeping).

    Both bounds live in one ``(2, d)`` array (``low``/``high`` are
    views of its rows): a standalone d=5 float64 array costs ~180 B
    resident, and with ~150 k boxes live at N = 5000 the second array
    per box was a double-digit-MB line item (PERFORMANCE.md §11).
    In-place updates through the views (``out=self.low``) write through
    to the shared buffer, so ``extend`` behaves exactly as before.
    """

    __slots__ = ("_bounds", "stream_id", "count", "created")

    def __init__(
        self,
        low: np.ndarray,
        high: np.ndarray,
        stream_id: str = "",
        count: int = 0,
        created: float = 0.0,
    ) -> None:
        low = np.asarray(low, dtype=np.float64)
        high = np.asarray(high, dtype=np.float64)
        if low.shape != high.shape:
            raise ValueError("low/high shape mismatch")
        if (low > high + 1e-12).any():
            raise ValueError("MBR requires low <= high in every dimension")
        bounds = np.empty((2,) + low.shape, dtype=np.float64)
        bounds[0] = low
        bounds[1] = high
        self._bounds = bounds
        self.stream_id = stream_id
        self.count = count
        self.created = created

    @property
    def bounds(self) -> np.ndarray:
        """The ``(2, d)`` array ``[low, high]`` itself (writes go through)."""
        return self._bounds

    @property
    def low(self) -> np.ndarray:
        """Per-dimension lower bounds (a view; writes go through)."""
        return self._bounds[0]

    @property
    def high(self) -> np.ndarray:
        """Per-dimension upper bounds (a view; writes go through)."""
        return self._bounds[1]

    def __repr__(self) -> str:
        return (
            f"MBR(low={self.low!r}, high={self.high!r}, "
            f"stream_id={self.stream_id!r}, count={self.count}, "
            f"created={self.created})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return (
            self.stream_id == other.stream_id
            and self.count == other.count
            and self.created == other.created
            and self._bounds.shape == other._bounds.shape
            and bool(np.array_equal(self._bounds, other._bounds))
        )

    __hash__ = None  # type: ignore[assignment]  # mutable, like the old dataclass

    @classmethod
    def of_point(cls, point: np.ndarray, stream_id: str = "", created: float = 0.0) -> "MBR":
        """A degenerate MBR covering a single feature vector."""
        p = np.asarray(point, dtype=np.float64)
        return cls(low=p, high=p, stream_id=stream_id, count=1, created=created)

    @classmethod
    def from_bounds(
        cls,
        bounds: np.ndarray,
        stream_id: str = "",
        count: int = 0,
        created: float = 0.0,
    ) -> "MBR":
        """Adopt a ``(2, d)`` float64 array as ``[low, high]``, uncopied.

        For a caller that already holds a private bounds array (the wire
        decoder): the same ``low <= high`` check as the constructor, in
        the same float64 arithmetic, without its two row copies.  The
        check runs on Python floats, which beats four numpy calls at the
        handful of dimensions a feature vector has.  The array must be
        C-contiguous, as every box's bounds are: the index stacks rows
        by their raw bytes.
        """
        if (
            bounds.dtype != np.float64
            or bounds.ndim != 2
            or bounds.shape[0] != 2
            or not bounds.flags.c_contiguous
        ):
            raise ValueError("bounds must be a C-contiguous (2, d) float64 array")
        low, high = bounds.tolist()
        for lo, hi in zip(low, high):
            if lo > hi + 1e-12:
                raise ValueError("MBR requires low <= high in every dimension")
        box = cls.__new__(cls)
        box._bounds = bounds
        box.stream_id = stream_id
        box.count = count
        box.created = created
        return box

    @property
    def dimensions(self) -> int:
        """Dimensionality of the feature space."""
        return len(self.low)

    @property
    def first_coordinate_interval(self) -> tuple:
        """``(low[0], high[0])`` — the interval hashed onto the ring."""
        return float(self.low[0]), float(self.high[0])

    @classmethod
    def of_block(cls, block: np.ndarray, stream_id: str = "", created: float = 0.0) -> "MBR":
        """The box spanning the rows of a ``(b, d)`` float64 block."""
        box = cls.__new__(cls)
        box._bounds = np.empty((2, block.shape[1]), dtype=np.float64)
        _span(block, box._bounds)
        box.stream_id = stream_id
        box.count = len(block)
        box.created = created
        return box

    def extend(self, points: np.ndarray) -> None:
        """Grow the box to cover one point ``(d,)`` or a ``(b, d)`` block."""
        p = np.asarray(points, dtype=np.float64)
        if p.shape[-1:] != self.low.shape or p.ndim > 2:
            raise ValueError("point dimensionality mismatch")
        if p.ndim == 2:
            span = np.empty((2,) + self.low.shape, dtype=np.float64)
            _span(p, span)
            low, high, count = span[0], span[1], len(p)
        else:
            low = high = p
            count = 1
        np.minimum(self.low, low, out=self.low)
        np.maximum(self.high, high, out=self.high)
        self.count += count

    def contains(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside the box (inclusive)."""
        p = np.asarray(point, dtype=np.float64)
        return bool((p >= self.low - 1e-12).all() and (p <= self.high + 1e-12).all())

    def mindist(self, point: np.ndarray) -> float:
        """Minimum Euclidean distance from ``point`` to the box.

        Zero when the point is inside.  Because MINDIST lower-bounds the
        distance to every feature vector the box covers — which in turn
        lower-bounds the distance between the underlying normalized
        windows — pruning with ``mindist > ε`` never causes false
        dismissals.
        """
        p = np.asarray(point, dtype=np.float64)
        d = np.maximum(self.low - p, 0.0) + np.maximum(p - self.high, 0.0)
        # sqrt(dot(d, d)) is exactly what np.linalg.norm computes for a
        # real 1-D vector, minus the dispatch overhead — bit-identical.
        return float(np.sqrt(np.dot(d, d)))

    def intersects_ball(self, center: np.ndarray, radius: float) -> bool:
        """Whether the ε-ball around ``center`` touches the box."""
        return self.mindist(center) <= radius + 1e-12

    def volume(self) -> float:
        """Box volume (0 for degenerate boxes); used by adaptive precision."""
        return float(np.prod(self.high - self.low))

    def margin(self) -> float:
        """Sum of side lengths — a robust size measure for flat boxes."""
        return float(np.sum(self.high - self.low))


class MBRBatcher:
    """Groups every ``w`` consecutive feature vectors into one MBR.

    One batcher per stream at its source data center.  ``add`` takes a
    block of consecutive vectors and returns the completed MBR once
    ``w`` have arrived, ``None`` otherwise.
    """

    def __init__(self, stream_id: str, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.stream_id = stream_id
        self.batch_size = batch_size
        self._current: Optional[MBR] = None
        self.emitted = 0

    def add(self, block: np.ndarray, now: float = 0.0) -> Optional[MBR]:
        """Absorb a block of vectors; return a finished MBR when full.

        ``block`` is ``(b, d)``, ``b`` at most the rows the open box
        still lacks (a single ``(d,)`` vector counts as ``b = 1``);
        ``now`` is the time of its first row, which becomes the box's
        ``created`` when the block opens it.  The stream source passes
        each box's ``w`` rows as one block.
        """
        block = np.asarray(block, dtype=np.float64)
        if block.ndim == 1:
            block = block[None]
        if len(block) > self.batch_size - self.pending:
            raise ValueError("block overfills the open MBR")
        if self._current is None:
            self._current = MBR.of_block(block, stream_id=self.stream_id, created=now)
        else:
            self._current.extend(block)
        if self._current.count >= self.batch_size:
            done = self._current
            self._current = None
            self.emitted += 1
            return done
        return None

    def flush(self) -> Optional[MBR]:
        """Emit the partially filled MBR, if any (e.g. at shutdown)."""
        done = self._current
        self._current = None
        if done is not None:
            self.emitted += 1
        return done

    @property
    def pending(self) -> int:
        """Feature vectors absorbed into the not-yet-emitted box."""
        return self._current.count if self._current is not None else 0
