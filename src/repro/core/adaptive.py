"""Adaptive MBR precision setting (Sec. VI-A).

Grouping every ``w`` feature vectors into an MBR is data-independent:
when the stream's features drift quickly, the box becomes wide, spans
many nodes, and produces false-positive candidates; when they drift
slowly the box is needlessly tight and updates too frequent.  Sec. VI-A
proposes adapting the box boundaries in the spirit of Olston et al.'s
adaptive precision for cached approximate values.

:class:`AdaptiveMBRBatcher` implements that: alongside the count cap, a
**width limit** on the routing (first) coordinate closes a box early
when it grows past the limit, and the limit itself adapts to feedback
about how many nodes recent boxes spanned:

* spans above the target → the limit shrinks multiplicatively (narrower
  boxes, fewer replicas and false positives);
* spans at-or-below target while the count cap binds → the limit relaxes
  (bigger boxes, fewer messages).

Feedback needs an estimate of node density.  A Chord node can estimate
the system size from its own arc — ``N ≈ 2^m / (self - predecessor)``
— which :func:`estimate_system_size` provides, so no global knowledge
is assumed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..chord.node import ChordNode
from .mbr import MBR

__all__ = ["AdaptiveMBRBatcher", "estimate_system_size"]


def estimate_system_size(node: ChordNode) -> float:
    """Estimate N from this node's own arc length (a standard DHT trick).

    With uniformly hashed node identifiers the expected arc is
    ``2^m / N``, so the reciprocal of the local arc fraction estimates
    the system size.  A node without a predecessor assumes it is alone.
    """
    if node.predecessor is None or node.predecessor is node:
        return 1.0
    arc = (node.node_id - node.predecessor.node_id) % node.space.size
    if arc == 0:
        return 1.0
    return node.space.size / arc


class AdaptiveMBRBatcher:
    """MBR batching with an adaptive width cap on the routing coordinate.

    Drop-in replacement for :class:`~repro.core.mbr.MBRBatcher` (same
    ``add`` / ``flush`` / ``pending`` / ``emitted`` surface, one row per
    ``add``) plus a :meth:`feedback` hook the publisher calls with the
    number of nodes each emitted box spanned.

    Parameters
    ----------
    stream_id:
        The stream whose features are batched.
    batch_size:
        Upper bound on vectors per box (the Sec. IV-G ``w``).
    width_limit:
        Initial cap on ``high[0] - low[0]``.
    min_width / max_width:
        Clamp range for the adapted limit.
    target_span:
        Desired number of nodes a box's key range covers.
    shrink / grow:
        Multiplicative adaptation factors (shrink < 1 < grow).
    """

    def __init__(
        self,
        stream_id: str,
        batch_size: int,
        *,
        width_limit: float = 0.05,
        min_width: float = 1e-4,
        max_width: float = 1.0,
        target_span: float = 2.0,
        shrink: float = 0.7,
        grow: float = 1.1,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0 < min_width <= width_limit <= max_width):
            raise ValueError("need 0 < min_width <= width_limit <= max_width")
        if not (0 < shrink < 1 < grow):
            raise ValueError("need shrink < 1 < grow")
        self.stream_id = stream_id
        self.batch_size = batch_size
        self.width_limit = float(width_limit)
        self.min_width = float(min_width)
        self.max_width = float(max_width)
        self.target_span = float(target_span)
        self.shrink = float(shrink)
        self.grow = float(grow)
        self._current: Optional[MBR] = None
        self.emitted = 0
        #: True when the most recent emission was forced by the width cap
        self._last_emit_width_bound = False

    @property
    def pending(self) -> int:
        """Feature vectors absorbed into the open box."""
        return self._current.count if self._current is not None else 0

    def _width_if_extended(self, feature: np.ndarray) -> float:
        assert self._current is not None
        lo = min(float(self._current.low[0]), float(feature[0]))
        hi = max(float(self._current.high[0]), float(feature[0]))
        return hi - lo

    def add(self, feature: np.ndarray, now: float = 0.0) -> Optional[MBR]:
        """Absorb one vector; emit the box when count or width cap binds.

        ``feature`` is a ``(d,)`` vector or a one-row ``(1, d)`` block:
        the width cap may close a box at any row, so the stream source
        hands this batcher its features one row per call.

        When the width cap forces an early close, the closed box is
        returned and the *new* vector opens the next box — so no vector
        is ever dropped and boxes never exceed the cap.
        """
        feature = np.asarray(feature, dtype=np.float64)
        if feature.ndim == 2:
            if len(feature) != 1:
                raise ValueError("the adaptive batcher takes one row per call")
            feature = feature[0]
        if self._current is None:
            self._current = MBR.of_point(feature, stream_id=self.stream_id, created=now)
        elif self._width_if_extended(feature) > self.width_limit:
            done = self._current
            self._current = MBR.of_point(feature, stream_id=self.stream_id, created=now)
            self.emitted += 1
            self._last_emit_width_bound = True
            return done
        else:
            self._current.extend(feature)
        if self._current.count >= self.batch_size:
            done = self._current
            self._current = None
            self.emitted += 1
            self._last_emit_width_bound = False
            return done
        return None

    def flush(self) -> Optional[MBR]:
        """Emit the open box, if any."""
        done = self._current
        self._current = None
        if done is not None:
            self.emitted += 1
        return done

    def feedback(self, nodes_spanned: float) -> None:
        """Adapt the width limit from the span of the last emitted box."""
        if nodes_spanned > self.target_span:
            self.width_limit = max(self.min_width, self.width_limit * self.shrink)
        elif not self._last_emit_width_bound:
            # span fine and the count cap (not the width cap) closed the
            # box: room to relax toward fewer, bigger boxes
            self.width_limit = min(self.max_width, self.width_limit * self.grow)
