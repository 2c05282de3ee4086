"""Stream data model: bounded-value streams under the sliding-window model.

Sec. III-A: a data stream is an ordered sequence of points whose values
lie in a bounded range; only the most recent ``n`` values matter (the
"sliding window" model).  :class:`SlidingWindow` is the O(1)-append ring
buffer every data center keeps per stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["SlidingWindow"]


class SlidingWindow:
    """Fixed-capacity ring buffer over the most recent stream values.

    Appending is O(1); :meth:`values` materialises the window in arrival
    order as a contiguous numpy array (O(n), used only when a full
    recomputation or a query-time check needs the raw window).

    Parameters
    ----------
    size:
        Window length ``n``; must be positive.
    """

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"window size must be positive, got {size}")
        self.size = size
        self._buf = np.zeros(size, dtype=np.float64)
        self._head = 0  # index of the oldest element once full
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.size)

    @property
    def full(self) -> bool:
        """Whether the window holds ``size`` values."""
        return self._count >= self.size

    def append(self, value: float) -> Optional[float]:
        """Add a value; return the evicted (oldest) value if the window was full."""
        evicted: Optional[float] = None
        if self._count >= self.size:
            evicted = float(self._buf[self._head])
        self._buf[self._head] = value
        self._head = (self._head + 1) % self.size
        self._count += 1
        return evicted

    def values(self) -> np.ndarray:
        """The window contents, oldest first, as a fresh contiguous array."""
        n = len(self)
        if n < self.size:
            return self._buf[:n].copy()
        # head points at the oldest element when full
        return np.concatenate((self._buf[self._head :], self._buf[: self._head]))

    def newest(self) -> float:
        """The most recently appended value.

        Raises
        ------
        IndexError
            If the window is empty.
        """
        if self._count == 0:
            raise IndexError("window is empty")
        return float(self._buf[(self._head - 1) % self.size])
