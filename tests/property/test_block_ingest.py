"""Block ingest is bit-identical to summarising one value at a time.

The stream source turns a whole MBR's worth of arrivals into features
and the box in one pass (``IncrementalFeatureExtractor.push`` with
``block > 1``, ``MBRBatcher.add`` of the block).  This module keeps a
per-value reference, the extractor as it was before block ingest: one
Eq. 5 step, one normalization and one layout per arrival, and a box
grown one ``np.minimum``/``np.maximum`` at a time.  Every feature, every
box bound, every mid-block read must agree with it to the last bit.
"""

from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MBRBatcher
from repro.streams import IncrementalFeatureExtractor, SlidingWindow, truncated_dft

_EPS = 1e-12


def _reference_layout(coeffs: np.ndarray, mode: str, n: int) -> np.ndarray:
    tail = coeffs[1:]
    k = len(tail)
    scale = np.full(k, np.sqrt(2.0))
    if n % 2 == 0 and 1 <= n // 2 <= k:
        scale[n // 2 - 1] = 1.0
    inter = np.empty(2 * k, dtype=np.float64)
    inter[0::2] = tail.real * scale
    inter[1::2] = tail.imag * scale
    if mode == "z":
        return inter
    return np.concatenate(([coeffs[0].real], inter))


class _PerValueReference:
    """One feature vector per arrival, as the extractor computed it before."""

    def __init__(self, n: int, k: int, mode: str, refresh_every: int) -> None:
        self.n, self.k, self.mode, self.refresh_every = n, k, mode, refresh_every
        self.window = SlidingWindow(n)
        self._coeffs = np.zeros(k + 1, dtype=np.complex128)
        self._omega = np.exp(2j * np.pi * np.arange(k + 1) / n)
        self._inv_sqrt_n = 1.0 / np.sqrt(n)
        self._sum = 0.0
        self._sumsq = 0.0
        self._since_refresh = 0

    def push(self, value: float) -> Optional[np.ndarray]:
        value = float(value)
        evicted = self.window.append(value)
        if not self.window.full:
            return None
        if evicted is None:
            self._refresh()
        else:
            self._sum += value - evicted
            self._sumsq += value * value - evicted * evicted
            delta = (value - evicted) * self._inv_sqrt_n
            self._coeffs += delta
            self._coeffs *= self._omega
            self._since_refresh += 1
            if self._since_refresh >= self.refresh_every:
                self._refresh()
        return self.feature_vector()

    def _refresh(self) -> None:
        w = self.window.values()
        self._sum = float(w.sum())
        self._sumsq = float(np.dot(w, w))
        self._coeffs = truncated_dft(w, self.k + 1)
        self._since_refresh = 0

    def feature_vector(self) -> np.ndarray:
        n = self.n
        raw = self._coeffs
        if self.mode == "z":
            mu = self._sum / n
            var = max(0.0, self._sumsq / n - mu * mu)
            sigma = np.sqrt(var)
            if sigma < _EPS:
                coeffs = np.zeros_like(raw)
            else:
                coeffs = raw / (sigma * np.sqrt(n))
                coeffs[0] = 0.0
        elif self.mode == "unit":
            norm = np.sqrt(max(0.0, self._sumsq))
            coeffs = raw / norm if norm >= _EPS else np.zeros_like(raw)
        else:
            coeffs = raw
        return _reference_layout(coeffs, self.mode, n)

    def raw_coefficients(self) -> np.ndarray:
        return self._coeffs.copy()


def _reference_box(rows: List[np.ndarray]) -> np.ndarray:
    """``[low, high]`` grown one vector at a time from the first."""
    low, high = rows[0].copy(), rows[0].copy()
    for p in rows[1:]:
        np.minimum(low, p, out=low)
        np.maximum(high, p, out=high)
    return np.stack((low, high))


#: runs of one value; zeros of both signs and long constant runs make
#: rows whose window has no spread, and all-zero (signed) box bounds
_runs = st.lists(
    st.tuples(
        st.one_of(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 5.0]),
        ),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1,
    max_size=12,
)


@given(
    mode=st.sampled_from(["z", "unit", "none"]),
    n=st.integers(min_value=4, max_value=24),
    k=st.integers(min_value=1, max_value=4),
    block=st.integers(min_value=1, max_value=70),
    refresh_every=st.integers(min_value=1, max_value=40),
    runs=_runs,
    reads=st.dictionaries(
        st.integers(min_value=0, max_value=400),
        st.sampled_from(["raw_coefficients", "feature_vector", "window"]),
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_block_ingest_is_bit_identical_to_per_value(
    mode, n, k, block, refresh_every, runs, reads
):
    if k >= n:
        k = n - 1
    values = [v for v, count in runs for _ in range(count)] * 3
    fx = IncrementalFeatureExtractor(n, k, mode=mode, refresh_every=refresh_every, block=block)
    ref = _PerValueReference(n, k, mode, refresh_every)
    batcher = MBRBatcher("s", block)
    rows: List[np.ndarray] = []
    opened = None
    for t, v in enumerate(values):
        got = fx.push(v)
        want = ref.push(v)
        if want is not None:
            if not rows:
                opened = float(t)
            rows.append(want)
        if got is None:
            assert len(rows) < block
            assert fx.pending == len(rows)
        else:
            assert len(rows) == block
            assert got.tobytes() == np.stack(rows).tobytes()
            box = batcher.add(got, now=opened)
            assert box is not None
            assert box.bounds.tobytes() == _reference_box(rows).tobytes()
            assert (box.count, box.created) == (block, opened)
            rows = []
        read = reads.get(t)
        if read is not None and ref.window.full:
            # what the window fetch, the Eq. 7 push and the probes read
            # between two closes; one read at a time, so that none
            # catches the queue up for another
            if read == "window":
                got_read, want_read = fx.window.values(), ref.window.values()
            else:
                got_read, want_read = getattr(fx, read)(), getattr(ref, read)()
            assert got_read.tobytes() == want_read.tobytes()
