"""Feature extraction: normalized DFT summaries of sliding windows.

This is the "synopsis" of Sec. III-C: each window is normalized (Eq. 1
or Eq. 2) and summarised by its first ``k`` non-trivial unitary DFT
coefficients, giving a point in a unit feature space whose coordinates
all lie in ``[-1, 1]``.  The first coordinate of the feature vector —
the real part of ``X_1`` for z-normalized streams, of ``X_0`` otherwise
— is the value the middleware hashes onto the Chord ring (Sec. IV-B).

Incremental computation
-----------------------
Normalization depends on the window mean and variance, which change
with every arrival, so one cannot slide the DFT of the *normalized*
window directly.  But the DFT is linear, so the normalized coefficients
are algebraic functions of the *raw* sliding DFT and the running sums:

* z-norm:   ``X̂_0 = 0``,  ``X̂_f = X_f / (σ·√n)`` for ``f ≥ 1``
* unit-norm: ``X̂_f = X_f / ||x||``,  with ``||x||² = Σx²``

:class:`IncrementalFeatureExtractor` therefore maintains the raw
:class:`~repro.streams.dft.SlidingDFT` plus ``Σx`` and ``Σx²`` in O(k)
per arrival — the paper's "O(1) per coefficient" cost model.

Block ingest
------------
Only the Sec. IV-G MBR of every ``w`` feature vectors leaves the
source, so the extractor does not build one vector per arrival.  Per
arrival it appends to the window and queues ``(value, evicted)``; when
``block`` rows are queued (the value that closes the MBR) it turns them
into a ``(block, d)`` feature block in one pass:

* sequential, because each row depends on the one before: the DFT
  recurrence (the same in-place ``+=``/``*=`` per row as a single
  step) and ``Σx``/``Σx²`` (Python-float sums, in arrival order);
* elementwise over the block, so bit-identical to doing it row by row:
  ``σ`` or ``||x||`` (``math.sqrt`` is the same correctly rounded sqrt
  as ``np.sqrt``), the complex ÷ real normalization and the layout.

A read between closes (:meth:`~IncrementalFeatureExtractor.feature_vector`,
:meth:`~IncrementalFeatureExtractor.raw_coefficients`) first runs the
queued rows through the recurrence, so it sees what a per-value
extractor would.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dft import SlidingDFT, truncated_dft
from .model import SlidingWindow
from .normalize import unit_normalize, z_normalize

__all__ = [
    "feature_dimensions",
    "extract_feature_vector",
    "feature_distance",
    "IncrementalFeatureExtractor",
    "NORMALIZATION_MODES",
]

NORMALIZATION_MODES = ("z", "unit", "none")
"""Supported normalization modes: Eq. 1, Eq. 2, or raw coefficients."""

_EPS = 1e-12


def feature_dimensions(k: int, mode: str) -> int:
    """Dimensionality of the feature vector for ``k`` kept coefficients.

    z-normalization drops the (identically zero) DC coefficient and
    keeps ``X_1..X_k`` → ``2k`` real dimensions; the other modes keep
    the real-valued ``X_0`` plus ``X_1..X_k`` → ``2k + 1`` dimensions.
    """
    _check_mode(mode)
    return 2 * k if mode == "z" else 2 * k + 1


def _check_mode(mode: str) -> None:
    if mode not in NORMALIZATION_MODES:
        raise ValueError(f"unknown normalization mode {mode!r}; use one of {NORMALIZATION_MODES}")


_SCALE_CACHE: Dict[Tuple[int, int], np.ndarray] = {}


def _fold_scale(k: int, n: int) -> np.ndarray:
    """The conjugate-fold scale of :func:`_layout`, once per Re/Im pair, cached.

    The vector depends only on ``(k, n)`` and every extractor of a given
    configuration asks for the same one on every block, so it is built
    once and shared (callers treat it as read-only).
    """
    cached = _SCALE_CACHE.get((k, n))
    if cached is None:
        cached = np.full(2 * k, np.sqrt(2.0))
        if n % 2 == 0 and 1 <= n // 2 <= k:
            cached[n - 2 : n] = 1.0  # the Nyquist bin is its own conjugate
        _SCALE_CACHE[(k, n)] = cached
    return cached


def _layout(coeffs: np.ndarray, mode: str, n: int) -> np.ndarray:
    """Flatten rows of complex coefficients into real feature rows.

    ``coeffs`` is ``(m, k + 1)`` complex128 with contiguous rows: row
    ``i`` holds ``X_0 .. X_k`` of the ``i``-th *normalized* window.
    Layout of each row:

    * ``"z"``:    ``[√2·Re X_1, √2·Im X_1, ..., √2·Re X_k, √2·Im X_k]``
    * others:     ``[Re X_0, √2·Re X_1, ..., √2·Im X_k]``

    so that index 0 is always the routing coordinate of Sec. IV-B.  A
    complex128 row is its ``(Re, Im)`` pairs in memory, so the scaled
    part is one multiply of the float64 view.

    The ``√2`` on non-DC components folds in the energy of the conjugate
    twin ``X_{n-f} = conj(X_f)`` a real signal carries: the scaled
    feature distance equals the *two-sided* truncated distance, a
    strictly tighter — and still exact — lower bound (the GEMINI
    folklore the paper's Eq. 9 leaves on the table).  Components of
    normalized windows remain in [-1, 1]: ``2|X_f|² ≤ Σ|X|² = 1`` for
    every non-self-conjugate bin.  A self-conjugate bin (``f = n/2``)
    has no twin and is left unscaled.
    """
    m, k = coeffs.shape[0], coeffs.shape[1] - 1
    pairs = coeffs[:, 1:].view(np.float64)
    scale = _fold_scale(k, n)
    if mode == "z":
        return pairs * scale
    out = np.empty((m, 2 * k + 1), dtype=np.float64)
    out[:, 0] = coeffs[:, 0].real
    np.multiply(pairs, scale, out=out[:, 1:])
    return out


def extract_feature_vector(window: np.ndarray, k: int, mode: str = "z") -> np.ndarray:
    """Batch feature extraction: normalize the window, then truncate its DFT.

    The reference implementation the incremental extractor is verified
    against; O(n log n) per call.
    """
    _check_mode(mode)
    window = np.asarray(window, dtype=np.float64)
    if mode == "z":
        normalized = z_normalize(window)
    elif mode == "unit":
        normalized = unit_normalize(window)
    else:
        normalized = window
    coeffs = truncated_dft(normalized, k + 1)
    return _layout(coeffs[None], mode, len(window))[0]


def feature_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance in feature space.

    By orthonormality of the DFT this **lower-bounds** the Euclidean
    distance of the corresponding normalized windows (the paper's Eq. 9
    generalised to all kept coordinates): pruning with it yields false
    positives but never false dismissals.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"feature shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


class IncrementalFeatureExtractor:
    """O(k)-per-arrival normalized DFT features over a sliding window.

    Parameters
    ----------
    window_size:
        Window length ``n``.
    k:
        Number of non-DC coefficients kept (``X_1 .. X_k``).
    mode:
        One of :data:`NORMALIZATION_MODES`.
    refresh_every:
        Arrivals between exact recomputations of the raw DFT and the
        running sums (floating-point drift control).
    block:
        Feature vectors per :meth:`push` result: the rows of one MBR.

    Examples
    --------
    >>> import numpy as np
    >>> fx = IncrementalFeatureExtractor(window_size=16, k=2, block=5)
    >>> rng = np.random.default_rng(0)
    >>> out = [fx.push(v) for v in rng.normal(size=20)]
    >>> [i for i, b in enumerate(out) if b is not None], out[19].shape
    ([19], (5, 4))
    """

    def __init__(
        self,
        window_size: int,
        k: int,
        *,
        mode: str = "z",
        refresh_every: int = 4096,
        block: int = 1,
    ) -> None:
        _check_mode(mode)
        if not (1 <= k < window_size):
            raise ValueError(f"need 1 <= k < window_size, got k={k}, n={window_size}")
        if block < 1:
            raise ValueError(f"block must be >= 1, got {block}")
        self.window_size = window_size
        self.k = k
        self.mode = mode
        self.refresh_every = refresh_every
        self.block = block
        self.window = SlidingWindow(window_size)
        self._dft = SlidingDFT(window_size, k + 1)
        self._sqrt_n = math.sqrt(window_size)
        self._sum = 0.0
        self._sumsq = 0.0
        self._since_refresh = 0
        # Rows queued by push and not yet through the recurrence: the
        # appended and evicted values, and the window at each row that
        # recomputes exactly instead (keyed by its index in the queue).
        self._new: List[float] = []
        self._old: List[float] = []
        self._refresh_at: Dict[int, np.ndarray] = {}
        # Rows of the open block already through the recurrence (a read
        # between closes runs them early): raw X_0..X_k and divisors.
        self._done = 0
        self._raw = np.empty((block, k + 1), dtype=np.complex128)
        self._divisors: List[float] = []

    @property
    def dimensions(self) -> int:
        """Length of the produced feature vectors."""
        return feature_dimensions(self.k, self.mode)

    @property
    def ready(self) -> bool:
        """Whether a full window has been observed."""
        return self.window.full

    @property
    def pending(self) -> int:
        """Feature rows of the open block (``push`` returns at ``block``)."""
        return self._done + len(self._new)

    def arrivals_to_close(self) -> int:
        """Pushes until one returns a block, that push included."""
        if self.window.full:
            return self.block - self.pending
        return self.window_size - len(self.window) + self.block - 1

    def push(self, value: float) -> Optional[np.ndarray]:
        """Ingest one value; return the ``(block, d)`` features when it closes.

        Until the window is full no row is queued.  After that every
        value queues one row, and the value that brings the open block
        to ``block`` rows returns their feature vectors, oldest first,
        as a fresh array; every other call returns ``None``.
        """
        value = float(value)
        evicted = self.window.append(value)
        if not self.window.full:
            return None
        if evicted is None or self._since_refresh + 1 >= self.refresh_every:
            # window just became full, or drift refresh due: this row is
            # recomputed exactly from the window as it stands now (its
            # queued pair only keeps the queue aligned)
            self._refresh_at[len(self._new)] = self.window.values()
            self._since_refresh = 0
            evicted = value
        else:
            self._since_refresh += 1
        self._new.append(value)
        self._old.append(evicted)
        if self._done + len(self._new) < self.block:
            return None
        self._catch_up()
        features = self._normalize(self._raw, self._divisors)
        self._done = 0
        self._divisors.clear()
        return features

    def _catch_up(self) -> None:
        """Run the queued rows through the recurrence into the open block."""
        new, old = self._new, self._old
        if not new:
            return
        first = self._done
        self._done = first + len(new)
        if self._refresh_at:
            start = 0
            for at, window in self._refresh_at.items():  # in queue order
                self._slide(new[start:at], old[start:at], first + start)
                self._sum = float(window.sum())
                self._sumsq = float(np.dot(window, window))
                self._raw[first + at] = self._dft.initialize(window)
                self._divisors.append(self._divisor(self._sum, self._sumsq))
                start = at + 1
            self._refresh_at.clear()
            del new[:start], old[:start]
            first += start
        self._slide(new, old, first)
        new.clear()
        old.clear()

    def _slide(self, new: Sequence[float], old: Sequence[float], first: int) -> None:
        """Slide by ``new``/``old`` into rows ``first ..`` of the open block."""
        if not new:
            return
        total, total_sq = self._sum, self._sumsq
        divisor, divisors = self._divisor, self._divisors
        for v, e in zip(new, old):
            total += v - e
            total_sq += v * v - e * e
            divisors.append(divisor(total, total_sq))
        self._sum, self._sumsq = total, total_sq
        self._dft.update(new, old, out=self._raw[first : first + len(new)])

    def _divisor(self, total: float, total_sq: float) -> float:
        """What a row's raw coefficients are divided by, from its window's sums.

        ``σ·√n`` (z), ``||x||`` (unit) or 1.0 (none); 0.0 for a window
        with (numerically) no spread, whose features are all zero.
        """
        if self.mode == "z":
            n = self.window_size
            mu = total / n
            sigma = math.sqrt(max(0.0, total_sq / n - mu * mu))
            return sigma * self._sqrt_n if sigma >= _EPS else 0.0
        if self.mode == "unit":
            norm = math.sqrt(max(0.0, total_sq))
            return norm if norm >= _EPS else 0.0
        return 1.0

    def _normalize(self, raw: np.ndarray, divisors: List[float]) -> np.ndarray:
        """Feature rows of raw coefficient rows, given each row's divisor."""
        if self.mode == "none":
            return _layout(raw, self.mode, self.window_size)
        flat = [i for i, d in enumerate(divisors) if d == 0.0] if 0.0 in divisors else []
        if flat:
            divisors = [d or 1.0 for d in divisors]
        # complex ÷ real, elementwise: each row as its own scalar division
        coeffs = raw / np.array(divisors)[:, None]
        if flat:
            coeffs[flat] = 0.0
        return _layout(coeffs, self.mode, self.window_size)

    def feature_vector(self) -> np.ndarray:
        """The feature vector of the current (full) window.

        Raises
        ------
        RuntimeError
            If the window is not yet full.
        """
        if not self.window.full:
            raise RuntimeError("window not yet full; no features available")
        self._catch_up()
        divisor = self._divisor(self._sum, self._sumsq)
        return self._normalize(self._dft.peek()[None], [divisor])[0]

    def routing_coordinate(self) -> float:
        """First feature component — the value hashed onto the ring."""
        return float(self.feature_vector()[0])

    def raw_coefficients(self) -> np.ndarray:
        """The *unnormalized* coefficients ``X_0 .. X_k`` of the window.

        These are what the stream source feeds into the Eq. 7 inverse
        transform to answer inner-product queries from the summary.

        Raises
        ------
        RuntimeError
            If the window is not yet full.
        """
        if not self.window.full:
            raise RuntimeError("window not yet full; no coefficients available")
        self._catch_up()
        return self._dft.coefficients
