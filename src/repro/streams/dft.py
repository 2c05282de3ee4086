"""Discrete Fourier transform machinery (Sec. III-C).

The paper summarises each sliding window by its first few DFT
coefficients: most of a real time series' energy concentrates in the
low frequencies, so keeping ``k ≪ n`` coefficients retains the overall
trend while shrinking the dimensionality from ``n`` to O(k).

Conventions
-----------
We use the **unitary** DFT (``1/sqrt(n)`` in both directions), matching
the paper's Eq. 3/4: the transform is orthogonal, so it preserves signal
energy exactly (Parseval) and Euclidean distances in coefficient space
lower-bound distances in the time domain.

The cost model matters as much as correctness: recomputing coefficients
from scratch on every arrival would cost O(n log n) per item; the
paper's Eq. 5 *incremental* update costs O(k).  :class:`SlidingDFT`
implements that recurrence (vectorised over the ``k`` coefficients) with
periodic full recomputation to bound floating-point drift.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "unitary_dft",
    "unitary_idft",
    "truncated_dft",
    "reconstruct_from_coefficients",
    "SlidingDFT",
]


def unitary_dft(x: np.ndarray) -> np.ndarray:
    """The unitary DFT of a real or complex signal (Eq. 3)."""
    x = np.asarray(x)
    return np.fft.fft(x) / np.sqrt(len(x))


def unitary_idft(coeffs: np.ndarray) -> np.ndarray:
    """The unitary inverse DFT (Eq. 4); exact inverse of :func:`unitary_dft`."""
    coeffs = np.asarray(coeffs)
    return np.fft.ifft(coeffs) * np.sqrt(len(coeffs))


def truncated_dft(x: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` unitary DFT coefficients ``X_0 .. X_{k-1}``.

    Raises
    ------
    ValueError
        If ``k`` exceeds the number of meaningfully distinct
        coefficients (``len(x)``).
    """
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if not (1 <= k <= n):
        raise ValueError(f"k must be in [1, {n}], got {k}")
    return np.fft.fft(x)[:k] / np.sqrt(n)


def reconstruct_from_coefficients(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Approximately invert a truncated DFT (the paper's Eq. 7).

    Given the first ``k`` coefficients of a *real* length-``n`` signal,
    rebuild the signal using conjugate symmetry (``X_{n-f} = conj(X_f)``)
    for the dropped high frequencies, which are assumed zero.  This is
    what the stream source does to answer inner-product queries from a
    summary alone.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    k = len(coeffs)
    if not (1 <= k <= n):
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    full = np.zeros(n, dtype=np.complex128)
    full[:k] = coeffs
    # Mirror conjugates; avoid clobbering the self-symmetric bins
    # (DC always; Nyquist when n is even and k covers it).
    freqs = np.arange(1, k)
    freqs = freqs[freqs != n - freqs]
    full[n - freqs] = np.conj(coeffs[freqs])
    return np.real(unitary_idft(full))


class SlidingDFT:
    """Maintains the first ``k`` unitary DFT coefficients of a sliding window.

    Implements the paper's Eq. 5: when the window slides by one (drop
    ``x_old``, append ``x_new``),

    .. math::

        X_f \\leftarrow \\left(X_f + \\frac{x_{new} - x_{old}}{\\sqrt{n}}\\right)
                        e^{\\,2\\pi i f / n}

    which is O(k) per arrival (here: one vectorised complex multiply-add
    over ``k`` lanes).  After ``refresh_every`` incremental steps the
    coefficients are recomputed exactly from the window to wash out
    accumulated floating-point drift; with the default cadence the drift
    stays below 1e-9 in practice.

    Parameters
    ----------
    n:
        Window length.
    k:
        Number of leading coefficients maintained (``X_0 .. X_{k-1}``).
    refresh_every:
        Incremental updates between exact recomputations; ``None``
        disables refresh (useful to *measure* drift in tests).
    """

    def __init__(self, n: int, k: int, *, refresh_every: Optional[int] = 4096) -> None:
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self.refresh_every = refresh_every
        self._coeffs = np.zeros(k, dtype=np.complex128)
        self._omega = np.exp(2j * np.pi * np.arange(k) / n)
        self._inv_sqrt_n = 1.0 / np.sqrt(n)
        self._steps_since_refresh = 0

    @property
    def coefficients(self) -> np.ndarray:
        """The current coefficients ``X_0 .. X_{k-1}`` (a defensive copy)."""
        return self._coeffs.copy()

    def peek(self) -> np.ndarray:
        """The live coefficient array, without copying.

        Hot-path accessor: the returned array is mutated in place by the
        next :meth:`update`, so callers must read it immediately and
        must never write to it.  Use :attr:`coefficients` when a stable
        snapshot is needed.
        """
        return self._coeffs

    def initialize(self, window: np.ndarray) -> np.ndarray:
        """Set coefficients exactly from a full window; returns them."""
        window = np.asarray(window, dtype=np.float64)
        if len(window) != self.n:
            raise ValueError(f"expected window of length {self.n}, got {len(window)}")
        self._coeffs = truncated_dft(window, self.k)
        self._steps_since_refresh = 0
        return self.coefficients

    def update(
        self,
        x_new: float,
        x_old: float,
        window: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Slide the window by one value and return the new coefficients.

        Parameters
        ----------
        x_new, x_old:
            The appended and the evicted sample.
        window:
            The post-slide window contents; only consulted when a drift
            refresh is due.  If omitted, refresh is skipped this step.
        """
        delta = (x_new - x_old) * self._inv_sqrt_n
        # In-place add/multiply: bit-identical to the out-of-place form
        # (same elementwise operations) but allocation-free per arrival.
        coeffs = self._coeffs
        coeffs += delta
        coeffs *= self._omega
        self._steps_since_refresh += 1
        if (
            self.refresh_every is not None
            and self._steps_since_refresh >= self.refresh_every
            and window is not None
        ):
            self.initialize(window)
        return self._coeffs  # hot path: callers must not mutate
