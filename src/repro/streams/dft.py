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
implements that recurrence, vectorised over the ``k`` coefficients and
run for a whole block of arrivals per call (one stream's values up to
its next MBR close), so the per-call overhead is paid once per block.
The rows stay sequential: each is the same in-place ``+=``/``*=`` as a
single step, which keeps every coefficient bit-identical to sliding one
value at a time.  Drift is bounded by the caller re-initializing from
the window (:class:`~repro.streams.features.IncrementalFeatureExtractor`
does so every ``refresh_every`` arrivals).
"""

from __future__ import annotations

from typing import Optional, Sequence

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
    over ``k`` lanes).  :meth:`update` slides by a whole block of
    arrivals in one call; :meth:`initialize` recomputes the
    coefficients exactly from the window, which is how the owner washes
    out accumulated floating-point drift.

    Parameters
    ----------
    n:
        Window length.
    k:
        Number of leading coefficients maintained (``X_0 .. X_{k-1}``).
    """

    def __init__(self, n: int, k: int) -> None:
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        self.n = n
        self.k = k
        self._coeffs = np.zeros(k, dtype=np.complex128)
        self._omega = np.exp(2j * np.pi * np.arange(k) / n)
        self._inv_sqrt_n = float(1.0 / np.sqrt(n))

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
        return self.coefficients

    def update(
        self,
        x_new: Sequence[float],
        x_old: Sequence[float],
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Slide the window once per ``(x_new[i], x_old[i])``, in order.

        Row ``i`` of ``out`` (shape ``(len(x_new), k)``), when given,
        receives the coefficients after the ``i``-th slide.  Returns the
        live coefficient array (see :meth:`peek`).
        """
        inv_sqrt_n = self._inv_sqrt_n
        omega = self._omega
        # In-place add/multiply: bit-identical to the out-of-place form
        # (same elementwise operations) but allocation-free per arrival.
        coeffs = self._coeffs
        for i, (new, old) in enumerate(zip(x_new, x_old)):
            coeffs += (new - old) * inv_sqrt_n
            coeffs *= omega
            if out is not None:
                out[i] = coeffs
        return coeffs  # hot path: callers must not mutate
