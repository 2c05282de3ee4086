"""Unit tests for DFT machinery: unitarity, truncation, sliding update."""

import math

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.streams import (
    SlidingDFT,
    reconstruct_from_coefficients,
    truncated_dft,
    unitary_dft,
    unitary_idft,
)


def test_unitary_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(size=64)
    assert np.allclose(unitary_idft(unitary_dft(x)).real, x)


def test_energy_preservation_parseval():
    """Eq. 3 commentary: the DFT is orthogonal, energy is preserved."""
    rng = np.random.default_rng(1)
    x = rng.normal(size=128)
    X = unitary_dft(x)
    assert np.isclose(np.sum(x * x), np.sum(np.abs(X) ** 2))


def test_dc_coefficient_is_scaled_mean():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    X = unitary_dft(x)
    assert np.isclose(X[0].real, x.sum() / np.sqrt(len(x)))
    assert np.isclose(X[0].imag, 0.0)


def test_truncated_matches_full():
    rng = np.random.default_rng(2)
    x = rng.normal(size=32)
    assert np.allclose(truncated_dft(x, 5), unitary_dft(x)[:5])


def test_truncated_dft_k_validation():
    x = np.zeros(8)
    with pytest.raises(ValueError):
        truncated_dft(x, 0)
    with pytest.raises(ValueError):
        truncated_dft(x, 9)


def test_low_frequency_energy_concentration():
    """Smooth (random-walk) signals concentrate energy in low frequencies,
    the premise that makes k << n summaries useful."""
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.normal(size=256))
    x = x - x.mean()
    X = unitary_dft(x)
    total = np.sum(np.abs(X) ** 2)
    # first 8 coefficients + symmetric twins
    low = np.abs(X[0]) ** 2 + 2 * np.sum(np.abs(X[1:9]) ** 2)
    assert low / total > 0.85


def test_reconstruct_exact_when_k_equals_n():
    rng = np.random.default_rng(4)
    x = rng.normal(size=16)
    # keeping all coefficients must reproduce the signal
    coeffs = truncated_dft(x, 16)
    # reconstruct only mirrors below k, so pass the full set
    rebuilt = np.real(unitary_idft(np.fft.fft(x) / np.sqrt(16)))
    assert np.allclose(rebuilt, x)


def test_reconstruct_recovers_low_frequency_signal_exactly():
    """A signal with only low-frequency content is rebuilt exactly from
    its first k coefficients (Eq. 7)."""
    n = 64
    t = np.arange(n)
    x = 3.0 + 2.0 * np.cos(2 * np.pi * t / n) + 0.5 * np.sin(2 * np.pi * 2 * t / n)
    coeffs = truncated_dft(x, 3)
    rebuilt = reconstruct_from_coefficients(coeffs, n)
    assert np.allclose(rebuilt, x, atol=1e-10)


def test_reconstruct_is_good_approximation_for_smooth_signal():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.normal(size=128))
    coeffs = truncated_dft(x, 8)
    approx = reconstruct_from_coefficients(coeffs, 128)
    # relative L2 error should be small for a random walk
    err = np.linalg.norm(x - approx) / np.linalg.norm(x)
    assert err < 0.2


def test_reconstruct_validation():
    with pytest.raises(ValueError):
        reconstruct_from_coefficients(np.zeros(5, dtype=complex), 4)


def test_sliding_dft_validation():
    with pytest.raises(ValueError):
        SlidingDFT(8, 0)
    with pytest.raises(ValueError):
        SlidingDFT(8, 9)


def test_sliding_dft_initialize_matches_batch():
    rng = np.random.default_rng(6)
    w = rng.normal(size=32)
    sd = SlidingDFT(32, 4)
    got = sd.initialize(w)
    assert np.allclose(got, truncated_dft(w, 4))


def test_sliding_dft_initialize_length_check():
    sd = SlidingDFT(16, 2)
    with pytest.raises(ValueError):
        sd.initialize(np.zeros(15))


def test_sliding_update_matches_batch_recomputation():
    """Eq. 5: the incremental update equals recomputing from scratch."""
    rng = np.random.default_rng(7)
    n, k = 24, 5
    data = rng.normal(size=200)
    sd = SlidingDFT(n, k, refresh_every=None)
    sd.initialize(data[:n])
    for t in range(n, len(data)):
        got = sd.update(data[t], data[t - n])
        want = truncated_dft(data[t - n + 1 : t + 1], k)
        assert np.allclose(got, want, atol=1e-9)


def test_sliding_update_drift_bounded_over_long_run():
    rng = np.random.default_rng(8)
    n, k = 16, 3
    data = rng.normal(size=20_000)
    sd = SlidingDFT(n, k, refresh_every=None)
    sd.initialize(data[:n])
    for t in range(n, len(data)):
        got = sd.update(data[t], data[t - n])
    want = truncated_dft(data[-n:], k)
    assert np.allclose(got, want, atol=1e-6)


def test_refresh_resets_drift():
    rng = np.random.default_rng(9)
    n, k = 16, 3
    data = rng.normal(size=600)
    sd = SlidingDFT(n, k, refresh_every=64)
    sd.initialize(data[:n])
    window = None
    for t in range(n, len(data)):
        window = data[t - n + 1 : t + 1]
        sd.update(data[t], data[t - n], window=window)
    want = truncated_dft(window, k)
    assert np.allclose(sd.coefficients, want, atol=1e-12)


def test_coefficients_property_is_copy():
    sd = SlidingDFT(8, 2)
    sd.initialize(np.arange(8.0))
    c = sd.coefficients
    c[0] = 999.0
    assert sd.coefficients[0] != 999.0


def test_incremental_tracks_full_fft():
    """After many updates the incremental coefficients match a fresh FFT."""
    n, k, steps = 16, 4, 500
    rng = RngRegistry(seed=99).get("vs-fft")
    window = list(rng.standard_normal(n))
    dft = SlidingDFT(n, k, refresh_every=None)
    dft.initialize(np.asarray(window))
    for _ in range(steps):
        new = float(rng.standard_normal())
        old = window.pop(0)
        window.append(new)
        dft.update(new, old)
    expect = np.fft.fft(np.asarray(window))[:k] / np.sqrt(n)
    for a, b in zip(dft.coefficients, expect):
        assert math.isclose(a.real, b.real, rel_tol=1e-7, abs_tol=1e-7)
        assert math.isclose(a.imag, b.imag, rel_tol=1e-7, abs_tol=1e-7)


def test_peek_returns_live_view_and_coefficients_a_copy():
    n, k = 16, 4
    rng = RngRegistry(seed=99).get("views")
    dft = SlidingDFT(n, k, refresh_every=None)
    dft.initialize(rng.standard_normal(n))
    live = dft.peek()
    copied = dft.coefficients
    dft.update(1.0, 0.5)
    assert np.array_equal(live, dft.peek())  # same storage
    assert not np.array_equal(copied, dft.coefficients)  # snapshot
