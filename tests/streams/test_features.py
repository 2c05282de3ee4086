"""Unit tests for incremental normalized feature extraction."""

import numpy as np
import pytest

from repro.streams import (
    IncrementalFeatureExtractor,
    extract_feature_vector,
    feature_dimensions,
    feature_distance,
    unit_normalize,
    z_normalize,
)
from repro.streams.dft import truncated_dft


def test_feature_dimensions():
    assert feature_dimensions(3, "z") == 6
    assert feature_dimensions(3, "unit") == 7
    assert feature_dimensions(3, "none") == 7
    with pytest.raises(ValueError):
        feature_dimensions(3, "bogus")


def test_extract_feature_vector_z_layout():
    rng = np.random.default_rng(0)
    w = rng.normal(size=32)
    f = extract_feature_vector(w, k=2, mode="z")
    coeffs = truncated_dft(z_normalize(w), 3)
    s2 = np.sqrt(2.0)  # conjugate-twin energy folded in (see _layout)
    assert f.shape == (4,)
    assert np.isclose(f[0], s2 * coeffs[1].real)
    assert np.isclose(f[1], s2 * coeffs[1].imag)
    assert np.isclose(f[2], s2 * coeffs[2].real)
    assert np.isclose(f[3], s2 * coeffs[2].imag)


def test_extract_feature_vector_unit_layout():
    rng = np.random.default_rng(1)
    w = rng.normal(size=32)
    f = extract_feature_vector(w, k=2, mode="unit")
    coeffs = truncated_dft(unit_normalize(w), 3)
    assert f.shape == (5,)
    assert np.isclose(f[0], coeffs[0].real)  # DC has no twin: unscaled
    assert np.isclose(f[1], np.sqrt(2.0) * coeffs[1].real)


def test_features_bounded_by_unit_sphere():
    """All feature components of normalized windows lie in [-1, 1].

    (The paper's 1/sqrt(2) bound on raw non-DC coefficients becomes
    exactly 1 after the sqrt(2) conjugate-twin scaling of _layout.)"""
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.normal(size=64) * rng.uniform(0.1, 10)
        fz = extract_feature_vector(w, k=3, mode="z")
        assert np.all(np.abs(fz) <= 1.0 + 1e-9)
        fu = extract_feature_vector(w, k=3, mode="unit")
        assert np.all(np.abs(fu) <= 1.0 + 1e-9)


def test_incremental_matches_batch_z():
    rng = np.random.default_rng(3)
    n, k = 16, 2
    data = rng.normal(size=120)
    fx = IncrementalFeatureExtractor(n, k, mode="z")
    for t, v in enumerate(data):
        got = fx.push(v)
        if t < n - 1:
            assert got is None
        else:
            want = extract_feature_vector(data[t - n + 1 : t + 1], k, mode="z")
            assert np.allclose(got, want, atol=1e-9)


def test_incremental_matches_batch_unit():
    rng = np.random.default_rng(4)
    n, k = 12, 3
    data = rng.uniform(1.0, 5.0, size=100)
    fx = IncrementalFeatureExtractor(n, k, mode="unit")
    for t, v in enumerate(data):
        got = fx.push(v)
        if got is not None:
            want = extract_feature_vector(data[t - n + 1 : t + 1], k, mode="unit")
            assert np.allclose(got, want, atol=1e-9)


def test_incremental_matches_batch_none():
    rng = np.random.default_rng(5)
    n, k = 8, 2
    data = rng.normal(size=50)
    fx = IncrementalFeatureExtractor(n, k, mode="none")
    for t, v in enumerate(data):
        got = fx.push(v)
        if got is not None:
            want = extract_feature_vector(data[t - n + 1 : t + 1], k, mode="none")
            assert np.allclose(got, want, atol=1e-9)


def test_constant_window_z_features_zero():
    fx = IncrementalFeatureExtractor(8, 2, mode="z")
    out = None
    for _ in range(10):
        out = fx.push(5.0)
    assert out is not None
    assert np.allclose(out, 0.0)


def test_refresh_controls_drift():
    rng = np.random.default_rng(6)
    n, k = 16, 2
    data = rng.normal(size=30_000)
    fx = IncrementalFeatureExtractor(n, k, mode="z", refresh_every=1024)
    for v in data:
        got = fx.push(v)
    want = extract_feature_vector(data[-n:], k, mode="z")
    assert np.allclose(got, want, atol=1e-9)


def test_feature_vector_before_full_raises():
    fx = IncrementalFeatureExtractor(8, 2)
    fx.push(1.0)
    with pytest.raises(RuntimeError):
        fx.feature_vector()
    assert not fx.ready


def test_validation():
    with pytest.raises(ValueError):
        IncrementalFeatureExtractor(8, 0)
    with pytest.raises(ValueError):
        IncrementalFeatureExtractor(8, 8)
    with pytest.raises(ValueError):
        IncrementalFeatureExtractor(8, 2, mode="bad")
    with pytest.raises(ValueError):
        IncrementalFeatureExtractor(8, 2, block=0)


def test_routing_coordinate_is_first_component():
    rng = np.random.default_rng(7)
    fx = IncrementalFeatureExtractor(8, 2, mode="z")
    for v in rng.normal(size=8):
        fx.push(v)
    assert fx.routing_coordinate() == fx.feature_vector()[0]
    assert fx.dimensions == 4


def test_feature_distance_lower_bounds_true_distance():
    """Eq. 9: distance in feature space never exceeds the distance of the
    normalized windows — no false dismissals."""
    rng = np.random.default_rng(8)
    n, k = 32, 3
    for _ in range(30):
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fa = extract_feature_vector(a, k, mode="z")
        fb = extract_feature_vector(b, k, mode="z")
        true_d = np.linalg.norm(z_normalize(a) - z_normalize(b))
        assert feature_distance(fa, fb) <= true_d + 1e-9


def test_feature_distance_shape_mismatch():
    with pytest.raises(ValueError):
        feature_distance(np.zeros(4), np.zeros(6))
