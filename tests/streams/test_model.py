"""Unit tests for the sliding-window stream model."""

import numpy as np
import pytest

from repro.streams import SlidingWindow


def test_window_size_validation():
    with pytest.raises(ValueError):
        SlidingWindow(0)
    with pytest.raises(ValueError):
        SlidingWindow(-3)


def test_empty_window():
    w = SlidingWindow(4)
    assert len(w) == 0
    assert not w.full
    assert w.values().size == 0
    with pytest.raises(IndexError):
        w.newest()


def test_partial_fill_preserves_order():
    w = SlidingWindow(4)
    w.append(1.0)
    w.append(2.0)
    assert len(w) == 2
    assert not w.full
    assert w.values().tolist() == [1.0, 2.0]


def test_append_returns_evicted_when_full():
    w = SlidingWindow(3)
    assert w.append(1.0) is None
    assert w.append(2.0) is None
    assert w.append(3.0) is None
    assert w.full
    assert w.append(4.0) == 1.0
    assert w.append(5.0) == 2.0


def test_values_oldest_first_after_wrap():
    w = SlidingWindow(3)
    for v in [1, 2, 3, 4, 5]:
        w.append(float(v))
    assert w.values().tolist() == [3.0, 4.0, 5.0]


def test_values_returns_copy():
    w = SlidingWindow(3)
    for v in (1.0, 2.0, 3.0):
        w.append(v)
    arr = w.values()
    arr[0] = 99.0
    assert w.values()[0] == 1.0


def test_newest():
    w = SlidingWindow(3)
    for v in [1, 2, 3, 4]:
        w.append(float(v))
        assert w.newest() == float(v)


def test_long_rotation_consistency():
    w = SlidingWindow(7)
    data = np.arange(100, dtype=np.float64)
    for v in data:
        w.append(v)
    assert w.values().tolist() == data[-7:].tolist()
