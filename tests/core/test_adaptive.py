"""Tests for the Sec. VI-A adaptive MBR precision batcher."""

import numpy as np
import pytest

from repro.chord import ChordNode, ChordRing
from repro.core.adaptive import AdaptiveMBRBatcher, estimate_system_size


def feats(vals):
    return [np.array([v, 0.0]) for v in vals]


def test_validation():
    with pytest.raises(ValueError):
        AdaptiveMBRBatcher("s", 0)
    with pytest.raises(ValueError):
        AdaptiveMBRBatcher("s", 5, width_limit=0.0)
    with pytest.raises(ValueError):
        AdaptiveMBRBatcher("s", 5, width_limit=2.0, max_width=1.0)
    with pytest.raises(ValueError):
        AdaptiveMBRBatcher("s", 5, shrink=1.5)


def test_add_takes_one_row_blocks():
    """The source hands this batcher (1, d) blocks; wider ones are refused."""
    b = AdaptiveMBRBatcher("s", 2, width_limit=10.0, max_width=10.0)
    assert b.add(np.array([[0.0, 1.0]]), now=5.0) is None
    m = b.add(np.array([[0.5, -1.0]]), now=6.0)
    assert m.count == 2 and m.created == 5.0
    assert m.low.tolist() == [0.0, -1.0] and m.high.tolist() == [0.5, 1.0]
    with pytest.raises(ValueError):
        b.add(np.zeros((2, 2)))


def test_count_cap_still_applies():
    b = AdaptiveMBRBatcher("s", 3, width_limit=10.0, max_width=10.0)
    assert b.add(feats([0.0])[0]) is None
    assert b.add(feats([0.001])[0]) is None
    m = b.add(feats([0.002])[0])
    assert m is not None and m.count == 3


def test_width_cap_closes_early():
    b = AdaptiveMBRBatcher("s", 100, width_limit=0.05)
    assert b.add(np.array([0.0, 0.0])) is None
    assert b.add(np.array([0.03, 0.0])) is None
    m = b.add(np.array([0.2, 0.0]))  # would make width 0.2 > 0.05
    assert m is not None
    assert m.count == 2
    assert m.high[0] - m.low[0] <= 0.05
    # the triggering vector opened the next box
    assert b.pending == 1


def test_no_vector_lost_across_early_close():
    b = AdaptiveMBRBatcher("s", 4, width_limit=0.05)
    emitted = []
    vals = [0.0, 0.02, 0.2, 0.22, 0.24, 0.26]
    for v in vals:
        m = b.add(np.array([v, 0.0]))
        if m is not None:
            emitted.append(m)
    tail = b.flush()
    if tail is not None:
        emitted.append(tail)
    assert sum(m.count for m in emitted) == len(vals)


def test_feedback_shrinks_on_wide_span():
    b = AdaptiveMBRBatcher("s", 10, width_limit=0.1, target_span=2.0)
    before = b.width_limit
    b.feedback(nodes_spanned=8.0)
    assert b.width_limit < before


def test_feedback_grows_when_count_bound_and_span_ok():
    b = AdaptiveMBRBatcher("s", 2, width_limit=0.1, target_span=4.0)
    b.add(np.array([0.0]))
    m = b.add(np.array([0.001]))  # closed by the count cap
    assert m is not None
    before = b.width_limit
    b.feedback(nodes_spanned=1.0)
    assert b.width_limit > before


def test_feedback_does_not_grow_after_width_bound_emit():
    b = AdaptiveMBRBatcher("s", 100, width_limit=0.05, target_span=4.0)
    b.add(np.array([0.0]))
    m = b.add(np.array([0.2]))  # width-bound close
    assert m is not None
    before = b.width_limit
    b.feedback(nodes_spanned=1.0)
    assert b.width_limit == before


def test_width_limit_clamped():
    b = AdaptiveMBRBatcher(
        "s", 2, width_limit=0.01, min_width=0.009, max_width=0.011, target_span=2.0
    )
    for _ in range(20):
        b.feedback(nodes_spanned=100.0)
    assert b.width_limit >= 0.009
    b2 = AdaptiveMBRBatcher(
        "s", 2, width_limit=0.01, min_width=0.001, max_width=0.011, target_span=2.0
    )
    for _ in range(50):
        b2.add(np.array([0.0]))
        b2.add(np.array([0.0001]))
        b2.feedback(nodes_spanned=1.0)
    assert b2.width_limit <= 0.011


def test_adaptation_converges_toward_target_span():
    """Closed loop: spans proportional to emitted width drive the limit
    to where spans ~= target."""
    b = AdaptiveMBRBatcher("s", 50, width_limit=0.5, target_span=2.0, min_width=1e-5)
    rng = np.random.default_rng(0)
    density = 200.0  # nodes per unit of feature value
    v = 0.0
    spans = []
    for _ in range(3000):
        v += rng.normal(0.0, 0.01)
        m = b.add(np.array([v]))
        if m is not None:
            span = (m.high[0] - m.low[0]) * density + 1.0
            spans.append(span)
            b.feedback(span)
    late = np.mean(spans[-50:])
    assert late < 4.0  # near the target of 2, far below the initial ~100


def test_estimate_system_size():
    ring = ChordRing(m=16)
    n = 64
    for i in range(n):
        ring.create_node(f"dc-{i}")
    ring.build()
    estimates = [estimate_system_size(node) for node in ring]
    # harmonic-ish spread, but the median should be the right order
    assert n / 4 < float(np.median(estimates)) < n * 4


def test_estimate_single_node():
    ring = ChordRing(m=8)
    node = ChordNode("solo", 5, ring.space)
    assert estimate_system_size(node) == 1.0


def test_adaptive_system_reduces_span_overhead():
    """End to end: with adaptive precision on, MBR span messages per MBR
    drop substantially compared to plain w-batching."""
    from repro.core import KIND, MiddlewareConfig, StreamIndexSystem, WorkloadConfig

    wl = WorkloadConfig(qrate_per_s=0.0)

    def span_overhead(adaptive):
        cfg = MiddlewareConfig(
            window_size=64, batch_size=10, adaptive_mbr=adaptive, workload=wl
        )
        system = StreamIndexSystem(30, cfg, seed=11)
        system.attach_random_walk_streams()
        system.warmup()
        system.reset_stats()
        system.run(10_000.0)
        s = system.network.stats
        return s.sends_by_kind.get(KIND.MBR_SPAN, 0) / max(
            1, s.originations[KIND.MBR]
        )

    plain = span_overhead(False)
    adaptive = span_overhead(True)
    assert adaptive < plain * 0.6
