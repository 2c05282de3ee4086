"""Vectorised candidate scans must match the scalar MINDIST loop exactly."""

import math

import numpy as np
import pytest

from repro.core import MBR, LocalIndex
from repro.core.protocol import SimilaritySubscribe
from repro.perf.counters import counting
from repro.sim.rng import RngRegistry


def scalar_scan(index, feature, radius, now, skip=None):
    """The pre-vectorisation reference implementation, verbatim."""
    out = []
    for stream_id, entries in index._mbrs.items():
        if skip is not None and stream_id in skip:
            continue
        best = None
        for e in entries:
            if e.expires <= now:
                continue
            d = e.mbr.mindist(feature)
            if d <= radius and (best is None or d < best):
                best = d
        if best is not None:
            out.append((stream_id, float(best)))
    return out


def random_index(rng, n_streams=12, boxes_per_stream=5, dims=4):
    idx = LocalIndex()
    for s in range(n_streams):
        for b in range(boxes_per_stream):
            lo = rng.uniform(-1, 1, dims)
            hi = lo + rng.uniform(0, 0.5, dims)
            idx.add_mbr(
                MBR(low=lo, high=hi, stream_id=f"s{s}"),
                expires=float(rng.uniform(50, 150)),
            )
    return idx


def test_probe_equals_scalar_reference_exactly():
    rng = RngRegistry(seed=42).get("index-prop")
    for trial in range(20):
        idx = random_index(rng)
        q = rng.uniform(-1.5, 1.5, 4)
        radius = float(rng.uniform(0.05, 1.5))
        now = float(rng.uniform(0, 200))
        got = idx.probe(q, radius, now)
        want = scalar_scan(idx, q, radius, now)
        assert len(got) == len(want), trial
        for (gs, gd), (ws, wd) in zip(got, want):
            assert gs == ws
            assert gd == wd  # bit-identical, not merely isclose
            assert math.isclose(gd, wd, rel_tol=0.0, abs_tol=0.0)


def test_batched_dot_equals_per_row_dot_bit_for_bit():
    """The kernel's exact step, ``sqrt(vecdot(d, d))`` over a C-ordered
    ``(survivors, dims)`` block of clipped distances, equals the per-row
    ``sqrt(dot(d, d))`` of ``MBR.mindist`` bit for bit: both run the
    same BLAS dot on each contiguous row."""
    rng = np.random.default_rng(7)
    for dims in [*range(1, 33), 64, 100]:
        for n in (1, 2, 7, 64, 301):
            scale = 10.0 ** rng.integers(-6, 4, size=(n, 1))
            block = np.maximum(rng.normal(size=(2, n, dims)), 0.0) * scale
            delta = block[0] + block[1]  # as the kernel builds it
            got = np.sqrt(np.vecdot(delta, delta)).tolist()
            assert got == [math.sqrt(np.dot(row, row)) for row in delta], (dims, n)


def similarity_sub(query_id, feature, radius):
    return SimilaritySubscribe(
        query_id=query_id,
        client_id=7,
        feature=np.asarray(feature, dtype=np.float64),
        radius=radius,
        low_key=0,
        high_key=10,
        middle_key=5,
        lifespan_ms=1000.0,
    )


def test_scan_reuses_stack_until_store_changes():
    """A tick tests only the pairs the store changed since the last one."""
    rng = RngRegistry(seed=7).get("index-stack")
    idx = random_index(rng, n_streams=3, boxes_per_stream=2)
    idx.add_similarity_sub(similarity_sub(1, np.zeros(4), 10.0), expires=1_000.0)
    with counting() as ops:
        idx.new_candidates(now=0.0)  # a new sub: every stored row
    assert ops.get("index.rows_scanned") == 6
    with counting() as ops:
        idx.new_candidates(now=0.0)  # unchanged store: nothing to test
    assert ops.get("index.rows_scanned") == 0

    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="s0"), expires=99.0)
    with counting() as ops:
        idx.new_candidates(now=0.0)  # only the added row
    assert ops.get("index.rows_scanned") == 1

    # purge and take_mbrs remove rows; they add none to test
    idx.purge(now=1_000.0 - 1.0)
    idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id="s1"), expires=2_000.0)
    idx.take_mbrs(lambda e: e.mbr.stream_id == "s1")
    with counting() as ops:
        idx.new_candidates(now=1_000.0 - 1.0)
    assert ops.get("index.rows_scanned") == 0


def test_end_of_layout_insert_appends_without_rebuild():
    """Inserts anywhere in the store append to the tick's pending rows."""
    rng = RngRegistry(seed=13).get("index-append")
    idx = random_index(rng, n_streams=3, boxes_per_stream=2)
    matcher = idx._matcher
    assert matcher.pending is None  # no subscription: nothing tracked
    idx.add_similarity_sub(similarity_sub(1, np.zeros(4), 10.0), expires=1_000.0)
    idx.new_candidates(now=0.0)
    assert matcher.pending == []
    # the last stream in store order, a brand-new stream and a
    # mid-store stream all land at the end of the pending rows
    for sid in ("s2", "fresh", "s0"):
        idx.add_mbr(MBR(low=np.zeros(4), high=np.ones(4), stream_id=sid), expires=99.0)
    assert [e.mbr.stream_id for e in matcher.pending] == ["s2", "fresh", "s0"]
    assert all(e is idx._mbrs[e.mbr.stream_id][-1] for e in matcher.pending)
    ((_, found),) = idx.new_candidates(now=0.0)
    assert [sid for sid, _ in found] == ["fresh"]  # s0/s2 were reported before
    assert matcher.pending == []


def test_incremental_append_matches_full_rebuild_exactly():
    """Tick-by-tick delta matching equals a cold rescan of the whole store."""
    rng = RngRegistry(seed=3).get("index-append-eq")
    warm = LocalIndex()
    cold = LocalIndex()
    q = rng.uniform(-1.0, 1.0, 4)
    warm.add_similarity_sub(similarity_sub(1, q, 1.2), expires=1_000.0)
    matched = 0
    for step in range(60):
        lo = rng.uniform(-1, 1, 4)
        hi = lo + rng.uniform(0, 0.5, 4)
        mbr = MBR(low=lo, high=hi, stream_id=f"s{step % 5}")
        expires = float(rng.uniform(50, 150))
        warm.add_mbr(mbr, expires)
        cold.add_mbr(mbr, expires)
        reported = set(warm.similarity_subs[1].reported)
        ((_, got),) = warm.new_candidates(now=25.0)
        # a fresh sub on the cold index is tested against every row
        cold.similarity_subs.clear()
        cold.add_similarity_sub(similarity_sub(1, q, 1.2), expires=1_000.0)
        cold.similarity_subs[1].reported.update(reported)
        ((_, want),) = cold.new_candidates(now=25.0)
        assert got == want  # same streams, same order, bit-identical dists
        matched += len(got)
    assert matched > 0


def test_ragged_dimensionalities_fall_back_to_scalar():
    """A store holds one dimensionality: a mixed-dims insert is refused.

    The scalar reference raises on such a store at scan time (the
    mismatched stream's broadcast); the index raises earlier, at the
    insert, and keeps the store as it was.
    """
    idx = LocalIndex()
    idx.add_mbr(MBR(low=np.zeros(2), high=np.ones(2), stream_id="a"), expires=100.0)
    with pytest.raises(ValueError):
        idx.add_mbr(MBR(low=np.zeros(3), high=np.ones(3), stream_id="b"), expires=100.0)
    assert list(idx._mbrs) == ["a"]
    assert idx.probe(np.zeros(2), 5.0, now=0.0) == [("a", 0.0)]
    # once the store is empty, any dimensionality is welcome again
    idx.purge(now=200.0)
    idx.add_mbr(MBR(low=np.zeros(3), high=np.ones(3), stream_id="b"), expires=300.0)
    assert idx.probe(np.zeros(3), 5.0, now=200.0) == [("b", 0.0)]


def test_new_candidates_marks_reported_and_skips():
    idx = LocalIndex()
    idx.add_mbr(MBR(low=[0.0, 0.0], high=[0.1, 0.1], stream_id="s1"), expires=100.0)
    idx.add_mbr(MBR(low=[5.0, 5.0], high=[6.0, 6.0], stream_id="s2"), expires=100.0)
    sub = SimilaritySubscribe(
        query_id=1,
        client_id=7,
        feature=np.zeros(2),
        radius=0.5,
        low_key=0,
        high_key=10,
        middle_key=5,
        lifespan_ms=1000.0,
    )
    idx.add_similarity_sub(sub, expires=1_000.0)
    ((stored, first),) = idx.new_candidates(now=0.0)
    assert [sid for sid, _ in first] == ["s1"]
    assert stored.reported == {"s1"}
    # second scan: s1 skipped via the reported set
    assert idx.new_candidates(now=0.0) == [(stored, [])]
