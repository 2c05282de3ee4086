"""Tests for the window-fetch protocol and two-phase verification."""

import numpy as np
import pytest

from repro.core import MiddlewareConfig, SimilarityQuery, StreamIndexSystem, WorkloadConfig


def small_config(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=20_000.0,
            qrate_per_s=0.0,
            qmin_ms=5_000.0,
            qmax_ms=10_000.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


def warm_system(n=12, seed=41, **kw):
    system = StreamIndexSystem(n, small_config(**kw), seed=seed)
    system.attach_random_walk_streams()
    system.warmup()
    return system


def test_fetch_window_returns_source_window():
    system = warm_system()
    for proc in system._stream_procs:
        proc.stop()  # freeze windows so the fetched copy is comparable
    owner = system.app(3)
    sid = "stream-3"
    expected = owner.sources[sid].extractor.window.values()
    client = system.app(0)
    got = []
    client.runtime.client.fetch_window(sid, got.append)
    system.run(3_000.0)
    assert len(got) == 1
    assert np.allclose(got[0], expected)


def test_fetch_window_populates_locate_cache():
    system = warm_system(seed=42)
    client = system.app(0)
    got = []
    client.runtime.client.fetch_window("stream-5", got.append)
    system.run(3_000.0)
    assert got
    assert client.locate_cache["stream-5"] == system.app(5).node_id


def test_fetch_window_cached_source_is_direct():
    """A second fetch skips the location service (fewer query sends)."""
    system = warm_system(seed=43)
    client = system.app(0)
    first, second = [], []
    client.runtime.client.fetch_window("stream-7", first.append)
    system.run(3_000.0)
    sends_before = sum(
        v for (n, k), v in system.network.stats.sends.items() if k.startswith("query")
    )
    client.runtime.client.fetch_window("stream-7", second.append)
    system.run(3_000.0)
    sends_after = sum(
        v for (n, k), v in system.network.stats.sends.items() if k.startswith("query")
    )
    assert first and second
    # the direct fetch costs at most the location-service fetch
    assert sends_after - sends_before <= sends_before


def test_fetch_unknown_stream_never_calls_back():
    system = warm_system(seed=44)
    client = system.app(0)
    got = []
    client.runtime.client.fetch_window("no-such-stream", got.append)
    system.run(3_000.0)
    assert got == []


def test_concurrent_fetches_resolve_independently():
    system = warm_system(seed=45)
    for proc in system._stream_procs:
        proc.stop()
    client = system.app(0)
    results = {}
    for i in (2, 4, 6):
        client.runtime.client.fetch_window(
            f"stream-{i}", lambda w, i=i: results.__setitem__(i, w)
        )
    system.run(3_000.0)
    assert set(results) == {2, 4, 6}
    for i, w in results.items():
        expected = system.app(i).sources[f"stream-{i}"].extractor.window.values()
        assert np.allclose(w, expected)


def test_verify_similarity_prunes_false_positives():
    system = warm_system(n=14, seed=46)
    for proc in system._stream_procs:
        proc.stop()
    donor = system.app(4).sources["stream-4"]
    query = SimilarityQuery(
        pattern=donor.extractor.window.values(), radius=0.3, lifespan_ms=15_000.0
    )
    client = system.app(0)
    qid = client.post_similarity_query(query)
    system.run(6_000.0)
    candidates = client.similarity_results[qid]
    assert candidates
    verified_out = []
    client.verify_similarity(query, candidates, verified_out.append)
    system.run(5_000.0)
    assert len(verified_out) == 1
    verified = dict(verified_out[0])
    # exactness: every verified pair truly satisfies the radius
    from repro.streams import z_normalize

    target = z_normalize(query.pattern)
    for sid, d in verified.items():
        owner = next(a for a in system.all_apps if sid in a.sources)
        w = z_normalize(owner.sources[sid].extractor.window.values())
        assert np.isclose(d, np.linalg.norm(w - target), atol=1e-9)
        assert d <= query.radius + 1e-9
    # completeness: the donor itself (exact match) survives refinement
    assert "stream-4" in verified
    assert verified["stream-4"] < 1e-9
    # soundness: no candidate above the radius survives
    for sid in {m.stream_id for m in candidates} - set(verified):
        owner = next(a for a in system.all_apps if sid in a.sources)
        w = z_normalize(owner.sources[sid].extractor.window.values())
        assert np.linalg.norm(w - target) > query.radius - 1e-9


def test_verify_similarity_empty_candidates():
    system = warm_system(seed=47)
    client = system.app(0)
    query = SimilarityQuery(
        pattern=np.arange(16.0), radius=0.1, lifespan_ms=1_000.0
    )
    out = []
    client.verify_similarity(query, [], out.append)
    system.run(100.0)
    assert out == [[]]


def test_verified_results_sorted_by_distance():
    system = warm_system(n=14, seed=48)
    for proc in system._stream_procs:
        proc.stop()
    donor = system.app(2).sources["stream-2"]
    query = SimilarityQuery(
        pattern=donor.extractor.window.values(), radius=1.2, lifespan_ms=15_000.0
    )
    client = system.app(0)
    qid = client.post_similarity_query(query)
    system.run(6_000.0)
    out = []
    client.verify_similarity(query, client.similarity_results[qid], out.append)
    system.run(5_000.0)
    dists = [d for _sid, d in out[0]]
    assert dists == sorted(dists)
    assert len(dists) >= 2
