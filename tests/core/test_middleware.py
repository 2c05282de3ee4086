"""Integration-grade unit tests for the middleware node behaviour."""

import numpy as np
import pytest

from repro.core import (
    KIND,
    MiddlewareConfig,
    SimilarityQuery,
    StreamIndexSystem,
    WorkloadConfig,
    point_query,
    range_query,
)


def small_config(**kw):
    """A small, fast configuration for unit-level system tests."""
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=10_000.0,
            qrate_per_s=0.0,
            qmin_ms=5_000.0,
            qmax_ms=10_000.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


def make_system(n=10, seed=0, **cfg_kw):
    system = StreamIndexSystem(n, small_config(**cfg_kw), seed=seed)
    return system


def constant_then_sine(period=8, amp=5.0, base=50.0):
    """A deterministic generator producing a recognisable waveform."""
    state = {"t": 0}

    def gen():
        t = state["t"]
        state["t"] += 1
        return base + amp * np.sin(2 * np.pi * t / period)

    return gen


def test_system_requires_nodes():
    with pytest.raises(ValueError):
        StreamIndexSystem(0)


def test_attach_stream_registers_location():
    system = make_system(n=8)
    app = system.app(0)
    system.attach_stream(app, "s0", constant_then_sine())
    system.run(2_000.0)
    # some node must now hold the registry entry
    holders = [a for a in system.all_apps if a.index.registry.get("s0") == app.node_id]
    assert len(holders) == 1


def test_duplicate_stream_rejected():
    system = make_system(n=4)
    app = system.app(0)
    system.attach_stream(app, "s0", constant_then_sine())
    with pytest.raises(ValueError):
        app.attach_stream("s0", constant_then_sine())


def test_mbrs_published_and_stored():
    system = make_system(n=10)
    system.attach_random_walk_streams()
    system.warmup()
    total_stored = sum(a.index.mbr_count(system.sim.now) for a in system.all_apps)
    assert total_stored > 0
    published = sum(s.mbrs_published for a in system.all_apps for s in a.sources.values())
    assert published > 0
    assert system.network.stats.originations[KIND.MBR] == published


def test_mbr_expiry_honours_bspan():
    system = make_system(n=10)
    system.attach_random_walk_streams()
    system.warmup()
    # stop all stream processes, wait beyond BSPAN: stores must drain
    for proc in system._stream_procs:
        proc.stop()
    system.run(system.config.workload.bspan_ms + system.config.workload.nper_ms * 3)
    assert all(a.index.mbr_count(system.sim.now) == 0 for a in system.all_apps)


def test_similarity_query_finds_identical_stream():
    """A query whose pattern equals a live stream's window must match it
    (no false dismissals end-to-end)."""
    system = make_system(n=12, seed=3)
    system.attach_random_walk_streams()
    system.warmup()
    # find a source with a ready window
    target = next(
        (a, s) for a in system.all_apps for s in a.sources.values() if s.extractor.ready
    )
    app_t, src = target
    pattern = src.extractor.window.values()
    client = system.app(0)
    query = SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0)
    qid = client.post_similarity_query(query)
    system.run(6_000.0)
    matches = client.similarity_results[qid]
    assert any(m.stream_id == src.stream_id for m in matches)


def test_similarity_query_rejects_wrong_pattern_length():
    system = make_system(n=4)
    client = system.app(0)
    with pytest.raises(ValueError):
        client.post_similarity_query(
            SimilarityQuery(pattern=np.arange(7.0), radius=0.1, lifespan_ms=1000.0)
        )


def test_similarity_subscription_expires():
    system = make_system(n=10, seed=1)
    system.attach_random_walk_streams()
    system.warmup()
    client = system.app(0)
    pattern = np.sin(np.linspace(0, 4 * np.pi, system.config.window_size)) + 50
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.05, lifespan_ms=2_000.0)
    )
    system.run(1_000.0)
    held = sum(1 for a in system.all_apps if qid in a.index.similarity_subs)
    assert held >= 1
    system.run(6_000.0)  # well past lifespan + several NPER purges
    assert all(qid not in a.index.similarity_subs for a in system.all_apps)
    assert all(qid not in a.aggregators for a in system.all_apps)


def test_client_forgets_expired_queries_with_refresh_off():
    # refresh_period_ms=0 (the default) never runs the refresh tick, so
    # the client's NPER tick must retire expired soft-state records
    system = make_system(n=6, seed=2)
    assert system.config.refresh_period_ms == 0
    system.attach_random_walk_streams()
    system.warmup()
    app = system.app(0)
    client = app.runtime.client
    pattern = np.sin(np.linspace(0, 4 * np.pi, system.config.window_size)) + 50
    app.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.05, lifespan_ms=1_000.0)
    )
    app.post_inner_product_query(point_query("stream-0", 0, 1_000.0))
    assert client._active_sim_queries and client._active_ip_queries
    system.run(3_000.0)
    assert client._active_sim_queries == {}
    assert client._active_ip_queries == {}


def test_aggregator_created_at_middle_key_owner():
    system = make_system(n=10, seed=2)
    system.attach_random_walk_streams()
    system.warmup()
    client = system.app(0)
    pattern = system.app(1).sources["stream-1"].extractor.window.values()
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=9_000.0)
    )
    system.run(1_500.0)
    owners = [a for a in system.all_apps if qid in a.aggregators]
    assert len(owners) == 1
    agg = owners[0].aggregators[qid]
    assert agg.client_id == client.node_id


def test_middle_key_owner_builds_aggregator_at_a_tick_without_candidates():
    """Lazy takeover (``AggregatorService.aggregator_for``): a holder that
    owns a sub's middle key but holds no aggregator for it, as after its
    first owner died, builds one at its next detect tick even when that
    tick finds no candidate, because the tick visits every sub."""
    system = make_system(n=10, seed=2)  # no streams: no MBR is stored
    client = system.app(0)
    pattern = np.sin(np.linspace(0, 4 * np.pi, system.config.window_size))
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=9_000.0)
    )
    system.run(1_500.0)
    (owner,) = [a for a in system.all_apps if qid in a.aggregators]
    del owner.aggregators[qid]
    assert qid in owner.index.similarity_subs
    assert owner.index.mbr_count() == 0
    owner.runtime.holder.on_notification_tick(system.sim.now)
    assert qid in owner.aggregators
    assert owner.aggregators[qid].client_id == client.node_id


def test_matches_name_the_aggregator_that_pushed_them():
    system = make_system(n=10, seed=2)
    system.attach_random_walk_streams()
    system.warmup()
    client = system.app(0)
    pattern = system.app(1).sources["stream-1"].extractor.window.values()
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=9_000.0)
    )
    system.run(1_500.0)
    (owner,) = [a for a in system.all_apps if qid in a.aggregators]
    assert owner.node_id != client.node_id
    matches = client.similarity_results[qid]
    assert matches
    assert {m.reported_by for m in matches} == {owner.node_id}


def test_matches_deduplicated_at_aggregator():
    system = make_system(n=12, seed=4)
    system.attach_random_walk_streams()
    system.warmup()
    src = next(
        s for a in system.all_apps for s in a.sources.values() if s.extractor.ready
    )
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=src.extractor.window.values(), radius=0.1, lifespan_ms=9_000.0
        )
    )
    system.run(8_000.0)
    matches = [m for m in client.similarity_results[qid] if m.stream_id == src.stream_id]
    assert len(matches) <= 1  # reported exactly once despite many MBRs/nodes


def test_inner_product_query_end_to_end():
    system = make_system(n=10, seed=5)
    app_src = system.app(3)
    system.attach_stream(app_src, "wave", constant_then_sine())
    system.run(3_000.0)  # fill the window
    client = system.app(0)
    q = point_query("wave", system.config.window_size - 1, lifespan_ms=6_000.0)
    qid = client.post_inner_product_query(q)
    system.run(4_000.0)
    results = client.inner_product_results[qid]
    assert results, "no inner-product responses arrived"
    # A sine of period 8 in a 16-window is fully captured by k=2
    # coefficients, so every Eq. 7 reconstruction is exact: each pushed
    # value must be one of the waveform's sample values.  (The window
    # keeps sliding between responses, so we cannot pin the phase.)
    waveform = {round(50.0 + 5.0 * np.sin(2 * np.pi * t / 8), 6) for t in range(8)}
    for res in results:
        assert any(abs(res.value - w) < 1e-6 for w in waveform), res.value


def test_inner_product_caches_source_location():
    system = make_system(n=10, seed=6)
    app_src = system.app(2)
    system.attach_stream(app_src, "wave", constant_then_sine())
    system.run(3_000.0)
    client = system.app(5)
    qid = client.post_inner_product_query(point_query("wave", 0, 5_000.0))
    system.run(3_000.0)
    assert client.inner_product_results[qid]
    assert client.locate_cache.get("wave") == app_src.node_id


def test_inner_product_unknown_stream_gets_no_results():
    system = make_system(n=6)
    client = system.app(0)
    qid = client.post_inner_product_query(point_query("ghost", 0, 3_000.0))
    system.run(3_000.0)
    assert client.inner_product_results[qid] == []


def test_inner_product_index_bounds_checked():
    system = make_system(n=4)
    client = system.app(0)
    with pytest.raises(ValueError):
        client.post_inner_product_query(point_query("s", 99, 1_000.0))


def test_range_inner_product_tracks_average():
    system = make_system(n=8, seed=7)
    app_src = system.app(1)
    state = {"v": 0.0}

    def gen():
        state["v"] += 1.0
        return 10.0  # constant stream: every reconstruction is exact

    system.attach_stream(app_src, "flat", gen)
    system.run(3_000.0)
    client = system.app(4)
    q = range_query("flat", 0, system.config.window_size, lifespan_ms=5_000.0)
    qid = client.post_inner_product_query(q)
    system.run(3_000.0)
    results = client.inner_product_results[qid]
    assert results
    assert abs(results[-1].value - 10.0) < 1e-6


def test_response_latency_recorded():
    system = make_system(n=10, seed=8)
    system.attach_random_walk_streams()
    system.warmup()
    src = next(
        s for a in system.all_apps for s in a.sources.values() if s.extractor.ready
    )
    client = system.app(0)
    client.post_similarity_query(
        SimilarityQuery(
            pattern=src.extractor.window.values(), radius=0.1, lifespan_ms=9_000.0
        )
    )
    system.run(8_000.0)
    stats = system.network.stats
    assert stats.mean_hops(KIND.RESPONSE) > 0
    assert stats.mean_latency(KIND.RESPONSE) >= system.config.hop_delay_ms
