"""Tests for the centralized and flooding baseline architectures."""

import numpy as np
import pytest

from repro.analysis import check_index_placement, check_invariants
from repro.baselines import CentralizedIndexSystem, FloodingIndexSystem
from repro.core import KIND, MiddlewareConfig, SimilarityQuery, WorkloadConfig


def small_config(**kw):
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


def live_pattern(system):
    src = next(
        s for a in system.all_apps for s in a.sources.values() if s.extractor.ready
    )
    return src.stream_id, src.extractor.window.values()


def test_baseline_requires_nodes():
    with pytest.raises(ValueError):
        CentralizedIndexSystem(0)


def test_duplicate_stream_rejected():
    system = FloodingIndexSystem(3, small_config())
    system.attach_stream(system.app(0), "s", lambda: 1.0)
    with pytest.raises(ValueError):
        system.app(0).attach_stream("s", lambda: 1.0)


def test_centralized_all_mbrs_at_center():
    system = CentralizedIndexSystem(8, small_config(), seed=1)
    system.attach_random_walk_streams()
    system.warmup()
    now = system.sim.now
    assert system.center.index.mbr_count(now) > 0
    for app in system.all_apps[1:]:
        assert app.index.mbr_count(now) == 0


def test_centralized_query_end_to_end():
    system = CentralizedIndexSystem(8, small_config(), seed=2)
    system.attach_random_walk_streams()
    system.warmup()
    sid, pattern = live_pattern(system)
    client = system.app(3)
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0)
    )
    system.run(4_000.0)
    assert any(m.stream_id == sid for m in client.similarity_results[qid])


def test_centralized_center_is_bottleneck():
    system = CentralizedIndexSystem(10, small_config(), seed=3)
    system.attach_random_walk_streams()
    system.warmup()
    system.reset_stats()
    system.run(8_000.0)
    loads = system.network.stats.load_by_node()
    # one endpoint of (almost) every message is the center
    center = system.center.node_id
    assert loads[center] / sum(loads.values()) > 0.4
    assert loads[center] == max(loads.values())


def test_centralized_center_sources_own_stream_without_messages():
    system = CentralizedIndexSystem(4, small_config(), seed=4)
    system.attach_random_walk_streams()
    system.warmup()
    # center's own MBRs were stored without a single MBR message from it
    center = system.center.node_id
    assert system.network.stats.sends.get((center, KIND.MBR), 0) == 0


def test_flooding_mbrs_stay_local():
    system = FloodingIndexSystem(8, small_config(), seed=5)
    system.attach_random_walk_streams()
    system.warmup()
    assert system.network.stats.sends_by_kind.get(KIND.MBR, 0) == 0
    now = system.sim.now
    for app in system.all_apps:
        assert app.index.mbr_count(now) > 0  # its own summaries


def test_flooding_query_reaches_all_nodes():
    system = FloodingIndexSystem(9, small_config(), seed=6)
    system.attach_random_walk_streams()
    system.warmup()
    system.reset_stats()
    client = system.app(2)
    pattern = np.sin(np.linspace(0, 2 * np.pi, 16)) + 50
    client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.05, lifespan_ms=5_000.0)
    )
    system.run(1_000.0)
    stats = system.network.stats
    assert stats.sends_by_kind[KIND.QUERY] == 1
    assert stats.sends_by_kind[KIND.QUERY_SPAN] == system.n_nodes - 2
    held = sum(1 for a in system.all_apps if a.index.similarity_subs)
    assert held == system.n_nodes


def test_flooding_query_end_to_end():
    system = FloodingIndexSystem(8, small_config(), seed=7)
    system.attach_random_walk_streams()
    system.warmup()
    sid, pattern = live_pattern(system)
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0)
    )
    system.run(4_000.0)
    assert any(m.stream_id == sid for m in client.similarity_results[qid])


def test_flooding_query_overhead_grows_with_n():
    def overhead(n):
        system = FloodingIndexSystem(n, small_config(), seed=8)
        system.attach_random_walk_streams()
        system.warmup()
        system.reset_stats()
        pattern = np.cos(np.linspace(0, 2 * np.pi, 16)) + 50
        for i in range(3):
            system.app(i).post_similarity_query(
                SimilarityQuery(pattern=pattern, radius=0.05, lifespan_ms=4_000.0),
            )
        system.run(500.0)
        m = system.figure_metrics(500.0)
        return m.overhead_components()["Query messages"]

    assert overhead(16) > overhead(8) * 1.7


def test_subscription_expiry_in_baselines():
    system = FloodingIndexSystem(5, small_config(), seed=9)
    system.attach_random_walk_streams()
    system.warmup()
    pattern = np.sin(np.linspace(0, 2 * np.pi, 16)) + 50
    qid = system.app(0).post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.05, lifespan_ms=1_000.0)
    )
    system.run(4_000.0)
    assert all(qid not in a.index.similarity_subs for a in system.all_apps)


def test_baseline_metrics_schema_matches_middleware():
    system = CentralizedIndexSystem(6, small_config(), seed=10)
    system.attach_random_walk_streams()
    system.warmup()
    system.reset_stats()
    system.run(3_000.0)
    m = system.figure_metrics(3_000.0)
    assert set(m.load_components()) == {
        "MBRs",
        "MBRs internal",
        "MBRs in transit",
        "Queries",
        "Responses",
        "Responses internal",
        "Responses in transit",
    }


def test_centralized_finds_donor_under_loss():
    """The strawmen run the runtime's fault injector and reliable delivery."""
    system = CentralizedIndexSystem(
        8, small_config(loss_rate=0.05, reliable_delivery=True), seed=12
    )
    system.attach_random_walk_streams()
    system.warmup()
    system.reset_stats()
    sid, pattern = live_pattern(system)
    client = next(a for a in system.all_apps if a is not system.center)
    qid = client.post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0)
    )
    system.run(4_000.0)
    stats = system.network.stats
    assert stats.total_drops() > 0
    assert sum(stats.retransmissions.values()) > 0
    assert any(m.stream_id == sid for m in client.similarity_results[qid])
    report = check_invariants(system)
    assert report.ok, report.summary()


@pytest.mark.parametrize("cls", [CentralizedIndexSystem, FloodingIndexSystem])
def test_strawmen_keep_runtime_invariants(cls):
    system = cls(8, small_config(), seed=13)
    system.attach_random_walk_streams()
    system.warmup()
    _, pattern = live_pattern(system)
    system.app(1).post_similarity_query(
        SimilarityQuery(pattern=pattern, radius=0.1, lifespan_ms=8_000.0)
    )
    system.run(2_000.0)
    report = check_invariants(system)
    assert report.ok, report.summary()
    # the index check asks the strawman's placement: an MBR copied to a
    # node that placement does not name is flagged
    now = system.sim.now
    holder = next(a for a in system.all_apps if a.index.mbr_count(now))
    stored = next(iter(holder.index.live_mbrs(now)))
    other = next(a for a in system.all_apps if a is not holder)
    other.index.add_mbr(stored.mbr, expires=stored.expires)
    misplaced = check_index_placement(system)
    assert [v.subject for v in misplaced.violations] == [f"N{other.node_id}"]
