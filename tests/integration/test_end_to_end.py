"""Cross-module integration tests: full-system correctness properties."""

import numpy as np
import pytest

from repro.core import (
    KIND,
    LinearKeyMapper,
    MiddlewareConfig,
    QuantileKeyMapper,
    SimilarityQuery,
    StreamIndexSystem,
    WorkloadConfig,
)
from repro.streams import z_normalize
from repro.workload import QueryWorkload, build_scenario


def fast_config(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=3,
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


def test_no_false_dismissals_vs_brute_force():
    """Every stream whose *feature vector* is within ε of the query
    feature must be reported by the distributed index (the candidate
    set is a superset — Sec. IV-E)."""
    system = StreamIndexSystem(16, fast_config(), seed=21)
    system.attach_random_walk_streams()
    system.warmup()
    # freeze the streams so the ground truth cannot drift
    for proc in system._stream_procs:
        proc.stop()
    client = system.app(0)
    src = next(
        s for a in system.all_apps for s in a.sources.values() if s.extractor.ready
    )
    pattern = src.extractor.window.values()
    radius = 0.3
    query = SimilarityQuery(pattern=pattern, radius=radius, lifespan_ms=15_000.0)
    qfeat = query.feature_vector(system.config.k)
    truth = set()
    for a in system.all_apps:
        for s in a.sources.values():
            if not s.extractor.ready:
                continue
            d = float(np.linalg.norm(s.extractor.feature_vector() - qfeat))
            if d <= radius:
                truth.add(s.stream_id)
    qid = client.post_similarity_query(query)
    system.run(10_000.0)
    found = {m.stream_id for m in client.similarity_results[qid]}
    missing = truth - found
    assert not missing, f"false dismissals: {missing}"


def test_mbrs_stored_exactly_on_covering_nodes():
    system = StreamIndexSystem(12, fast_config(), seed=22)
    system.attach_random_walk_streams()
    system.warmup()
    now = system.sim.now
    mapper = system.mapper
    for a in system.all_apps:
        for e in a.index.live_mbrs(now):
            lo, hi = e.mbr.first_coordinate_interval
            klow, khigh = mapper.key_range(lo, hi)
            covering = {
                n.node_id for n in system.ring.nodes_covering_range(klow, khigh)
            }
            assert a.node_id in covering


def test_bidirectional_system_delivers_same_matches():
    def run(strategy, seed=23):
        cfg = fast_config(multicast=strategy)
        system = StreamIndexSystem(14, cfg, seed=seed)
        system.attach_random_walk_streams()
        system.warmup()
        for proc in system._stream_procs:
            proc.stop()
        client = system.app(0)
        src = next(
            s for a in system.all_apps for s in a.sources.values() if s.extractor.ready
        )
        q = SimilarityQuery(
            pattern=src.extractor.window.values(), radius=0.3, lifespan_ms=15_000.0
        )
        qid = client.post_similarity_query(q)
        system.run(10_000.0)
        return {m.stream_id for m in client.similarity_results[qid]}

    assert run("sequential") == run("bidirectional")


def test_quantile_mapper_system_end_to_end():
    """The system works unchanged with the CDF-based mapper, and load
    concentrates less on the hottest node."""
    def hottest_share(mapper_factory, seed=24):
        cfg = fast_config()
        probe = StreamIndexSystem(12, cfg, seed=seed)
        mapper = mapper_factory(probe)
        system = StreamIndexSystem(12, cfg, seed=seed, mapper=mapper)
        system.attach_random_walk_streams()
        system.warmup()
        system.reset_stats()
        system.run(8_000.0)
        dist = system.figure_metrics(8_000.0).load_distribution()
        return float(dist[-1] / max(1e-9, dist.sum()))

    def linear(probe):
        return LinearKeyMapper(probe.ring.space)

    def quantile(probe):
        # sample the feature distribution from a probe run
        probe.attach_random_walk_streams()
        probe.warmup()
        vals = [
            s.extractor.routing_coordinate()
            for a in probe.all_apps
            for s in a.sources.values()
            if s.extractor.ready
        ]
        return QuantileKeyMapper(probe.ring.space, vals + [-1.0, 1.0])

    assert hottest_share(quantile) <= hottest_share(linear) * 1.5


def test_churn_system_keeps_working():
    """Node failures during operation must not stop MBR flow or query
    answering once stabilization repairs the ring."""
    cfg = fast_config()
    system = StreamIndexSystem(16, cfg, seed=25, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()
    # fail two non-client nodes
    victims = [system.app(5), system.app(9)]
    for v in victims:
        # stop their stream processes to avoid dead sources spamming
        system.stabilizer.fail(v.node)
        system.transport.unregister_app(v.node)
    system.stabilizer.stabilize_until_converged()
    client = system.app(0)
    live_source = next(
        s
        for a in system.all_apps
        if a.node.alive and a not in victims
        for s in a.sources.values()
        if s.extractor.ready
    )
    q = SimilarityQuery(
        pattern=live_source.extractor.window.values(), radius=0.2, lifespan_ms=15_000.0
    )
    qid = client.post_similarity_query(q)
    system.run(10_000.0)
    assert any(
        m.stream_id == live_source.stream_id
        for m in client.similarity_results[qid]
    )


def test_many_concurrent_queries_all_get_responses():
    cfg = fast_config(workload=WorkloadConfig(
        pmin_ms=100.0, pmax_ms=100.0, bspan_ms=20_000.0,
        qrate_per_s=4.0, qmin_ms=5_000.0, qmax_ms=8_000.0, nper_ms=500.0,
    ))
    system, workload = build_scenario(12, cfg, seed=26, hit_fraction=1.0)
    workload.start()
    system.warmup()
    system.run(10_000.0)
    answered = 0
    for qid in workload.posted_query_ids:
        for a in system.all_apps:
            if a.similarity_results.get(qid):
                answered += 1
                break
    assert answered >= 0.6 * len(workload.posted_query_ids)


def test_stats_reset_isolates_measurement():
    system = StreamIndexSystem(8, fast_config(), seed=27)
    system.attach_random_walk_streams()
    system.warmup()
    assert system.network.stats.sends_by_kind[KIND.MBR] > 0
    system.reset_stats()
    assert system.network.stats.sends_by_kind.get(KIND.MBR, 0) == 0
    system.run(2_000.0)
    assert system.network.stats.sends_by_kind[KIND.MBR] > 0


def test_z_normalized_summaries_route_consistently():
    """The feature value a query computes for a stream's exact window
    must map inside the key range of the MBRs that window produced —
    otherwise puts and gets could miss each other."""
    system = StreamIndexSystem(10, fast_config(), seed=28)
    system.attach_random_walk_streams()
    system.warmup()
    mapper = system.mapper
    for a in system.all_apps:
        for s in a.sources.values():
            if not s.extractor.ready:
                continue
            window = s.extractor.window.values()
            qfeat = SimilarityQuery(
                pattern=window, radius=0.1, lifespan_ms=1_000.0
            ).feature_vector(system.config.k)
            v_inc = s.extractor.routing_coordinate()
            assert abs(qfeat[0] - v_inc) < 1e-6
