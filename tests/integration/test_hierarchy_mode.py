"""End-to-end tests of the integrated Sec. VI-B hierarchy mode.

With ``MiddlewareConfig(hierarchy=True)``, summaries feed the leader
hierarchy from their content-placed nodes, and similarity queries whose
radius exceeds the threshold are served by a leader climb instead of
range replication.  Each node's role keeps its own store and leader
chain, rebuilt from the ring when membership changes, so joins and
crashes are served too.
"""

import numpy as np

from repro.core import KIND, MiddlewareConfig, SimilarityQuery, StreamIndexSystem, WorkloadConfig
from repro.core import hierarchy as hierarchy_module
from repro.streams.generators import RandomWalkGenerator


def hier_config(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        hierarchy=True,
        hierarchy_radius_threshold=0.3,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=60_000.0,
            qrate_per_s=0.0,
            qmin_ms=5_000.0,
            qmax_ms=10_000.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


def warm(n=16, seed=61, **kw):
    stabilizer = kw.pop("with_stabilizer", False)
    system = StreamIndexSystem(n, hier_config(**kw), seed=seed, with_stabilizer=stabilizer)
    system.attach_random_walk_streams()
    system.warmup()
    return system


def streams_known(app):
    """Stream ids with an unexpired entry at some level of ``app``'s store."""
    now = app.transport.now
    return {sid for (sid, _lv), e in app.hierarchy.store.items() if e.expires > now}


def root_of(system):
    """The app at ring position 0: the leader of every level."""
    return system.app_by_id(system.ring.node_ids[0])


def test_hierarchy_index_built_when_enabled():
    system = warm(n=8)
    assert root_of(system).hierarchy.store
    assert system.network.stats.sends_by_kind[KIND.HIER_UPDATE] > 0
    disabled = warm(n=4, seed=1, hierarchy=False)
    assert not any(app.hierarchy.store for app in disabled.all_apps)
    assert KIND.HIER_UPDATE not in disabled.network.stats.sends_by_kind


def test_hierarchy_runs_with_its_fixed_cluster_size_and_margin():
    """4-node bottom clusters and a 0.02 level-0 margin: no config field
    sets either."""
    assert hierarchy_module.CLUSTER_SIZE == 4
    assert hierarchy_module.BASE_MARGIN == 0.02
    system = warm(n=8)
    # positions 0 and 4 lead the two bottom clusters of 8 nodes
    assert {len(app.hierarchy._chain()) for app in system.all_apps} == {2}
    leaders = {app.hierarchy._chain()[0].leader for app in system.all_apps}
    assert leaders == {system.ring.node_ids[0], system.ring.node_ids[4]}


def test_summaries_reach_the_hierarchy_root():
    system = warm(n=16, seed=62)
    known = streams_known(root_of(system))
    # nearly every live stream should be represented at the root
    assert len(known) >= 0.8 * system.n_nodes


def test_narrow_query_still_uses_range_replication():
    system = warm(n=12, seed=63)
    system.reset_stats()
    donor = next(iter(system.app(3).sources.values()))
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(), radius=0.1, lifespan_ms=8_000.0
        )
    )
    system.run(4_000.0)
    # range replication produces similarity subscriptions at nodes
    held = sum(1 for a in system.all_apps if qid in a.index.similarity_subs)
    assert held >= 1


def test_wide_query_served_by_hierarchy():
    system = warm(n=16, seed=64)
    system.reset_stats()
    donor = next(iter(system.app(5).sources.values()))
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(), radius=0.8, lifespan_ms=8_000.0
        )
    )
    system.run(5_000.0)
    # no subscriptions were installed anywhere (no range replication) ...
    assert all(qid not in a.index.similarity_subs for a in system.all_apps)
    assert system.network.stats.sends_by_kind.get(KIND.QUERY_SPAN, 0) == 0
    # ... yet the client got a snapshot answer including the donor
    matches = client.similarity_results[qid]
    assert matches
    assert any(m.stream_id == donor.stream_id for m in matches)


def test_wide_query_no_false_dismissals_vs_brute_force():
    system = warm(n=16, seed=65)
    for proc in system._stream_procs:
        proc.stop()
    system.run(1_000.0)  # drain in-flight updates
    donor = next(iter(system.app(2).sources.values()))
    query = SimilarityQuery(
        pattern=donor.extractor.window.values(), radius=0.9, lifespan_ms=8_000.0
    )
    qfeat = query.feature_vector(system.config.k)
    truth = {
        s.stream_id
        for a in system.all_apps
        for s in a.sources.values()
        if s.extractor.ready
        and np.linalg.norm(s.extractor.feature_vector() - qfeat) <= query.radius
    }
    client = system.app(0)
    qid = client.post_similarity_query(query)
    system.run(5_000.0)
    found = {m.stream_id for m in client.similarity_results[qid]}
    assert truth <= found, f"hierarchy dismissed: {truth - found}"


def test_hierarchy_query_cheaper_than_replication():
    """The headline win: a near-full-range query costs O(log N) query
    messages through the hierarchy vs O(N) span copies without it."""
    def query_messages(hierarchy):
        system = warm(n=20, seed=66, hierarchy=hierarchy)
        system.reset_stats()
        donor = next(iter(system.app(3).sources.values()))
        system.app(0).post_similarity_query(
            SimilarityQuery(
                pattern=donor.extractor.window.values(),
                radius=1.0,
                lifespan_ms=6_000.0,
            )
        )
        system.run(3_000.0)
        s = system.network.stats
        return (
            s.sends_by_kind.get(KIND.QUERY, 0)
            + s.sends_by_kind.get(KIND.QUERY_SPAN, 0)
            + s.sends_by_kind.get("hier_query", 0)
        )

    with_h = query_messages(True)
    without_h = query_messages(False)
    assert with_h < without_h / 2


def test_hierarchy_entries_expire_with_bspan():
    system = warm(n=12, seed=67)
    for proc in system._stream_procs:
        proc.stop()
    donor = next(iter(system.app(2).sources.values()))
    bspan = system.config.workload.bspan_ms
    system.run(bspan + 5_000.0)
    assert all(not streams_known(app) for app in system.all_apps)
    # a whole-range query is still answered, but from expired entries only
    responses = system.network.stats.originations[KIND.RESPONSE]
    client = system.app(0)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(), radius=2.0, lifespan_ms=8_000.0
        )
    )
    system.run(2_000.0)
    assert system.network.stats.originations[KIND.RESPONSE] == responses + 1
    assert client.similarity_results[qid] == []


def test_join_feeds_the_newcomer_into_the_root():
    """A joining node gets its own store and leader chain: its summaries
    reach the root, and no one's chain still names the old membership."""
    system = warm(n=16, seed=62, with_stabilizer=True)
    newcomer = system.join_node("newcomer")
    walk = RandomWalkGenerator(system.rngs.fork("stream", 99))
    system.attach_stream(newcomer, "newcomer-stream", walk.next_value)
    system.run(3_000.0)
    assert "newcomer-stream" in streams_known(root_of(system))
    assert newcomer.hierarchy.store
    live = set(system.ring.node_ids)
    for app in system.all_apps:
        assert {c.leader for c in app.hierarchy._chain()} <= live


def test_root_crash_recovers_within_one_stabilization_round():
    """After the root leader crashes, every chain names a new root, and
    a wide query posted one stabilization round (500 ms) later returns
    the donor stream."""
    system = warm(n=16, seed=62, with_stabilizer=True)
    root = root_of(system)
    system.fail_node(root)
    system.run(system.stabilizer.period_ms)
    donor = next(iter(system.app(5).sources.values()))
    client = system.app(3)
    qid = client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(), radius=1.0, lifespan_ms=8_000.0
        )
    )
    system.run(1_000.0)
    found = {m.stream_id for m in client.similarity_results[qid]}
    assert donor.stream_id in found
    new_root = root_of(system)
    assert new_root is not root
    assert donor.stream_id in streams_known(new_root)
