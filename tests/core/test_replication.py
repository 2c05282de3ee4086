"""Tests for successor-list replication (DESIGN.md §10).

Covers the whole contract: inertness at r = 1, replica placement on
the successor list, hinted handoff after an owner dies, quorum vs
eventual query consistency, read-repair convergence, and a seeded
churn fuzz run asserting queries eventually see every live stream
again after the ring heals.
"""

import numpy as np
import pytest

from repro.analysis.invariants import check_replica_placement
from repro.core import (
    KIND,
    MiddlewareConfig,
    SimilarityQuery,
    StreamIndexSystem,
    WorkloadConfig,
)
from repro.core.mbr import MBR
from repro.core.protocol import ReplicaDigestPull, ReplicaPublish
from repro.core.roles.aggregator import AggregatorEntry
from repro.core.replication import quorum_threshold


def repl_config(r=2, **kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        replication_factor=r,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=10_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


def make_system(n=12, r=2, seed=0, **cfg_kw):
    system = StreamIndexSystem(n, repl_config(r, **cfg_kw), seed=seed, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()
    return system


def settle(system, rounds=3.0):
    """Stabilize the ring, then run long enough for anti-entropy
    re-pushes and their acks to drain."""
    system.stabilizer.stabilize_until_converged()
    period = system.stabilizer.period_ms
    system.run(rounds * period + 60.0 * system.config.hop_delay_ms)


def freeze_streams(system):
    """Stop ingestion so MBR versions cannot advance mid-assertion."""
    for proc in system._stream_procs:
        proc.stop()


def manager(app):
    return app.holder.replication


# ---------------------------------------------------------------- threshold
@pytest.mark.parametrize(
    "r, expected",
    [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4)],
)
def test_quorum_threshold_table(r, expected):
    assert quorum_threshold(r) == expected


# ---------------------------------------------------------------- r = 1
def test_replication_inert_at_r1():
    """At the default factor the subsystem must leave no trace: no
    messages, no stored copies, no stabilizer hook."""
    system = make_system(n=10, r=1, seed=2)
    settle(system)
    stats = system.network.stats
    for kind in (
        KIND.REPLICA,
        KIND.REPLICA_TRANSIT,
        KIND.REPLICA_ACK,
        KIND.REPLICA_PULL,
        KIND.HANDOFF,
        KIND.HANDOFF_TRANSIT,
    ):
        assert stats.sends_by_kind[kind] == 0
    assert system.replica_count() == 0
    assert system.stabilizer.on_round is None
    for app in system.all_apps:
        mgr = manager(app)
        assert not mgr.enabled
        assert not mgr.store and not mgr.outbound and not mgr.hints


# ---------------------------------------------------------------- placement
@pytest.mark.parametrize("r", [2, 3])
def test_replica_placement(r):
    """Every live primary on a span's last holder must have r - 1
    same-version copies on its first non-covering live successors."""
    system = make_system(n=16, r=r, seed=1)
    settle(system)
    # freeze the workload: with publication running there are always
    # freshly pushed placements legitimately awaiting their acks
    freeze_streams(system)
    settle(system)
    assert system.replica_count() > 0
    # only the span walk's last holder keeps outbound placements
    placements = 0
    for app in system.all_apps:
        mgr = manager(app)
        for placement in mgr.outbound.values():
            assert mgr.is_last_holder(placement.low_key, placement.high_key)
            placements += 1
    assert placements > 0
    # all placements confirmed once the anti-entropy round has drained
    assert system.replica_divergence() == 0.0
    report = check_replica_placement(system)
    assert report.ok, report.summary()
    assert report.checks_run > 0


def test_replica_copies_live_outside_primary_index():
    """An installed replica lands in the manager's store, never in the
    primary index — the index-placement invariant stays about covering
    nodes only — and the installer acks back to the owner."""
    system = make_system(n=8, r=2, seed=4)
    settle(system)
    app = system.app(0)
    other = system.app(1)
    now = system.sim.now
    payload = ReplicaPublish(
        mbr=MBR(low=np.array([0.1, 0.1]), high=np.array([0.2, 0.2]), stream_id="ghost"),
        source_id=other.node_id,
        low_key=123,
        high_key=456,
        owner_id=other.node_id,
        expires_ms=now + 5_000.0,
    )
    acks_before = system.network.stats.sends_by_kind[KIND.REPLICA_ACK]
    manager(app).install_replica(payload)
    assert "ghost" in manager(app).store
    assert "ghost" not in app.index._mbrs
    assert system.network.stats.sends_by_kind[KIND.REPLICA_ACK] == acks_before + 1
    # idempotent: re-installing the same version adds no second entry
    manager(app).install_replica(payload)
    assert len(manager(app).store["ghost"]) == 1


# ---------------------------------------------------------------- handoff
def test_hinted_handoff_redelivers_after_owner_death():
    """When a replica's owner dies, the copy must be handed off to the
    node that inherits the arc, and placement must converge again."""
    system = make_system(n=16, r=2, seed=3)
    settle(system)
    now = system.sim.now
    # pick a replica entry with plenty of remaining lifetime whose
    # owner is some *other* live node we can kill
    chosen = None
    for app in sorted(system.all_apps, key=lambda a: a.node_id):
        for entries in manager(app).store.values():
            for entry in entries:
                if entry.owner_id == app.node_id:
                    continue
                # the copy must outlive the post-failure settle window
                if entry.expires <= now + 7_000.0:
                    continue
                owner = system.app_by_id(entry.owner_id)
                if owner is not None and owner.node.alive:
                    chosen = (app, entry, owner)
                    break
            if chosen:
                break
        if chosen:
            break
    assert chosen is not None, "no replica entry available to hand off"
    holder_app, entry, owner = chosen
    before = system.network.stats.handoffs_drained.total()

    freeze_streams(system)
    system.fail_node(owner)
    settle(system, rounds=3.0)

    stats = system.network.stats
    assert stats.handoffs_enqueued.total() > 0
    assert stats.handoffs_drained.total() > before
    # the arc's current owner must now hold a same-version copy,
    # either promoted to primary or kept as a plain replica
    key = entry.high_key % system.ring.space.size
    inheritor = next(
        app
        for app in system.all_apps
        if app.node.alive and app.node.owns_key(key)
    )
    stream_id = entry.mbr.stream_id
    as_primary = any(
        s.expires == entry.expires
        for s in inheritor.index._mbrs.get(stream_id, ())
    )
    as_replica = any(
        e.expires == entry.expires
        for e in manager(inheritor).store.get(stream_id, ())
    )
    assert as_primary or as_replica
    assert system.handoff_backlog() == 0
    assert check_replica_placement(system).ok


# ---------------------------------------------------------------- consistency
def test_absorb_versioned_quorum_merge():
    """Table-driven quorum-merge semantics: a match is released only
    once ``quorum`` reporters agree on the freshest version seen."""
    entry = AggregatorEntry(query_id=1, client_id=5, expires=1e9, consistency="quorum")
    # first fresh reporter: recorded, below quorum
    assert entry.absorb_versioned([("s", 0.3)], reporter_id=10, versions={"s": 100.0}, quorum=2) == 0
    # a stale reporter does not count toward the quorum
    assert entry.absorb_versioned([("s", 0.4)], reporter_id=11, versions={"s": 50.0}, quorum=2) == 0
    assert entry.drain() == []
    # second fresh reporter completes the quorum; best agreeing
    # distance wins, the stale reporter's distance is ignored
    assert entry.absorb_versioned([("s", 0.2)], reporter_id=12, versions={"s": 100.0}, quorum=2) == 1
    assert entry.drain() == [("s", 0.2)]
    # released streams absorb nothing further
    assert entry.absorb_versioned([("s", 0.1)], reporter_id=13, versions={"s": 100.0}, quorum=2) == 0

    # a newer version invalidates earlier votes...
    entry = AggregatorEntry(query_id=2, client_id=5, expires=1e9, consistency="quorum")
    assert entry.absorb_versioned([("t", 0.5)], reporter_id=1, versions={"t": 100.0}, quorum=2) == 0
    assert entry.absorb_versioned([("t", 0.6)], reporter_id=2, versions={"t": 200.0}, quorum=2) == 0
    # ...and two reporters at the new version release the match
    assert entry.absorb_versioned([("t", 0.7)], reporter_id=3, versions={"t": 200.0}, quorum=2) == 1
    assert entry.drain() == [("t", 0.6)]


def _probe_identical_stream(consistency):
    """Run one wide query whose pattern equals a live stream's window
    under r = 3 and the given read mode; versions are frozen first so
    replica version tokens settle before anyone votes."""
    system = make_system(n=12, r=3, seed=3, consistency=consistency)
    settle(system)
    freeze_streams(system)
    settle(system)
    target = next(
        (a, s)
        for a in system.all_apps
        for s in a.sources.values()
        if s.extractor.ready
    )
    _, src = target
    pattern = src.extractor.window.values()
    client = system.app(0)
    query = SimilarityQuery(pattern=pattern, radius=0.8, lifespan_ms=8_000.0)
    qid = client.post_similarity_query(query)
    system.run(4_000.0)
    return system, src, client.similarity_results[qid]


def test_eventual_mode_finds_identical_stream():
    """Eventual reads keep the no-false-dismissal guarantee: the first
    report of the probed stream is released to the client."""
    system, src, matches = _probe_identical_stream("eventual")
    assert any(m.stream_id == src.stream_id for m in matches)
    # no quorum machinery ran
    assert system.network.stats.sends_by_kind[KIND.REPLICA_PULL] == 0


def test_quorum_mode_releases_agreeing_streams_and_read_repairs():
    """Quorum reads trade availability for consistency (DESIGN.md §10):
    matches with two agreeing version votes are released, streams whose
    freshest version has a single in-span voter are withheld, and the
    aggregator read-repairs the stale voters it saw."""
    system, src, matches = _probe_identical_stream("quorum")
    # plenty of streams do assemble a quorum end to end
    assert len(matches) >= 2
    # stale voters triggered read-repair pulls, and the pulled nodes
    # installed the pushed copies
    stats = system.network.stats
    assert stats.sends_by_kind[KIND.REPLICA_PULL] > 0
    assert sum(stats.read_repairs.values()) > 0
    assert any(
        manager(app).read_repairs_served > 0 for app in system.all_apps
    )


# ---------------------------------------------------------------- read repair
def test_read_repair_push_converges_stale_node():
    """serve_pull must push every copy newer than the puller's version
    straight to the stale node, which installs them as replicas."""
    system = make_system(n=12, r=2, seed=5)
    settle(system)
    # freeze the workload so versions cannot advance mid-test
    freeze_streams(system)
    now = system.sim.now
    # find a (fresh holder, stream, stale node) triple: some node with
    # a live copy and some node holding nothing at all for that stream
    found = None
    for app in system.all_apps:
        for stream_id, entries in app.index._mbrs.items():
            if not any(s.expires > now + 2_000.0 for s in entries):
                continue
            stale = next(
                (
                    other
                    for other in system.all_apps
                    if other.node_id != app.node_id
                    and manager(other).version_of(stream_id, now) == float("-inf")
                ),
                None,
            )
            if stale is not None:
                found = (app, stream_id, stale)
                break
        if found:
            break
    assert found is not None, "every node already holds every stream?"
    fresh_app, stream_id, stale_app = found
    version = manager(fresh_app).version_of(stream_id, now)
    assert version > now

    pull = ReplicaDigestPull(
        stale_id=stale_app.node_id,
        stream_id=stream_id,
        have_version_ms=float("-inf"),
    )
    manager(fresh_app).serve_pull(pull)
    system.run(100.0 * system.config.hop_delay_ms)

    now = system.sim.now
    assert manager(fresh_app).read_repairs_served >= 1
    assert manager(stale_app).version_of(stream_id, now) == version
    # repeat pull with the now-current version: nothing newer to push
    served = manager(fresh_app).read_repairs_served
    pull = ReplicaDigestPull(
        stale_id=stale_app.node_id,
        stream_id=stream_id,
        have_version_ms=version,
    )
    manager(fresh_app).serve_pull(pull)
    assert manager(fresh_app).read_repairs_served == served


# ---------------------------------------------------------------- churn fuzz
def _live_recall(system, client, qid, query):
    """Ground-truth recall of one similarity query: the fraction of
    live, in-radius streams of alive sources the client heard about."""
    feature = query.feature_vector(system.config.k)
    now = system.sim.now
    expected = set()
    for app in system.all_apps:
        if not app.node.alive:
            continue
        for stream_id, src in app.sources.items():
            last = src.last_publish
            if last is None:
                continue
            if src.last_publish_ms + last.lifespan_ms <= now:
                continue
            if last.mbr.mindist(feature) <= query.radius + 1e-12:
                expected.add(stream_id)
    if not expected:
        return None
    reported = {m.stream_id for m in client.similarity_results[qid]}
    return len(expected & reported) / len(expected)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_churn_fuzz_recall_recovers_after_heal(r):
    """Seeded loss + churn, then heal: once the ring re-stabilizes and
    the soft-state pipeline (plus replicas at r > 1) has caught up,
    repeated probes must eventually see every live matching stream."""
    system = make_system(
        n=12,
        r=r,
        seed=7,
        loss_rate=0.1,
        reliable_delivery=True,
        duplicate_rate=0.01,
    )
    settle(system)
    client = system.app(0)
    rng = np.random.default_rng(7)
    # churn: kill two random non-client nodes, let the damage land
    victims = [a for a in system.all_apps if a.node.alive and a.node_id != client.node_id]
    for idx in rng.choice(len(victims), size=2, replace=False):
        system.fail_node(victims[idx])
    system.run(1_000.0)
    # heal: stabilize, then let publication + anti-entropy refill
    settle(system, rounds=4.0)
    system.run(3_000.0)

    # probe around an actual live stream so the expected set is
    # non-empty; the wide radius pulls in its ring neighbours too
    anchor = next(
        s
        for a in system.all_apps
        if a.node.alive
        for s in a.sources.values()
        if s.extractor.ready
    )
    pattern = anchor.extractor.window.values()
    recall = 0.0
    for _ in range(4):  # "eventually": probes discount transport races
        probe = SimilarityQuery(pattern=pattern, radius=0.8, lifespan_ms=8_000.0)
        qid = client.post_similarity_query(probe)
        system.run(2_000.0)
        outcome = _live_recall(system, client, qid, probe)
        if outcome is None:
            continue
        recall = max(recall, outcome)
        if recall >= 1.0:
            break
    assert recall == 1.0
    if r > 1:
        assert check_replica_placement(system).ok
