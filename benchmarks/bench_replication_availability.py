"""Beyond the paper — query recall vs. replication factor under churn.

DESIGN.md §10's successor-list replication claims that index state
survives the loss of the data centers holding it.  This bench measures
that claim for ``r ∈ {1, 2, 3}`` on one scenario:

* publication is deliberately *sparse* (long value period, long MBR
  lifespan, no soft-state refresh): once a holder crashes, its index
  entries stay dark until the source's next natural publication, which
  is what makes durability the replica layer's job rather than the
  workload's;
* after a churn window on a lossy fabric the membership heals
  (stabilisation plus a drain for anti-entropy and hinted handoff);
* a *correlated failure burst* kills half of the data centers currently
  indexing the queried region, and a fresh probe query measures recall
  against a ground-truth oracle before the sources can republish.

At ``r = 1`` the crashed arcs have nothing to report; at ``r = 3`` their
successors answer from replicas.
"""

from bench_churn_availability import churn_system, merge_series

from repro.bench import format_series
from repro.core import KIND, MiddlewareConfig, SimilarityQuery, WorkloadConfig

N_NODES = 24
MEASURE_MS = 20_000.0
FACTORS = (1, 2, 3)
PROBE_RADIUS = 0.8


def similarity_recall(system, client, qid, query):
    """Ground-truth query recall, computed from the sources themselves.

    *Expected* is every stream whose source is alive and whose most
    recent publication is both still within its lifespan and inside the
    query ball (the oracle reads ``SourceState.last_publish`` directly,
    bypassing the overlay).  *Reported* is every stream the client ever
    received a match for.  ``None`` when nothing was expected.
    """
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


def _hot_holders(system, client, feature):
    """Live holders of covering placements inside the probe ball.

    Ranked most matching entries first, never the probing client.  Only
    *covering-placement* copies (the span walk derived from the MBR
    itself) count: at r > 1 hinted handoff promotes replicas into
    out-of-span primaries, and counting those would both grow the burst
    with r and aim it at the replica arcs.
    """
    now = system.sim.now
    size = system.ring.space.size
    loaded = []
    for app in system.all_apps:
        if not app.node.alive or app.node_id == client.node_id:
            continue
        matching = 0
        for entries in app.index._mbrs.values():
            for e in entries:
                if e.expires <= now or e.mbr.mindist(feature) > PROBE_RADIUS + 1e-12:
                    continue
                klow, khigh = system.mapper.key_range(*e.mbr.first_coordinate_interval)
                width = (khigh - klow) % size
                walked = (app.node_id - klow) % size
                if walked < width or app.node.owns_key(khigh % size):
                    matching += 1
        if matching:
            loaded.append((matching, app.node_id, app))
    loaded.sort(key=lambda t: (-t[0], t[1]))
    return [app for _, _, app in loaded]


def run_replicated(r, seed=7):
    """Recall and replication cost at replication factor ``r``."""
    config = MiddlewareConfig(
        window_size=16,
        batch_size=2,
        reliable_delivery=True,
        loss_rate=0.05,
        duplicate_rate=0.01,
        replication_factor=r,
        consistency="eventual",
        workload=WorkloadConfig(
            pmin_ms=4_000.0,
            pmax_ms=5_000.0,
            bspan_ms=16_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    system, client, churn, qid, query = churn_system(N_NODES, seed, config, 0.3, MEASURE_MS)
    system.stabilizer.stabilize_until_converged()
    system.run(2_000.0)

    # half the hot set: enough to darken r = 1, while a burst that
    # wipes out primaries *and* both replica arcs would exceed any
    # replica scheme's tolerance and prove nothing
    hot = _hot_holders(system, client, query.feature_vector(system.config.k))
    for app in hot[: max(1, len(hot) // 2)]:
        system.fail_node(app)
    system.stabilizer.stabilize_until_converged()

    # two probes: one sub's range span is fire-and-forget, so one lost
    # span copy can sever a whole probe from its aggregator — a
    # transport artifact, not the index durability measured here
    recalls = []
    for _ in range(2):
        probe = SimilarityQuery(pattern=query.pattern, radius=PROBE_RADIUS, lifespan_ms=10_000.0)
        probe_id = client.post_similarity_query(probe)
        system.run(1_500.0)
        outcome = similarity_recall(system, client, probe_id, probe)
        if outcome is not None:
            recalls.append(outcome)

    stats = system.network.stats
    mbr_events = max(1.0, float(stats.originations[KIND.MBR]))
    return {
        "query recall": max(recalls) if recalls else 1.0,
        "eventual delivery": system.eventual_delivery_ratio(),
        "msgs per mbr event": float(sum(stats.sends_by_kind.values())) / mbr_events,
        "replica divergence": system.replica_divergence(),
        "handoff backlog": float(system.handoff_backlog()),
        "replica pushes": float(stats.sends_by_kind[KIND.REPLICA]),
        "handoffs drained": float(sum(stats.handoffs_drained.values())),
        "read repairs": float(sum(stats.read_repairs.values())),
        "matches": float(len(client.similarity_results[qid])),
        "failures": float(churn.failures),
        "joins": float(churn.joins),
    }


def test_availability_vs_replication(benchmark, save_result):
    def compute():
        return merge_series(run_replicated(r) for r in FACTORS)

    series = benchmark.pedantic(compute, rounds=1, iterations=1)
    save_result(
        "replication_availability",
        format_series(
            f"Recall vs replication (N={N_NODES}, churn 0.3/s, loss 0.05, "
            f"correlated burst on the hot holders)",
            "replication factor r",
            FACTORS,
            series,
        ),
    )

    recall = series["query recall"]
    # three copies survive a burst that darkens half the hot holders
    assert recall[2] == 1.0
    assert recall[2] >= recall[0]
    # acks + retries still settle every delivery at every r
    assert all(e >= 0.99 for e in series["eventual delivery"])
