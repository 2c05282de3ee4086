"""Steady-state conservation and boundedness invariants at moderate scale.

A full-stack run at N=60 with the Table I workload, checked for the
global invariants that catch subtle leaks or double-counting:

* storage boundedness — per-node MBR stores are bounded by
  (publication rate x BSPAN x replicas), i.e. expiry actually works;
* subscription boundedness — live subscriptions never exceed what the
  posted queries' ranges could have installed;
* conservation — every match a client received corresponds to a stream
  that actually exists, and each (query, stream) pair is delivered at
  most once;
* accounting closure — sends equal receives plus messages still in
  flight (nothing vanishes from the counters).
"""

import numpy as np

from repro.core import MiddlewareConfig, WorkloadConfig
from repro.workload import build_scenario

N = 60


def run_scenario(seed=111, measure_ms=15_000.0):
    cfg = MiddlewareConfig(
        window_size=64,
        batch_size=1,
        workload=WorkloadConfig(),  # full Table I
    )
    system, workload = build_scenario(N, cfg, seed=seed, hit_fraction=0.7)
    workload.start()
    system.warmup()
    system.run(measure_ms)
    return system, workload


def test_steady_state_invariants(invariant_check):
    system, workload = run_scenario()
    invariant_check(system)  # full analysis sweep at teardown, too
    now = system.sim.now
    wl = system.config.workload

    # ---- storage boundedness -----------------------------------------
    # each stream publishes at most 1/PMIN MBRs per second; each lives
    # BSPAN and is stored at >=1 node; total live MBRs is bounded by
    # N * (BSPAN/PMIN) * max_replicas (replicas ~1 at w=1, allow slack)
    total_mbrs = sum(a.index.mbr_count(now) for a in system.all_apps)
    per_stream_cap = wl.bspan_ms / wl.pmin_ms
    assert 0 < total_mbrs <= N * per_stream_cap * 3

    # ---- subscription boundedness -------------------------------------
    # every live subscription belongs to a posted, not-yet-expired query
    posted = set(workload.posted_query_ids)
    for a in system.all_apps:
        for qid, stored in a.index.similarity_subs.items():
            assert qid in posted
            assert stored.expires > now
    # and no query is subscribed at more than all nodes
    from collections import Counter

    sub_counts = Counter(
        qid for a in system.all_apps for qid in a.index.similarity_subs
    )
    assert all(c <= N for c in sub_counts.values())

    # ---- conservation of matches ---------------------------------------
    all_streams = {sid for a in system.all_apps for sid in a.sources}
    for a in system.all_apps:
        for qid, matches in a.similarity_results.items():
            assert qid in posted
            sids = [m.stream_id for m in matches]
            assert set(sids) <= all_streams
            # aggregator dedup: each stream reported to the client once
            assert len(sids) == len(set(sids))
            for m in matches:
                assert m.distance_bound <= 2.0 + 1e-9
                assert 0 <= m.time <= now

    # ---- accounting closure ---------------------------------------------
    stats = system.network.stats
    sends = sum(stats.sends.values())
    receives = sum(stats.receives.values())
    # receives can lag sends only by the messages currently in flight
    in_flight = sends - receives
    assert 0 <= in_flight <= 200
    # per-kind closure too
    from collections import defaultdict

    sends_k = defaultdict(int)
    recv_k = defaultdict(int)
    for (n, k), v in stats.sends.items():
        sends_k[k] += v
    for (n, k), v in stats.receives.items():
        recv_k[k] += v
    for kind, sent in sends_k.items():
        assert recv_k[kind] <= sent


def test_aggregator_seen_supersets_client_results():
    """Whatever a client received must have passed through (and still be
    recorded in) some aggregator's seen-set while the query lives."""
    system, workload = run_scenario(seed=112, measure_ms=10_000.0)
    agg_seen = {}
    for a in system.all_apps:
        for qid, agg in a.aggregator.aggregators.items():
            agg_seen.setdefault(qid, set()).update(agg.seen)
    for a in system.all_apps:
        for qid, matches in a.similarity_results.items():
            if qid in agg_seen:  # query still live with aggregation state
                assert {m.stream_id for m in matches} <= agg_seen[qid]


def test_load_roughly_balanced_at_scale(invariant_check):
    system, _ = run_scenario(seed=113, measure_ms=10_000.0)
    invariant_check(system)
    loads = np.array(sorted(system.network.stats.load_by_node().values()))
    assert len(loads) >= N - 1  # essentially every node touched traffic
    # no node is a runaway hotspot (an order of magnitude above median)
    assert loads[-1] < 20 * max(1.0, float(np.median(loads)))
