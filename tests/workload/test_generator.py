"""Tests for the query workload generator and scenario builders."""

import numpy as np
import pytest

from repro.core import KIND, MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.workload import QueryWorkload, build_scenario, run_measured


def fast_config(qrate=2.0):
    return MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=5_000.0,
            qrate_per_s=qrate,
            qmin_ms=3_000.0,
            qmax_ms=6_000.0,
            nper_ms=500.0,
        ),
    )


def test_hit_fraction_validation():
    system, _ = build_scenario(4, fast_config())
    with pytest.raises(ValueError):
        QueryWorkload(system, hit_fraction=1.5)


def test_poisson_arrivals_approximate_rate():
    system, workload = build_scenario(10, fast_config(qrate=5.0), seed=2)
    workload.start()
    system.warmup()
    before = len(workload.posted_query_ids)
    system.run(20_000.0)
    posted = len(workload.posted_query_ids) - before
    # 5 q/s over 20 s -> ~100; allow generous Poisson slack
    assert 60 < posted < 140


def test_zero_rate_posts_nothing():
    system, workload = build_scenario(4, fast_config(qrate=0.0), seed=3)
    workload.start()
    system.run(5_000.0)
    assert workload.posted_query_ids == []


def test_queries_have_table_i_lifespans():
    system, workload = build_scenario(6, fast_config(), seed=5)
    system.warmup()
    for _ in range(20):
        q = workload.make_query()
        assert 3_000.0 <= q.lifespan_ms <= 6_000.0
        assert len(q.pattern) == system.config.window_size
        assert q.radius == system.config.query_radius


def test_hit_queries_derived_from_live_streams():
    system, workload = build_scenario(6, fast_config(), seed=6)
    workload.hit_fraction = 1.0
    workload.noise = 0.0
    system.warmup()
    q = workload.make_query()
    # the pattern must equal some live stream's current window exactly
    windows = [
        s.extractor.window.values()
        for a in system.all_apps
        for s in a.sources.values()
        if s.extractor.ready
    ]
    assert any(np.allclose(q.pattern, w) for w in windows)


def test_hit_query_falls_back_to_random_before_warmup():
    system, workload = build_scenario(4, fast_config(), seed=7)
    workload.hit_fraction = 1.0
    q = workload.make_query()  # no stream has a full window yet
    assert len(q.pattern) == system.config.window_size


def test_post_one_records_origination():
    system, workload = build_scenario(6, fast_config(), seed=8)
    system.warmup()
    before = system.network.stats.originations[KIND.QUERY]
    qid = workload.post_one()
    assert system.network.stats.originations[KIND.QUERY] == before + 1
    assert qid in workload.posted_query_ids


def crashed_scenario(seed):
    """Eight warmed-up nodes with the first one in ring order crashed."""
    system = StreamIndexSystem(8, fast_config(), seed=seed, with_stabilizer=True)
    system.attach_random_walk_streams()
    workload = QueryWorkload(system, hit_fraction=1.0, noise=0.0)
    system.warmup()
    dead = system.app(0)
    system.fail_node(dead)
    return system, workload, dead


def test_queries_are_posted_only_at_live_nodes():
    system, workload, dead = crashed_scenario(seed=13)
    qids = [workload.post_one() for _ in range(60)]
    posted_at = {
        qid: app for app in system.all_apps for qid in app.similarity_results
    }
    assert all(posted_at[qid].node.alive for qid in qids)
    assert not dead.similarity_results


def test_hit_patterns_come_only_from_live_streams():
    system, workload, dead = crashed_scenario(seed=14)
    frozen = [src.extractor.window.values() for src in dead.sources.values()]
    assert frozen
    for _ in range(40):
        pattern = workload.make_query().pattern
        assert not any(np.array_equal(pattern, w) for w in frozen)


def test_run_measured_bundle():
    run = run_measured(
        8, config=fast_config(), seed=9, measure_ms=3_000.0, warmup_extra_ms=500.0
    )
    assert run.measured_ms == 3_000.0
    assert run.system.n_nodes == 8
    load = run.metrics.load_components()
    assert load["MBRs"] > 0
    assert run.queries_posted > 0


def test_run_measured_deterministic():
    a = run_measured(6, config=fast_config(), seed=11, measure_ms=2_000.0)
    b = run_measured(6, config=fast_config(), seed=11, measure_ms=2_000.0)
    assert a.metrics.load_components() == b.metrics.load_components()
    assert a.metrics.hop_components() == b.metrics.hop_components()


def test_run_measured_seed_sensitivity():
    a = run_measured(6, config=fast_config(), seed=11, measure_ms=2_000.0)
    b = run_measured(6, config=fast_config(), seed=12, measure_ms=2_000.0)
    assert a.metrics.load_components() != b.metrics.load_components()
