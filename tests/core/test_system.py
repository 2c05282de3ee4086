"""Unit tests for StreamIndexSystem assembly and membership API."""

import pytest

from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.chord import find_successor


def cfg(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=5_000.0,
            qrate_per_s=0.0,
            qmin_ms=2_000.0,
            qmax_ms=4_000.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


def test_apps_cover_all_ring_nodes():
    system = StreamIndexSystem(9, cfg(), seed=81)
    assert system.n_nodes == 9
    assert len(system.all_apps) == 9
    for node_id in system.ring.node_ids:
        assert system.app_by_id(node_id).node_id == node_id


def test_app_order_matches_ring_order():
    system = StreamIndexSystem(5, cfg(), seed=82)
    ordered_ids = [a.node_id for a in system.all_apps]
    assert ordered_ids == list(system.ring.node_ids)


def test_attach_stream_with_default_table_i_period():
    system = StreamIndexSystem(4, cfg(), seed=83)
    system.attach_stream(system.app(0), "s", lambda: 1.0)
    proc = system._stream_procs[-1]
    wl = system.config.workload
    assert wl.pmin_ms <= proc.period <= wl.pmax_ms


def test_attach_stream_with_explicit_period():
    system = StreamIndexSystem(4, cfg(), seed=84)
    system.attach_stream(system.app(0), "s", lambda: 1.0, period_ms=123.0)
    assert system._stream_procs[-1].period == 123.0


def test_join_requires_stabilizer():
    system = StreamIndexSystem(4, cfg(), seed=85)
    with pytest.raises(RuntimeError):
        system.join_node("late")
    with pytest.raises(RuntimeError):
        system.fail_node(system.app(0))


def test_join_node_becomes_full_member():
    system = StreamIndexSystem(8, cfg(), seed=86, with_stabilizer=True)
    before = system.n_nodes
    app = system.join_node("late-joiner")
    system.stabilizer.stabilize_until_converged()
    assert system.n_nodes == before + 1
    assert app in system.all_apps
    assert system.app_by_id(app.node_id) is app
    # fully routable
    assert find_successor(system.app(0).node, app.node_id) is app.node
    # it can source streams
    system.attach_stream(app, "fresh", lambda: 1.0)
    system.run(3_000.0)
    holders = [
        a for a in system.all_apps if a.index.registry.get("fresh") == app.node_id
    ]
    assert len(holders) == 1


def test_join_node_name_collision_resalts():
    system = StreamIndexSystem(4, cfg(), seed=87, with_stabilizer=True)
    a = system.join_node("dup")
    system.stabilizer.stabilize_until_converged()
    b = system.join_node("dup")
    system.stabilizer.stabilize_until_converged()
    assert a.node_id != b.node_id


def test_fail_node_removes_from_membership():
    system = StreamIndexSystem(8, cfg(), seed=88, with_stabilizer=True)
    victim = system.app(3)
    system.fail_node(victim)
    system.stabilizer.stabilize_until_converged()
    assert not victim.node.alive
    assert victim.node_id not in system.ring.node_ids


def test_fail_node_stops_the_victims_streams():
    """A crashed data center ingests no more values and publishes no more MBRs."""
    system = StreamIndexSystem(16, cfg(batch_size=2), seed=3, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()
    victim, bystander = system.app(5), system.app(6)
    (src,) = victim.sources.values()
    (other,) = bystander.sources.values()
    system.fail_node(victim)
    values, mbrs, published_ms = src.values_ingested, src.mbrs_published, src.last_publish_ms
    other_values = other.values_ingested
    system.run(10_000.0)
    assert (src.values_ingested, src.mbrs_published, src.last_publish_ms) == (
        values,
        mbrs,
        published_ms,
    )
    assert other.values_ingested > other_values  # the live streams keep going


def test_position_range_of_keys_simple():
    system = StreamIndexSystem(8, cfg(), seed=89)
    ids = system.ring.node_ids
    # the full circle covers every position
    lo, hi = system.position_range_of_keys(0, system.ring.space.size - 1)
    assert (lo, hi) == (0, len(ids))
    # a single node's own id covers exactly its position
    lo, hi = system.position_range_of_keys(ids[3], ids[3])
    assert (lo, hi) == (3, 4)


def test_warmup_fills_all_windows():
    system = StreamIndexSystem(6, cfg(), seed=90)
    system.attach_random_walk_streams()
    system.warmup()
    for a in system.all_apps:
        for s in a.sources.values():
            assert s.extractor.ready


def test_nper_processes_staggered():
    system = StreamIndexSystem(10, cfg(), seed=91)
    phases = {p._phase for p in system._nper_procs}
    assert len(phases) > 1  # not all nodes tick in the same instant
