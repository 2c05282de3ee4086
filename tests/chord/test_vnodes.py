"""Virtual nodes (DESIGN.md §13): naming, per-physical load and ownership."""

from collections import Counter

import pytest

from repro.analysis.invariants import check_physical_ownership
from repro.chord import ChordRing
from repro.chord.vnodes import max_mean_ratio, vnode_names
from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig


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
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


# ----------------------------------------------------------------------
# the naming rule
# ----------------------------------------------------------------------
def test_vnode_names_is_identity_at_v1():
    # the byte-identity determinism pin rests on this
    assert vnode_names("dc-3", 1) == ["dc-3"]


def test_vnode_names_stable_and_collision_free():
    names = vnode_names("dc-0", 4)
    assert names == ["dc-0", "dc-0~v1", "dc-0~v2", "dc-0~v3"]
    assert len(set(names)) == 4
    # token names of different physical nodes never collide
    other = vnode_names("dc-1", 4)
    assert not set(names) & set(other)


def test_vnode_names_rejects_nonpositive_v():
    with pytest.raises(ValueError):
        vnode_names("dc-0", 0)


# ----------------------------------------------------------------------
# the skew metric
# ----------------------------------------------------------------------
def test_max_mean_ratio_edge_cases():
    assert max_mean_ratio({}) == 0.0
    assert max_mean_ratio({"a": 0.0, "b": 0.0}) == 0.0
    assert max_mean_ratio({"a": 2.0, "b": 2.0}) == 1.0
    assert max_mean_ratio({"a": 3.0, "b": 1.0}) == 1.5


# ----------------------------------------------------------------------
# table-driven ownership: per-physical arcs partition the circle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("v", [1, 2, 16])
def test_physical_ownership_partitions_circle(v):
    ring = ChordRing(m=16)
    n_physical = 8
    for i in range(n_physical):
        ring.create_virtual_nodes(f"dc-{i}", v)
    ring.build()

    assert len(ring) == n_physical * v
    tokens = Counter(node.physical_name for node in ring)
    assert tokens == {f"dc-{i}": v for i in range(n_physical)}

    report = check_physical_ownership(ring)
    assert report.violations == []
    assert report.checks_run > 0

    # spot-check: per-physical arc widths sum to the circle
    ids = ring.node_ids
    size = ring.space.size
    widths = {}
    for idx, node_id in enumerate(ids):
        pred = ids[(idx - 1) % len(ids)]
        phys = ring.node(node_id).physical_name
        widths[phys] = widths.get(phys, 0) + ((node_id - pred) % size or size)
    assert sum(widths.values()) == size
    assert all(w > 0 for w in widths.values())


@pytest.mark.parametrize("v", [1, 4])
def test_system_exposes_physical_aggregation(v):
    system = StreamIndexSystem(6, cfg(virtual_nodes=v), seed=7)
    assert system.n_physical == 6
    assert len(system.ring) == 6 * v
    load = system.physical_load()
    assert len(load) == 6
    assert set(load) == {f"dc-{i}" for i in range(6)}


def test_crashed_physical_load_stays_in_physical_load():
    system = StreamIndexSystem(
        5, cfg(virtual_nodes=2), seed=92, with_stabilizer=True
    )
    for i, app in enumerate(system.all_apps):
        system.attach_stream(app, f"s{i}", lambda: 1.0)
    system.run(2_000.0)
    victim = system.app(0)
    phys = victim.node.physical_name
    before = system.physical_load()[phys]
    assert before > 0
    system.fail_node(victim)
    system.run(2_000.0)
    load = system.physical_load()
    assert set(load) == {f"dc-{i}" for i in range(5)}
    assert load[phys] >= before  # the crashed node's load is still counted
    assert sum(load.values()) == sum(system.network.stats.load_by_node().values())


# ----------------------------------------------------------------------
# churn fuzz: joins and physical crashes keep per-physical invariants
# ----------------------------------------------------------------------
def test_churn_fuzz_preserves_physical_invariants():
    system = StreamIndexSystem(
        6, cfg(virtual_nodes=2), seed=90, with_stabilizer=True
    )
    rng = system.rngs.fork("test-churn", 0)
    system.attach_stream(system.app(0), "s", lambda: 1.0)
    joined = 0
    for step in range(8):
        if rng.random() < 0.5:
            app = system.join_node(f"late-{joined}")
            joined += 1
            assert app is not None
        else:
            live = [a for a in system.all_apps if a.node.alive]
            if system.n_physical > 3:
                system.fail_node(live[int(rng.integers(len(live)))])
        system.run(1_500.0)
        system.stabilizer.stabilize_until_converged()

        # every surviving physical node still has all of its tokens live
        tokens = Counter(node.physical_name for node in system.ring)
        for phys, count in tokens.items():
            assert count == 2, f"{phys} lost a token independently"
        # the union of per-physical arcs still partitions the circle
        report = check_physical_ownership(system.ring)
        assert report.violations == []


def test_physical_crash_takes_all_tokens_down_atomically():
    system = StreamIndexSystem(
        5, cfg(virtual_nodes=3), seed=91, with_stabilizer=True
    )
    victim = system.app(0)
    phys = victim.node.physical_name
    tokens = [a.node_id for a in system.all_apps if a.node.physical_name == phys]
    assert len(tokens) == 3
    system.fail_node(victim)
    system.stabilizer.stabilize_until_converged()
    for token_id in tokens:
        assert token_id not in system.ring.node_ids
    assert system.n_physical == 4
