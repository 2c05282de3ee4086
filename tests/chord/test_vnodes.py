"""Virtual nodes (DESIGN.md §13): naming, bookkeeping, per-physical ownership."""

from collections import Counter

import pytest

from repro.analysis.invariants import check_physical_ownership
from repro.chord import ChordRing
from repro.chord.vnodes import VirtualNodeMap, vnode_names
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
# VirtualNodeMap bookkeeping
# ----------------------------------------------------------------------
def test_vmap_register_and_aggregate():
    ring = ChordRing(m=16)
    vmap = VirtualNodeMap()
    for i in range(3):
        for node in ring.create_virtual_nodes(f"dc-{i}", 2):
            vmap.register(node)
    assert len(vmap) == 3
    assert "dc-1" in vmap
    tokens = vmap.tokens_of("dc-1")
    assert len(tokens) == 2
    per_token = {tokens[0]: 3.0, tokens[1]: 4.0}
    agg = vmap.aggregate_by_physical(per_token)
    assert agg["dc-1"] == 7.0
    assert agg["dc-0"] == 0.0  # tokens absent from per_token contribute 0


def test_vmap_register_is_idempotent():
    ring = ChordRing(m=16)
    vmap = VirtualNodeMap()
    (node,) = ring.create_virtual_nodes("dc-0", 1)
    vmap.register(node)
    vmap.register(node)
    assert vmap.tokens_of("dc-0") == [node.node_id]


def test_vmap_keeps_unregistered_load_visible():
    vmap = VirtualNodeMap()
    agg = vmap.aggregate_by_physical({42: 5.0})
    assert agg == {"N42": 5.0}  # never silently dropped


def test_vmap_forget_physical_releases_tokens():
    ring = ChordRing(m=16)
    vmap = VirtualNodeMap()
    nodes = ring.create_virtual_nodes("dc-0", 3)
    for node in nodes:
        vmap.register(node)
    ids = vmap.forget_physical("dc-0")
    assert sorted(ids) == sorted(n.node_id for n in nodes)
    assert "dc-0" not in vmap
    for node in nodes:
        assert vmap.physical_of(node.node_id) is None


def test_max_mean_ratio_edge_cases():
    assert VirtualNodeMap.max_mean_ratio({}) == 0.0
    assert VirtualNodeMap.max_mean_ratio({"a": 0.0, "b": 0.0}) == 0.0
    assert VirtualNodeMap.max_mean_ratio({"a": 2.0, "b": 2.0}) == 1.0
    assert VirtualNodeMap.max_mean_ratio({"a": 3.0, "b": 1.0}) == 1.5


# ----------------------------------------------------------------------
# table-driven ownership: per-physical arcs partition the circle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("v", [1, 2, 16])
def test_physical_ownership_partitions_circle(v):
    ring = ChordRing(m=16)
    vmap = VirtualNodeMap()
    n_physical = 8
    for i in range(n_physical):
        for node in ring.create_virtual_nodes(f"dc-{i}", v):
            vmap.register(node)
    ring.build()

    assert len(ring) == n_physical * v
    for i in range(n_physical):
        assert len(vmap.tokens_of(f"dc-{i}")) == v

    report = check_physical_ownership(ring)
    assert report.violations == []
    assert report.checks_run > 0

    # spot-check: every key's successor token maps back to a registered
    # physical node, and per-physical arc widths sum to the circle
    ids = ring.node_ids
    size = ring.space.size
    widths = {}
    for idx, node_id in enumerate(ids):
        pred = ids[(idx - 1) % len(ids)]
        phys = vmap.physical_of(node_id)
        assert phys is not None
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
        live_violations = [
            viol
            for viol in report.violations
            # physical nodes crashed on purpose legitimately have no
            # live tokens left in the vmap-backed report
            if "no live tokens" not in viol.message
        ]
        assert live_violations == []


def test_physical_crash_takes_all_tokens_down_atomically():
    system = StreamIndexSystem(
        5, cfg(virtual_nodes=3), seed=91, with_stabilizer=True
    )
    victim = system.app(0)
    phys = victim.node.physical_name
    tokens = system.vmap.tokens_of(phys)
    assert len(tokens) == 3
    system.fail_node(victim)
    system.stabilizer.stabilize_until_converged()
    for token_id in tokens:
        assert token_id not in system.ring.node_ids
    assert system.n_physical == 4
