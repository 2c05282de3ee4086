"""Churn tests: join, leave, fail, and stabilization convergence."""

import numpy as np
import pytest

from repro.chord import ChordNode, ChordRing, Stabilizer, find_successor
from repro.sim import Simulator


def build(n_nodes, m=16, seed=0):
    sim = Simulator()
    ring = ChordRing(m=m)
    for i in range(n_nodes):
        ring.create_node(f"dc-{i}")
    ring.build()
    stab = Stabilizer(sim, ring)
    stab.bootstrap_ring(list(ring))
    return sim, ring, stab


def assert_exact_routing(ring):
    rng = np.random.default_rng(1)
    nodes = list(ring)
    for _ in range(50):
        start = nodes[rng.integers(len(nodes))]
        key = int(rng.integers(ring.space.size))
        assert find_successor(start, key) is ring.successor_of_key(key)


def test_join_converges_to_exact_routing():
    sim, ring, stab = build(20)
    newcomer = ChordNode("newbie", 12345 % ring.space.size, ring.space)
    while newcomer.node_id in dict.fromkeys(ring.node_ids):
        newcomer = ChordNode("newbie2", newcomer.node_id + 1, ring.space)
    stab.join(newcomer, bootstrap=next(iter(ring)))
    stab.stabilize_until_converged()
    assert newcomer in list(ring)
    assert_exact_routing(ring)


def test_join_many_sequentially():
    sim, ring, stab = build(10)
    boot = next(iter(ring))
    for i in range(15):
        node = ChordNode(f"late-{i}", (7919 * (i + 1)) % ring.space.size, ring.space)
        if node.node_id in set(ring.node_ids):
            continue
        stab.join(node, bootstrap=boot)
        stab.stabilize_until_converged()
    assert_exact_routing(ring)


def test_graceful_leave():
    sim, ring, stab = build(20)
    victim = list(ring)[7]
    stab.leave(victim)
    assert not victim.alive
    stab.stabilize_until_converged()
    assert_exact_routing(ring)


def test_crash_failure_routes_around():
    sim, ring, stab = build(30)
    victims = list(ring)[5:8]
    for v in victims:
        stab.fail(v)
    stab.stabilize_until_converged()
    assert_exact_routing(ring)


def test_lookup_correct_even_before_fingers_fixed():
    """Successor pointers alone guarantee correctness (Chord's invariant)."""
    sim, ring, stab = build(20)
    victim = list(ring)[3]
    stab.fail(victim)
    # Do NOT stabilize: lookups must still terminate at the right node
    # (slowly) because dead fingers are skipped and successors are live.
    stab.stabilize_until_converged(max_rounds=200)
    assert_exact_routing(ring)


def test_periodic_maintenance_over_simulated_time():
    sim, ring, stab = build(15)
    victim = list(ring)[4]
    stab.fail(victim)
    sim.run(until=60_000.0)  # a minute of maintenance ticks
    assert_exact_routing(ring)


def test_fail_then_join_back():
    sim, ring, stab = build(12)
    victim = list(ring)[2]
    stab.fail(victim)
    stab.stabilize_until_converged()
    reborn = ChordNode(victim.name + "-reborn", victim.node_id, ring.space)
    stab.join(reborn, bootstrap=next(iter(ring)))
    stab.stabilize_until_converged()
    assert_exact_routing(ring)


def test_successor_list_survives_consecutive_failures():
    sim, ring, stab = build(20)
    ids = ring.node_ids[:]
    # fail three consecutive nodes (successor list length is 4)
    for nid in ids[3:6]:
        stab.fail(ring.node(nid))
    stab.stabilize_until_converged()
    assert_exact_routing(ring)


def test_shrink_to_two_nodes():
    sim, ring, stab = build(5)
    nodes = list(ring)
    for victim in nodes[2:]:
        stab.leave(victim)
        stab.stabilize_until_converged()
    assert len(ring) == 2
    assert_exact_routing(ring)


def test_convergence_reports_rounds():
    sim, ring, stab = build(10)
    rounds = stab.stabilize_until_converged()
    assert rounds >= 1


def test_nonconvergence_raises():
    sim, ring, stab = build(5)
    with pytest.raises(RuntimeError):
        stab.stabilize_until_converged(max_rounds=0)


def test_mass_failure_beyond_successor_list_recovers():
    """More simultaneous consecutive failures than the successor list
    covers (len-1 = 3): survivors must scavenge fingers/predecessor and
    rebuild the ring rather than declaring themselves alone."""
    sim, ring, stab = build(20)
    ids = ring.node_ids[:]
    for nid in ids[3:9]:  # six consecutive failures > SUCCESSOR_LIST_LEN - 1
        stab.fail(ring.node(nid))
    stab.stabilize_until_converged()
    assert len(ring) == 14
    assert_exact_routing(ring)
    assert stab.partitioned_nodes() == []


def test_mass_failure_half_the_ring_recovers():
    sim, ring, stab = build(16)
    victims = list(ring)[::2]  # every other node, simultaneously
    for v in victims:
        stab.fail(v)
    stab.stabilize_until_converged()
    assert len(ring) == 8
    assert_exact_routing(ring)


def test_emergency_successor_picks_nearest_clockwise():
    sim, ring, stab = build(12)
    node = list(ring)[0]
    # wipe the successor list entirely, keep fingers intact
    node.successor_list = []
    cand = Stabilizer._emergency_successor(node)
    assert cand is not None and cand.alive and cand is not node
    want = min(
        (c for c in ring if c is not node),
        key=lambda c: (c.node_id - node.node_id) % ring.space.size,
    )
    assert cand is want


def test_isolated_node_reports_partition_not_hang():
    """A node stripped of every live reference cannot repair itself; the
    convergence driver must say so explicitly instead of spinning."""
    sim, ring, stab = build(8)
    lonely = list(ring)[0]
    # sever every reference the node holds (as if all its known peers
    # crashed and their replacements are unreachable)
    lonely.successor = lonely
    lonely.successor_list = []
    lonely.predecessor = None
    lonely.fingers = [None] * ring.space.m
    # ... and every reference TO it, so nobody re-adopts it (the node is
    # alive but unreachable — e.g. behind a network partition)
    others = [n for n in ring if n is not lonely]  # ascending id order
    for i, other in enumerate(others):
        if other.successor is lonely:
            other.successor = others[(i + 1) % len(others)]
        other.successor_list = [s for s in other.successor_list if s is not lonely]
        if other.predecessor is lonely:
            other.predecessor = others[(i - 1) % len(others)]
        other.fingers = [f if f is not lonely else None for f in other.fingers]
    with pytest.raises(RuntimeError, match="partitioned"):
        stab.stabilize_until_converged(max_rounds=30)
    assert lonely in stab.partitioned_nodes()


def test_partitioned_nodes_empty_on_healthy_ring():
    sim, ring, stab = build(10)
    stab.stabilize_until_converged()
    assert stab.partitioned_nodes() == []


def test_single_node_ring_not_partitioned():
    sim, ring, stab = build(1)
    assert stab.partitioned_nodes() == []
