"""The epoch-keyed next_hop memo: hits, invalidation, churn safety."""

from repro.chord.idspace import IdSpace
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing
from repro.chord.routing import find_successor, next_hop
from repro.chord.stabilize import Stabilizer
from repro.core import MiddlewareConfig, WorkloadConfig
from repro.perf.counters import counting
from repro.sim.engine import Simulator
from repro.workload.scenario import run_measured


def build_ring(n, m=16):
    ring = ChordRing(m=m)
    for i in range(n):
        ring.create_node(f"dc-{i}")
    ring.build()
    return ring


def test_cached_hop_identical_to_fresh(tmp_path=None):
    ring = build_ring(24)
    node = next(iter(ring))
    for key in range(0, ring.space.size, ring.space.size // 97):
        first = next_hop(node, key)
        again = next_hop(node, key)
        assert again == first
        node._nh_arcs = None
        node._nh_epoch = -1
        fresh = next_hop(node, key)
        assert fresh == first


def test_counters_record_hits_and_misses():
    ring = build_ring(12)
    node = next(iter(ring))
    with counting() as ops:
        next_hop(node, 123)  # miss: builds the arc table
        next_hop(node, 123)
        next_hop(node, 456)  # different key, same table: still a hit
    assert ops.get("route.cache_misses") == 1
    assert ops.get("route.cache_hits") == 2


def test_membership_change_invalidates_cache():
    ring = build_ring(10)
    start = next(iter(ring))
    # Warm every node's memo along some lookup paths.
    keys = [7, 1000, 54321, ring.space.size - 1]
    before = {k: find_successor(start, k).node_id for k in keys}
    assert before == {k: ring.successor_of_key(k).node_id for k in keys}

    # Add a node and rebuild: the epoch moves, memos must not serve the
    # old owner for keys the newcomer now covers.
    newcomer = ring.create_node("late-joiner")
    ring.build()
    for k in list(keys) + [newcomer.node_id]:
        assert find_successor(start, k) is ring.successor_of_key(k)


def test_remove_invalidates_cache():
    ring = build_ring(10)
    start = next(iter(ring))
    victim = ring.successor_of_key(12345)
    assert find_successor(start, 12345) is victim
    ring.remove(victim)
    ring.build()
    new_owner = ring.successor_of_key(12345)
    assert new_owner is not victim
    assert find_successor(start, 12345) is new_owner


def test_alive_check_rejects_stale_cached_hop():
    """Direct `alive` mutation (no epoch bump) must not serve a dead hop."""
    ring = build_ring(8)
    start = next(iter(ring))
    key = 999
    hop, _final = next_hop(start, key)  # now memoised
    assert start._nh_arcs is not None
    hop.alive = False  # simulate unsanctioned mutation
    again, _final = next_hop(start, key)
    assert again is not hop
    assert again.alive


def test_churn_with_stabilizer_converges_to_exact_routing():
    sim = Simulator()
    ring = ChordRing(m=16)
    nodes = [ring.create_node(f"dc-{i}") for i in range(16)]
    ring.build()
    stab = Stabilizer(sim, ring)
    stab.bootstrap_ring(list(ring))

    # Warm memos, then churn: two failures, one graceful leave, one join.
    start = nodes[0]
    for key in range(0, ring.space.size, ring.space.size // 31):
        find_successor(start, key)
    stab.fail(nodes[5])
    stab.fail(nodes[9])
    stab.leave(nodes[11])
    joiner = ChordNode("joiner", 4242, ring.space)
    stab.join(joiner, start)
    stab.stabilize_until_converged()

    for key in range(0, ring.space.size, ring.space.size // 53):
        assert find_successor(start, key) is ring.successor_of_key(key)
        assert find_successor(joiner, key) is ring.successor_of_key(key)


def test_memo_size_is_bounded_by_routing_state_not_key_stream():
    """The arc table covers every key in O(m + r) entries."""
    ring = build_ring(6)
    node = next(iter(ring))
    for key in range(0, ring.space.size, 7):  # ~9 k distinct keys
        next_hop(node, key)
    breakpoints, results = node._nh_arcs
    bound = 2 + ring.space.m + len(node.successor_list)
    assert len(breakpoints) == len(results) <= bound


def test_arc_table_matches_uncached_for_every_key():
    """Exhaustive sweep on a small space: memoised == fresh, bit for bit."""
    from repro.chord.routing import _compute_hop

    ring = build_ring(10, m=8)
    for node in ring:
        for key in range(ring.space.size):
            assert next_hop(node, key) == _compute_hop(node, key)


def test_epoch_is_shared_per_space_not_global():
    a, b = IdSpace(8), IdSpace(8)
    assert a == b  # epoch excluded from equality
    before = b.routing_epoch
    a.note_routing_change()
    assert b.routing_epoch == before
    assert a.routing_epoch != b.routing_epoch or a is b


def test_route_memo_serves_scale_run():
    """At N=1000 the arc-keyed memo answers > 98 % of next-hop lookups.

    The Fig. 6(a) shape at scale (N=1000, w=16, k=2, one query every
    two seconds): every node builds its arc table once and serves every
    later lookup from it until membership changes.
    """
    config = MiddlewareConfig(
        window_size=16, k=2, batch_size=1, workload=WorkloadConfig(qrate_per_s=0.5)
    )
    with counting() as ops:
        run_measured(1_000, config=config, seed=0, warmup_extra_ms=1_000.0, measure_ms=3_000.0)
    hits = ops.get("route.cache_hits")
    lookups = hits + ops.get("route.cache_misses")
    assert hits / lookups > 0.98
