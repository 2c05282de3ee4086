"""Runtime invariant checker: ring health, placement, conservation."""

import numpy as np
import pytest

from repro.analysis import (
    assert_invariants,
    check_index_placement,
    check_invariants,
    check_message_conservation,
    check_ring,
)
from repro.analysis.invariants import InvariantError
from repro.chord import ChordNode, ChordRing
from repro.core import StreamIndexSystem
from repro.core.mbr import MBR
from repro.sim import Message, Network, Simulator


def built_ring(n=8, m=8):
    ring = ChordRing(m=m)
    for i in range(n):
        ring.create_node(f"dc-{i}")
    ring.build()
    return ring


# ------------------------------------------------------------ ring
def test_built_ring_is_healthy():
    report = check_ring(built_ring())
    assert report.ok
    assert report.checks_run > 8  # really swept succ/pred/ownership/fingers
    assert "OK" in report.summary()


def test_single_node_ring_is_healthy():
    ring = ChordRing(m=8)
    ring.create_node("solo")
    ring.build()
    assert check_ring(ring).ok


def test_broken_successor_detected():
    ring = built_ring()
    node = ring.node(ring.node_ids[0])
    node.successor = node  # points at itself instead of the true successor
    report = check_ring(ring, fingers=False)
    assert not report.ok
    assert any("successor" in v.message for v in report.violations)
    assert "violation" in report.summary()


def test_broken_predecessor_detected():
    ring = built_ring()
    node = ring.node(ring.node_ids[2])
    node.predecessor = None
    report = check_ring(ring, fingers=False)
    assert any("predecessor" in v.message for v in report.violations)


def test_stale_finger_detected_only_with_fingers_enabled():
    ring = built_ring()
    ids = ring.node_ids
    node = ring.node(ids[0])
    # make the most distant finger wrong (but keep succ/pred intact)
    node.fingers[-1] = node
    strict = check_ring(ring, fingers=True)
    relaxed = check_ring(ring, fingers=False)
    assert not strict.ok and any("finger" in v.message for v in strict.violations)
    assert relaxed.ok


def test_empty_ring_is_a_violation():
    assert not check_ring(ChordRing(m=8)).ok


# ------------------------------------------------------------ placement
def small_system(n=8):
    system = StreamIndexSystem(n, seed=3)
    system.attach_random_walk_streams()
    system.warmup()
    return system


def test_routed_mbrs_are_well_placed():
    system = small_system()
    report = check_index_placement(system)
    assert report.ok
    assert report.checks_run > 0  # MBRs actually existed and were checked


def test_misplaced_mbr_detected():
    system = small_system()
    # force an MBR onto a node that does NOT cover its key range
    mbr = MBR(low=np.array([0.1, 0.1]), high=np.array([0.2, 0.2]), stream_id="rogue")
    klow, khigh = system.mapper.key_range(*mbr.first_coordinate_interval)
    covering = {node.node_id for node in system.ring.nodes_covering_range(klow, khigh)}
    outsider = next(
        app for app in system.all_apps if app.node.node_id not in covering
    )
    outsider.index.add_mbr(mbr, expires=system.sim.now + 60_000.0)
    report = check_index_placement(system)
    assert not report.ok
    assert any("rogue" in v.message for v in report.violations)


def test_expired_mbrs_are_ignored():
    system = small_system()
    mbr = MBR(low=np.array([0.1, 0.1]), high=np.array([0.2, 0.2]), stream_id="stale")
    klow, khigh = system.mapper.key_range(*mbr.first_coordinate_interval)
    covering = {node.node_id for node in system.ring.nodes_covering_range(klow, khigh)}
    outsider = next(
        app for app in system.all_apps if app.node.node_id not in covering
    )
    outsider.index.add_mbr(mbr, expires=system.sim.now - 1.0)  # already expired
    assert check_index_placement(system).ok


# ------------------------------------------------------------ conservation
def test_in_flight_message_balances():
    sim = Simulator()
    net = Network(sim)
    net.hop(1, 2, Message(kind="mbr", payload=None, origin=1, dest_key=0), lambda m: None)
    assert net.in_flight == 1
    assert check_message_conservation(net).ok  # balanced while airborne
    sim.run()
    assert net.in_flight == 0
    assert check_message_conservation(net).ok  # and after arrival


def test_unaccounted_send_detected():
    sim = Simulator()
    net = Network(sim)
    net.stats.record_send(1, "mbr")  # a send that never went through hop()
    report = check_message_conservation(net)
    assert not report.ok
    assert "conservation" in report.violations[0].message


def test_conservation_holds_across_stats_reset():
    system = small_system()
    system.run(500.0)
    system.reset_stats()  # messages are mid-flight at this instant
    assert system.network.stats.in_flight_at_reset == system.network.in_flight
    system.run(5_000.0)
    assert check_message_conservation(system.network).ok


# ------------------------------------------------------------ ownership
def test_overlapping_ownership_arc_detected():
    ring = built_ring()
    ids = ring.node_ids
    node = ring.node(ids[3])
    # widen the node's arc backwards: it now claims keys the true
    # predecessor owns (and its predecessor pointer is wrong too)
    node.predecessor = ring.node(ids[1])
    report = check_ring(ring, fingers=False)
    assert not report.ok
    assert any(
        "owned by its predecessor" in v.message for v in report.violations
    )
    assert any("predecessor is" in v.message for v in report.violations)


def test_shrunken_ownership_arc_detected():
    ring = built_ring()
    ids = ring.node_ids
    node = ring.node(ids[3])
    true_pred = ring.node(ids[2])
    # a phantom predecessor one key past the true one shrinks the arc:
    # the first key of the node's true range is now unowned by anyone
    phantom = ChordNode(
        "phantom", (true_pred.node_id + 1) % ring.space.size, ring.space
    )
    node.predecessor = phantom
    report = check_ring(ring, fingers=False)
    assert not report.ok
    assert any("start of its arc" in v.message for v in report.violations)


# ------------------------------------------------------------ delivery
def test_missing_role_handler_detected():
    from repro.core.protocol import MbrPublish

    system = small_system()
    app = system.all_apps[0]
    # corrupt one node's dispatch map: every other node still routes
    # MbrPublish, so this node would silently drop protocol traffic
    del app.dispatch[MbrPublish]
    from repro.analysis import check_delivery_policy

    report = check_delivery_policy(system)
    assert not report.ok
    assert any(
        "MbrPublish has no role handler" in v.message
        for v in report.violations
    )


def test_dedup_memory_inconsistency_detected():
    from repro.analysis import check_delivery_policy

    system = small_system()
    app = system.all_apps[0]
    # an id in the seen-set that the FIFO eviction queue never recorded
    # can never be evicted: the dedup memory is out of sync
    app._seen_deliveries.add(10**9)
    report = check_delivery_policy(system)
    assert not report.ok
    assert any(
        "dedup memory inconsistent" in v.message for v in report.violations
    )


# ------------------------------------------------------------ conservation
def test_negative_in_flight_detected():
    sim = Simulator()
    net = Network(sim)
    net.in_flight = -1  # an arrival was double-counted somewhere
    report = check_message_conservation(net)
    assert not report.ok
    assert any(
        "negative in-flight count" in v.message for v in report.violations
    )


def test_conservation_message_names_both_sides():
    sim = Simulator()
    net = Network(sim)
    net.stats.record_send(1, "mbr")
    report = check_message_conservation(net)
    assert any(
        "conservation broken" in v.message and "receives(0)" in v.message
        for v in report.violations
    )


# ------------------------------------------------------------ replication
def test_missing_replica_copy_detected():
    from repro.analysis.invariants import check_replica_placement
    from repro.core import MiddlewareConfig, WorkloadConfig

    config = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        replication_factor=2,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=10_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    system = StreamIndexSystem(8, config, seed=4, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()
    system.stabilizer.stabilize_until_converged()
    period = system.stabilizer.period_ms
    system.run(3.0 * period + 60.0 * system.config.hop_delay_ms)
    for proc in system._stream_procs:
        proc.stop()
    system.run(3.0 * period + 60.0 * system.config.hop_delay_ms)
    report = check_replica_placement(system)
    assert report.ok and report.checks_run > 0  # converged and replicated
    # wipe every installed replica: each owner's successor copy is gone
    for app in system.all_apps:
        app.holder.replication.store.clear()
    report = check_replica_placement(system)
    assert not report.ok
    assert any("holds no copy" in v.message for v in report.violations)


# ------------------------------------------------------------ combined
def test_full_sweep_and_assert_on_steady_system():
    system = small_system()
    report = assert_invariants(system)
    assert report.ok and report.checks_run > 100


def test_assert_raises_with_summary():
    system = small_system()
    node = system.ring.node(system.ring.node_ids[0])
    node.successor = node
    with pytest.raises(InvariantError, match="successor"):
        assert_invariants(system)


def test_sweep_sections_can_be_disabled():
    system = small_system()
    system.network.stats.record_send(1, "mbr")  # break conservation only
    assert not check_invariants(system).ok
    assert check_invariants(system, messages=False).ok
