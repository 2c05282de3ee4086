"""Churn fuzz at scale: invariants hold after batched stabilization.

The unit churn tests (:mod:`tests.chord.test_stabilize`) exercise rings
of 10-30 nodes with per-node maintenance processes.  This module runs a
ring an order of magnitude larger -- 256 physical data centers x 4
virtual-node tokens = 1024 ring members at m = 20 -- under repeated
*correlated* churn (whole physical nodes crash-failing together, fresh
ones joining through a single bootstrap) with stabilization in cohort
(batched) mode, the O(cohorts)-timers layout that makes maintenance
affordable at N = 5000 (PERFORMANCE.md sec. 11).  After every churn
burst the ring must reconverge, and the full invariant sweep
(successors, predecessors, ownership partition, fingers, per-physical
arc coverage) must come back clean.
"""

from collections import Counter

import numpy as np
import pytest

from repro.analysis import check_physical_ownership, check_ring
from repro.chord import ChordRing, Stabilizer
from repro.sim import Simulator

pytestmark = pytest.mark.slow

N_PHYSICAL = 256
VNODES = 4
M_BITS = 20
COHORTS = 8
CHURN_ROUNDS = 5
CHURN_BATCH = 8  # physical nodes failed, and joined, per round


def build_scale_ring():
    sim = Simulator()
    ring = ChordRing(m=M_BITS)
    for i in range(N_PHYSICAL):
        ring.create_virtual_nodes(f"dc-{i}", VNODES)
    ring.build()
    stab = Stabilizer(sim, ring, cohorts=COHORTS)
    stab.bootstrap_ring(list(ring))
    return sim, ring, stab


def fresh_physical(ring, name):
    """Tokens for a not-yet-joined physical node, created then detached.

    ``create_virtual_nodes`` registers tokens as ring members outright
    (what the static build path wants) and resolves identifier
    collisions against the live membership while doing so.  A *joining*
    node must instead enter through the stabilizer, so detach the
    freshly minted tokens again and let ``join_physical`` re-add them
    one ordinary Chord join at a time.
    """
    tokens = ring.create_virtual_nodes(name, VNODES)
    for token in tokens:
        ring.remove(token)
    return tokens


def test_scale_churn_reconverges_with_clean_invariants():
    sim, ring, stab = build_scale_ring()
    rng = np.random.default_rng(7)
    live = [f"dc-{i}" for i in range(N_PHYSICAL)]
    joined = 0

    for _ in range(CHURN_ROUNDS):
        # correlated failures: every token of a physical node at once
        victims = rng.choice(len(live), size=CHURN_BATCH, replace=False)
        for idx in sorted(victims, reverse=True):
            name = live.pop(idx)
            stab.fail_physical([t for t in ring if t.physical_name == name])
        # fresh joins, all through one surviving bootstrap
        bootstrap = ring.node(ring.node_ids[0])
        for _ in range(CHURN_BATCH):
            name = f"late-{joined}"
            joined += 1
            stab.join_physical(fresh_physical(ring, name), bootstrap)
            live.append(name)
        stab.stabilize_until_converged(max_rounds=400)

    # membership balances out: every churn round swapped BATCH for BATCH
    assert len(live) == N_PHYSICAL
    assert len(ring) == N_PHYSICAL * VNODES
    assert joined == CHURN_ROUNDS * CHURN_BATCH

    # full sweep, fingers included: stabilize_until_converged repairs
    # all fingers once successors/predecessors are exact
    report = check_ring(ring)
    assert report.ok, report.summary()

    # per-physical arcs still partition the identifier circle
    ownership = check_physical_ownership(ring)
    assert ownership.ok, ownership.summary()

    # every live physical still owns exactly VNODES tokens, and no
    # crashed physical left a token behind
    tokens = Counter(token.physical_name for token in ring)
    assert tokens == {name: VNODES for name in live}
    assert all(token.alive for token in ring)


def test_scale_churn_cohort_mode_matches_per_node_mode():
    """Batched maintenance is a scheduling layout, not a protocol change.

    After identical churn, cohort mode and the historical per-node mode
    must converge to the same exact routing state (the ground truth is
    unique, so 'both clean sweeps' is the equivalence that matters).
    """
    for cohorts in (0, COHORTS):
        sim = Simulator()
        ring = ChordRing(m=M_BITS)
        for i in range(64):
            ring.create_virtual_nodes(f"dc-{i}", VNODES)
        ring.build()
        stab = Stabilizer(sim, ring, cohorts=cohorts)
        stab.bootstrap_ring(list(ring))
        rng = np.random.default_rng(11)
        ids = list(ring.node_ids)
        for idx in rng.choice(len(ids), size=12, replace=False):
            node = ring.node(ids[int(idx)])
            if node.alive:
                stab.fail(node)
        stab.stabilize_until_converged(max_rounds=400)
        report = check_ring(ring)
        assert report.ok, f"cohorts={cohorts}: {report.summary()}"
