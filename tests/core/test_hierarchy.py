"""Tests for the Sec. VI-B cluster hierarchy and its role service.

The role tests drive :class:`~repro.core.hierarchy.HierarchyService`
directly on a system without streams: node ``i`` is ``system.app(i)``,
the ``i``-th in ring order, which is the position the hierarchy
clusters by (so ``app(0)`` is the root and ``app(4)`` leads positions
4-7).
"""

import numpy as np
import pytest

from repro.core import KIND, MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core import hierarchy as hierarchy_module
from repro.core.hierarchy import ClusterHierarchy
from repro.core.mbr import MBR
from repro.core.protocol import HierarchyQuery
from repro.sim import Message


def make_hier(n=16, cluster_size=4):
    return ClusterHierarchy(list(range(n)), cluster_size=cluster_size)


def make_system(n=16, monkeypatch=None, base_margin=None, growth=None):
    """A stream-less system whose nodes run the hierarchy role."""
    if base_margin is not None:
        monkeypatch.setattr(hierarchy_module, "BASE_MARGIN", base_margin)
    if growth is not None:
        monkeypatch.setattr(hierarchy_module, "MARGIN_GROWTH", growth)
    cfg = MiddlewareConfig(m=16, hierarchy=True, workload=WorkloadConfig(qrate_per_s=0.0))
    return StreamIndexSystem(n, cfg, seed=0)


def point(v, sid="s"):
    return MBR.of_point(np.array([v, 0.0]), stream_id=sid)


def publish(system, pos, mbr):
    system.app(pos).hierarchy.publish(mbr, float("inf"))
    system.run(1_000.0)


def known(system, pos):
    return {sid for sid, _level in system.app(pos).hierarchy.store}


def updates_sent(system):
    return system.network.stats.sends_by_kind[KIND.HIER_UPDATE]


def updates_suppressed(system):
    return sum(
        e.updates_received - e.updates_forwarded
        for app in system.all_apps
        for e in app.hierarchy.store.values()
    )


_qids = iter(range(10_000, 20_000))


def query(system, pos, center, radius):
    """Deliver a wide query to ``app(pos)`` as its center-key owner.

    Returns the stream ids answered to it (as the client) and the
    contacts: the owner plus every leader the climb reached.
    """
    app = system.app(pos)
    qid = next(_qids)
    low, high = system.mapper.key_range(max(-1.0, center - radius), min(1.0, center + radius))
    climbs = system.network.stats.sends_by_kind[KIND.HIER_QUERY]
    app.deliver(
        app.node,
        Message(
            kind=KIND.QUERY,
            payload=HierarchyQuery(
                query_id=qid,
                client_id=app.node_id,
                feature=np.array([center, 0.0]),
                radius=radius,
                low_key=low,
                high_key=high,
            ),
            origin=app.node_id,
            dest_key=app.node_id,
        ),
    )
    system.run(1_000.0)
    contacts = 1 + system.network.stats.sends_by_kind[KIND.HIER_QUERY] - climbs
    return {m.stream_id for m in app.similarity_results.get(qid, [])}, contacts


def owner_position(system, value):
    """The ring position of the node owning ``value``'s key."""
    owner = system.ring.successor_of_key(system.mapper.key_of(value))
    return system.ring.node_ids.index(owner.node_id)


# ---------------------------------------------------------------- structure
def test_validation():
    with pytest.raises(ValueError):
        ClusterHierarchy([], cluster_size=4)
    with pytest.raises(ValueError):
        ClusterHierarchy([1, 2], cluster_size=1)


def test_levels_and_root():
    h = make_hier(16, 4)
    assert h.depth == 2
    assert len(h.levels[0]) == 4
    assert len(h.levels[1]) == 1
    assert h.root == 0


def test_uneven_division():
    h = ClusterHierarchy(list(range(10)), cluster_size=4)
    assert sum(len(c.members) for c in h.levels[0]) == 10
    sizes = [len(c.members) for c in h.levels[0]]
    assert sizes == [4, 4, 2]


def test_single_node_hierarchy():
    h = ClusterHierarchy([7], cluster_size=4)
    assert h.depth == 0
    assert h.root == 7
    assert h.leader_chain(7) == [7]


def test_leader_chain_reaches_root():
    h = make_hier(64, 4)
    for nid in (0, 5, 17, 63):
        chain = h.leader_chain(nid)
        assert chain[-1] == h.root
        assert len(chain) <= h.depth + 1


def test_cluster_of():
    h = make_hier(16, 4)
    c = h.cluster_of(6, 0)
    assert c is not None and 6 in c.members and c.leader == 4
    assert h.cluster_of(6, 1) is None  # 6 is not a level-0 leader
    assert h.cluster_of(4, 1) is not None


def test_level_for_coverage():
    h = make_hier(64, 4)
    assert h.level_for_coverage(0.0) == 0
    assert h.level_for_coverage(4 / 64) == 0
    assert h.level_for_coverage(10 / 64) == 1
    assert h.level_for_coverage(1.0) == h.depth - 1


def test_subtree_size():
    h = make_hier(64, 4)
    assert h.subtree_size(0) == 4
    assert h.subtree_size(1) == 16


# ---------------------------------------------------------------- updates
def test_publish_stores_at_every_chain_level():
    system = make_system(16)
    publish(system, 6, point(0.1, "s6"))
    # stored at source, its bottom leader (4), and the root (0)
    assert "s6" in known(system, 6)
    assert "s6" in known(system, 4)
    assert "s6" in known(system, 0)
    assert updates_sent(system) == 2


def test_margins_grow_with_level(monkeypatch):
    system = make_system(16, monkeypatch, base_margin=0.01, growth=2.0)
    publish(system, 6, point(0.1, "s6"))
    w_leaf = system.app(6).hierarchy.store[("s6", 0)].box.margin()
    w_root = max(e.box.margin() for e in system.app(0).hierarchy.store.values())
    assert w_root > w_leaf


def test_updates_suppressed_when_inside_widened_box(monkeypatch):
    system = make_system(16, monkeypatch, base_margin=0.05)
    publish(system, 6, point(0.10, "s6"))
    sent_before = updates_sent(system)
    publish(system, 6, point(0.11, "s6"))  # within the 0.05 margin
    assert updates_sent(system) == sent_before
    assert updates_suppressed(system) > 0


def test_large_move_propagates_again(monkeypatch):
    system = make_system(16, monkeypatch, base_margin=0.01)
    publish(system, 6, point(0.1, "s6"))
    sent_before = updates_sent(system)
    publish(system, 6, point(0.5, "s6"))
    assert updates_sent(system) > sent_before


def test_suppression_rate_grows_with_margin(monkeypatch):
    def suppressed(base_margin):
        system = make_system(16, monkeypatch, base_margin=base_margin)
        rng = np.random.default_rng(0)
        v = 0.0
        for _ in range(200):
            v += rng.normal(0, 0.005)
            system.app(3).hierarchy.publish(point(v, "s3"), float("inf"))
            system.run(200.0)
        return updates_suppressed(system)

    assert suppressed(0.05) > suppressed(0.001)


def test_changed_leader_is_filled_even_when_the_update_fits(monkeypatch):
    """A box that fits is still pushed to a level's *new* leader."""
    system = make_system(16, monkeypatch, base_margin=0.05)
    publish(system, 6, point(0.10, "s6"))
    hier = system.app(6).hierarchy
    hier.store[("s6", 0)].leader = -2  # as if pushed to a leader since gone
    sent_before = updates_sent(system)
    publish(system, 6, point(0.11, "s6"))  # fits the widened box
    assert updates_sent(system) == sent_before + 1
    assert hier.store[("s6", 0)].leader == system.app(4).node_id


# ---------------------------------------------------------------- queries
def test_small_query_answered_at_bottom_leader():
    system = make_system(16)
    pos = owner_position(system, 0.1)
    leader = pos - pos % 4
    publish(system, leader, point(0.1, "s-near"))
    found, contacts = query(system, pos, 0.1, radius=0.01)
    assert "s-near" in found
    assert contacts <= 2  # the owner and its bottom leader


def test_wide_query_climbs_to_root_and_sees_everything():
    system = make_system(16)
    for pos in range(16):
        publish(system, pos, point(pos / 16.0 - 0.5, f"s{pos}"))
    found, contacts = query(system, 9, 0.0, radius=1.0)
    assert found == {f"s{n}" for n in range(16)}
    assert contacts == 3  # 9 -> its bottom leader 8 -> the root 0


def test_query_contacts_logarithmic_vs_flat_linear():
    """The headline VI-B claim: wide queries contact O(log N) nodes
    instead of O(r*N)."""
    n = 64
    system = make_system(n)
    _, contacts = query(system, 37, 0.0, radius=0.5)
    depth = ClusterHierarchy(list(system.ring.node_ids), 4).depth
    flat_contacts = 0.5 * n  # the flat scheme's range replication
    assert contacts <= depth + 1
    assert contacts < flat_contacts / 4


def test_query_from_leader_itself():
    system = make_system(16)
    publish(system, 1, point(0.2, "s1"))
    found, contacts = query(system, 0, 0.2, radius=0.05)
    assert "s1" in found
    assert contacts == 1  # the root answers without a hop


def test_widened_boxes_never_cause_false_dismissals(monkeypatch):
    """Widening only inflates boxes, so every true candidate survives.

    Each stream is published at the node owning its value's key, as
    content placement does; the climb then reaches a leader whose
    subtree holds every stream inside the query's key range.
    """
    system = make_system(16, monkeypatch, base_margin=0.05, growth=3.0)
    rng = np.random.default_rng(1)
    truth = {}
    for i in range(16):
        v = float(rng.uniform(-0.5, 0.5))
        truth[f"s{i}"] = v
        publish(system, owner_position(system, v), point(v, f"s{i}"))
    r = 0.3
    found, _ = query(system, owner_position(system, 0.0), 0.0, radius=r)
    for sid, v in truth.items():
        if abs(v) <= r:  # a true match on the first coordinate
            assert sid in found


def test_climb_visits_exactly_the_covering_chain(monkeypatch):
    """Hop by hop, each leader deciding from its own chain, the climb
    contacts the leaders ``ClusterHierarchy.covering_chain`` names."""
    hops = []
    send = hierarchy_module.HierarchyService._send

    def recording_send(self, msg):
        if msg.kind == KIND.HIER_QUERY:
            hops.append(msg.dest_key)
        send(self, msg)

    monkeypatch.setattr(hierarchy_module.HierarchyService, "_send", recording_send)
    system = make_system(64)
    ids = list(system.ring.node_ids)
    reference = ClusterHierarchy(ids, 4)
    rng = np.random.default_rng(5)
    for _ in range(40):
        start = int(rng.integers(64))
        center, radius = float(rng.uniform(-1, 1)), float(rng.uniform(0.01, 1.0))
        low, high = system.mapper.key_range(max(-1.0, center - radius), min(1.0, center + radius))
        lo, hi = system.app(start).hierarchy.position_range_of_keys(low, high)
        hops.clear()
        query(system, start, center, radius)
        assert hops == reference.covering_chain(ids[start], lo, hi)
