"""Hierarchical feature-space partitioning for wide queries (Sec. VI-B).

The flat scheme replicates a similarity query across *every* node whose
arc intersects ``[h(q1-ε), h(q1+ε)]`` — linear in N for a fixed radius,
and close to the whole ring for large radii.  Sec. VI-B proposes a
cluster hierarchy, NICE-style: adjacent data centers (adjacent = ring
order = feature order under the Eq. 6 mapping) form constant-size
bottom clusters; each elects a leader; leaders cluster recursively up
to a single root.  A leader at level ℓ covers the feature interval of
its whole subtree (~``c^ℓ`` arcs), so a query whose interest volume
exceeds one node's arc climbs the leader chain — O(log_c N) contacts —
instead of being replicated across the range.

Updates flow the other way: each summary is forwarded up the chain, and
— per the section's final refinement — every level widens its stored
MBR by a growing margin, so upward updates are *suppressed* whenever
the new summary still fits the widened box ("nodes at the upper levels
of the hierarchy need to be updated less frequently at the expense of
having less precise information").

:class:`HierarchyService` is the fifth role of every
:class:`~repro.core.runtime.NodeRuntime`: each node keeps only its own
widened entries and its own leader chain, derived from its ring view
and rebuilt when membership changes, and every update, climb and answer
is a registered payload sent through the Transport seam, so the socket
peer runs the hierarchy exactly as the simulator does.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..sim.network import Message
from .mbr import MBR
from .protocol import (
    KIND,
    HierarchyAnswer,
    HierarchyClimb,
    HierarchyQuery,
    HierarchyUpdate,
    ResponsePush,
    next_delivery_id,
)
from .queries import SimilarityQuery
from .roles.base import RoleService, handles

__all__ = ["Cluster", "ClusterHierarchy", "HierarchyService"]

#: members per cluster (no config field sets it)
CLUSTER_SIZE = 4
#: widening margin per dimension at level 0; level ℓ widens by
#: ``BASE_MARGIN * MARGIN_GROWTH**ℓ`` ("upper levels need to be updated
#: less frequently"); pinned in tests/integration/test_hierarchy_mode.py
BASE_MARGIN = 0.02
MARGIN_GROWTH = 2.0


@dataclass
class Cluster:
    """One cluster at some level: member ids and the elected leader.

    ``lo_idx`` / ``hi_idx`` delimit (half-open) the *positions* — in the
    ring/feature order the hierarchy was built over — of the bottom
    nodes this cluster's subtree covers.  Under the Eq. 6 mapping,
    positions are monotone in feature value, so a cluster covers a
    contiguous feature interval.
    """

    level: int
    members: List[int]
    leader: int
    lo_idx: int = 0
    hi_idx: int = 0


class ClusterHierarchy:
    """The NICE-style leader hierarchy over a list of node identifiers.

    Nodes must be supplied in ring (= feature) order; consecutive runs
    of ``cluster_size`` nodes form the bottom clusters, and the first
    member of each cluster serves as its leader (any deterministic
    choice works; real deployments would elect by capacity).
    """

    def __init__(self, node_ids: List[int], cluster_size: int = 4) -> None:
        if cluster_size < 2:
            raise ValueError("cluster_size must be >= 2")
        if not node_ids:
            raise ValueError("need at least one node")
        self.cluster_size = cluster_size
        self.node_ids = list(node_ids)
        self.position = {nid: i for i, nid in enumerate(self.node_ids)}
        self.levels: List[List[Cluster]] = []
        current = list(node_ids)
        # positional coverage of each entry in `current` (half-open)
        spans = [(i, i + 1) for i in range(len(current))]
        level = 0
        while len(current) > 1:
            clusters = []
            for i in range(0, len(current), cluster_size):
                members = current[i : i + cluster_size]
                member_spans = spans[i : i + cluster_size]
                clusters.append(
                    Cluster(
                        level=level,
                        members=members,
                        leader=members[0],
                        lo_idx=member_spans[0][0],
                        hi_idx=member_spans[-1][1],
                    )
                )
            self.levels.append(clusters)
            current = [c.leader for c in clusters]
            spans = [(c.lo_idx, c.hi_idx) for c in clusters]
            level += 1
        self.root = current[0]
        # node -> its cluster per level (leaders appear at several levels)
        self._cluster_of: List[Dict[int, Cluster]] = []
        for clusters in self.levels:
            m: Dict[int, Cluster] = {}
            for c in clusters:
                for member in c.members:
                    m[member] = c
            self._cluster_of.append(m)

    @property
    def depth(self) -> int:
        """Number of cluster levels (0 for a single-node system)."""
        return len(self.levels)

    def cluster_of(self, node_id: int, level: int) -> Optional[Cluster]:
        """The cluster containing ``node_id`` at ``level`` (None if absent)."""
        if level >= len(self._cluster_of):
            return None
        return self._cluster_of[level].get(node_id)

    def leader_chain(self, node_id: int) -> List[int]:
        """Leaders from the node's bottom cluster up to the root (deduped)."""
        chain: List[int] = []
        current = node_id
        for level in range(self.depth):
            cluster = self.cluster_of(current, level)
            if cluster is None:
                break
            if cluster.leader != current or not chain:
                if not chain or chain[-1] != cluster.leader:
                    chain.append(cluster.leader)
            current = cluster.leader
        if not chain:
            chain = [node_id]
        return chain

    def subtree_size(self, level: int) -> int:
        """Approximate number of bottom nodes a level-``level`` leader covers."""
        return self.cluster_size ** (level + 1)

    def level_for_coverage(self, fraction: float) -> int:
        """The smallest level whose subtree covers ``fraction`` of all nodes.

        A query whose key range would span ``fraction * N`` nodes in the
        flat scheme is served by this level's leader instead.
        """
        fraction = min(max(fraction, 0.0), 1.0)
        needed = fraction * len(self.node_ids)
        for level in range(self.depth):
            if self.subtree_size(level) >= needed:
                return level
        return max(0, self.depth - 1)

    def covering_chain(self, start_node: int, lo_idx: int, hi_idx: int) -> List[int]:
        """Leaders to visit, in order, until one covers positions
        ``[lo_idx, hi_idx)``.

        Empty when ``start_node`` itself covers the range.  The climb is
        correct from *any* start node (worst case it reaches the root,
        which covers everything); it is cheapest when the start node is
        the owner of the query's center key, which is where the flat
        layer content-routes the query.
        """
        pos = self.position[start_node]
        if lo_idx >= pos and hi_idx <= pos + 1:
            return []
        chain: List[int] = []
        current = start_node
        for level in range(self.depth):
            cluster = self.cluster_of(current, level)
            if cluster is None:
                break
            if cluster.leader != current:
                chain.append(cluster.leader)
            current = cluster.leader
            if cluster.lo_idx <= lo_idx and cluster.hi_idx >= hi_idx:
                break
        return chain


@dataclass
class _LevelEntry:
    """A stream's widened MBR stored at one hierarchy node."""

    box: MBR
    expires: float
    #: where the update that widened ``box`` went next: the level's
    #: leader (this node when it leads the level), -1 if none
    leader: int
    updates_received: int = 0
    updates_forwarded: int = 0


class HierarchyService(RoleService):
    """The Sec. VI-B leader-hierarchy role of one data center.

    Keeps this node's widened entries, pushes a summary stored here by
    content placement up its leader chain, and serves the wide queries
    of the local client by a leader climb answered once, through the
    center-key owner.
    """

    role = "hierarchy"

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        #: (stream_id, level) -> widened entry, one per level this node serves
        self.store: Dict[Tuple[str, int], _LevelEntry] = {}
        #: this node's cluster per level along its leader chain: cluster
        #: ``ℓ + 1`` is the one its level-``ℓ`` leader is a member of
        self._clusters: List[Cluster] = []
        self._position = 0
        self._members: Tuple[int, ...] = ()
        self._epoch = -1

    def _chain(self) -> List[Cluster]:
        """This node's clusters per level, rebuilt when its ring view changes."""
        ring = self.system.ring
        if ring.space.routing_epoch != self._epoch:
            self._epoch = ring.space.routing_epoch
            members = tuple(ring.node_ids)
            if members != self._members:
                self._members = members
                hierarchy = ClusterHierarchy(list(members), CLUSTER_SIZE)
                self._position = hierarchy.position[self.node_id]
                self._clusters = []
                current = self.node_id
                for level in range(hierarchy.depth):
                    self._clusters.append(hierarchy.cluster_of(current, level))
                    current = self._clusters[-1].leader
        return self._clusters

    def _send(self, msg: Message) -> None:
        """One hop to the member ``msg.dest_key`` names; dropped if it has
        left this node's view, as a hop to a crashed node would be."""
        target = self.system.ring.successor_of_key(msg.dest_key)
        if target.node_id == msg.dest_key:
            self.transport.send_direct(self.node, target, msg)

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def publish(self, mbr: MBR, expires: float) -> None:
        """Store a summary placed here by content and push it up the chain."""
        self._store(mbr, 0, expires)

    @handles(HierarchyUpdate)
    def on_update(self, message: Message, payload: HierarchyUpdate) -> None:
        """A member pushed a summary up: store it one level higher."""
        self._store(payload.mbr, payload.level + 1, payload.expires_ms)

    def _store(self, mbr: MBR, level: int, expires: float) -> None:
        """Keep ``mbr`` widened at ``level`` and push it to the level's leader.

        The push is suppressed while the summary fits the box last pushed
        *and* the leader is the one it went to, so a new leader fills; a
        suppressed update still extends the entry's expiry.
        """
        clusters = self._chain()
        # a member at a level leads every level below it
        member = level < len(clusters) and (
            level == 0 or clusters[level - 1].leader == self.node_id
        )
        leader = clusters[level].leader if member else -1
        key = (mbr.stream_id, level)
        entry = self.store.get(key)
        if (
            entry is not None
            and entry.leader == leader
            and bool((mbr.low >= entry.box.low - 1e-12).all())
            and bool((mbr.high <= entry.box.high + 1e-12).all())
        ):
            entry.updates_received += 1
            entry.expires = max(entry.expires, expires)
            return
        margin = BASE_MARGIN * (MARGIN_GROWTH ** level)
        widened = MBR(
            low=mbr.low - margin,
            high=mbr.high + margin,
            stream_id=mbr.stream_id,
            count=mbr.count,
            created=mbr.created,
        )
        if entry is None:
            entry = self.store[key] = _LevelEntry(widened, expires, leader)
        entry.box, entry.expires, entry.leader = widened, expires, leader
        entry.updates_received += 1
        entry.updates_forwarded += 1
        if leader == self.node_id:
            # leading this level too: continue at the next (none above the root)
            if level + 1 < len(clusters):
                self._store(mbr, level + 1, expires)
        elif leader >= 0:
            update = HierarchyUpdate(mbr=mbr, level=level, expires_ms=expires)
            msg = Message(
                kind=KIND.HIER_UPDATE, payload=update, origin=self.node_id, dest_key=leader
            )
            self._send(msg)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def post_query(
        self, query: SimilarityQuery, feature: np.ndarray, klow: int, khigh: int
    ) -> None:
        """Route a wide query of the local client to its center key's owner."""
        payload = HierarchyQuery(
            query_id=query.query_id,
            client_id=self.node_id,
            feature=feature,
            radius=query.radius,
            low_key=klow,
            high_key=khigh,
            delivery_id=next_delivery_id(),
        )
        self._stats.record_origination(KIND.QUERY)
        self.runtime.reliable_route(
            payload,
            kind=KIND.QUERY,
            transit_kind=KIND.QUERY_TRANSIT,
            dest_key=self.system.mapper.key_of(float(feature[0])),
        )

    def position_range_of_keys(self, low_key: int, high_key: int) -> Tuple[int, int]:
        """Positions (ring-order indices) of the nodes covering a key range.

        Taken from actual key ownership, not from uniformly spread
        identifiers, so hierarchy-served queries dismiss no true match.
        """
        ring = self.system.ring
        positions = sorted(
            bisect_left(ring.node_ids, n.node_id)
            for n in ring.nodes_covering_range(low_key, high_key)
        )
        return positions[0], positions[-1] + 1

    @handles(HierarchyQuery)
    def on_hierarchy_query(self, message: Message, payload: HierarchyQuery) -> None:
        """Center-key owner: start the climb, unless its own arc covers."""
        lo_idx, hi_idx = self.position_range_of_keys(payload.low_key, payload.high_key)
        self._chain()  # brings ``_position`` up to date
        climb = HierarchyClimb(
            query_id=payload.query_id,
            client_id=payload.client_id,
            owner_id=self.node_id,
            feature=payload.feature,
            radius=payload.radius,
            lo_idx=lo_idx,
            hi_idx=hi_idx,
            level=0,
        )
        self._climb(climb, lo_idx >= self._position and hi_idx <= self._position + 1, 0)

    @handles(HierarchyClimb)
    def on_climb(self, message: Message, payload: HierarchyClimb) -> None:
        """A leader reached by the climb: scan here if its cluster covers."""
        clusters = self._chain()
        level = payload.level
        covered = level >= len(clusters) or (
            clusters[level].lo_idx <= payload.lo_idx
            and clusters[level].hi_idx >= payload.hi_idx
        )
        self._climb(payload, covered, level + 1)

    def _climb(self, climb: HierarchyClimb, covered: bool, first: int) -> None:
        """Pass ``climb`` to this node's first leader from level ``first``
        up, or scan here once a subtree this node leads covers the range.

        The level grows from hop to hop, so a climb ends within the
        hierarchy's depth even while views of the membership disagree.
        """
        clusters = self._chain()
        if not covered:
            for level in range(first, len(clusters)):
                cluster = clusters[level]
                if cluster.leader != self.node_id:
                    msg = Message(
                        kind=KIND.HIER_QUERY,
                        payload=replace(climb, level=level),
                        origin=self.node_id,
                        dest_key=cluster.leader,
                    )
                    self._send(msg)
                    return
                if cluster.lo_idx <= climb.lo_idx and cluster.hi_idx >= climb.hi_idx:
                    break
        now = self.transport.now
        best: Dict[str, float] = {}
        for (stream_id, _level), entry in self.store.items():
            if entry.expires > now:
                d = entry.box.mindist(climb.feature)
                if d <= climb.radius and d < best.get(stream_id, np.inf):
                    best[stream_id] = float(d)
        answer = HierarchyAnswer(climb.query_id, climb.client_id, sorted(best.items()))
        if climb.owner_id == self.node_id:
            self.on_answer(None, answer)
            return
        msg = Message(
            kind=KIND.HIER_RESPONSE,
            payload=answer,
            origin=self.node_id,
            dest_key=climb.owner_id,
        )
        self._send(msg)

    @handles(HierarchyAnswer)
    def on_answer(self, message: Optional[Message], payload: HierarchyAnswer) -> None:
        """Center-key owner: push the scanning leader's candidates to the client."""
        push = ResponsePush(
            client_id=payload.client_id,
            query_id=payload.query_id,
            similarity=list(payload.matches),
        )
        self.runtime.send_response(payload.client_id, push)
