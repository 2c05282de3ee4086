"""Chord ring construction and ground-truth membership queries.

:class:`ChordRing` is the bookkeeping side of the overlay: it creates
nodes (hashing their names onto the circle), builds *exact* routing
state for a static membership (the common case in the paper's
experiments), and answers ground-truth questions — "which node owns key
``k``?", "which nodes cover key range ``[a, b]``?" — that the tests and
the range-multicast logic validate against.

The paper (Sec. III) treats the DHT as a black box providing consistent
hashing of keys to nodes; this module is the membership half of that
contract.  :meth:`ChordRing.successor_of_key` is the ground truth the
paper's ``route(key)`` primitive must agree with, and
:meth:`ChordRing.nodes_covering_range` is the exact replica set of a
Sec. IV-C range multicast over key interval ``[low, high]``.

Two extensions beyond the paper live here.  Identifier collisions —
possible at the small ``m`` used in tests — are resolved by re-salting
names (the paper assumes ``m = 160`` SHA-1 ids where collisions are
negligible).  And :meth:`ChordRing.create_virtual_nodes` places ``v``
tokens per physical node (DESIGN.md §13): each token is an ordinary
:class:`~repro.chord.node.ChordNode`, so everything else in this module
is token-agnostic — per-physical aggregation happens strictly above the
ring, in :class:`~repro.chord.vnodes.VirtualNodeMap`.

Dynamic membership (join / leave / fail with stabilization) lives in
:mod:`repro.chord.stabilize`; after churn settles, :meth:`ChordRing
.build` describes the state stabilization converges to.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, Iterator, List, Optional

from .hashing import node_identifier
from .idspace import IdSpace
from .node import ChordNode
from .vnodes import vnode_names

#: backup successors each node keeps: the ring survives up to
#: ``SUCCESSOR_LIST_LEN - 1`` consecutive simultaneous failures
SUCCESSOR_LIST_LEN = 4

__all__ = ["ChordRing", "RingError"]


class RingError(RuntimeError):
    """Raised for invalid ring operations (e.g. queries on an empty ring)."""


class ChordRing:
    """A collection of Chord nodes sharing one identifier space.

    Parameters
    ----------
    m:
        Identifier bits; the circle has ``2**m`` points.  The default of
        32 keeps node-id collisions negligible up to tens of thousands
        of nodes while staying well inside native ints.
    """

    def __init__(self, m: int = 32) -> None:
        self.space = IdSpace(m)
        #: bounded: one entry per member node (token), live or failed
        self._by_id: Dict[int, ChordNode] = {}
        self._ids: List[int] = []  # sorted ids of *live* member nodes

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ChordNode]:
        return (self._by_id[i] for i in self._ids)

    @property
    def node_ids(self) -> List[int]:
        """Sorted identifiers of live member nodes (copy-free view)."""
        return self._ids

    def node(self, node_id: int) -> ChordNode:
        """The live node with the given identifier.

        Raises
        ------
        KeyError
            If no member has that identifier.
        """
        return self._by_id[node_id]

    def create_node(
        self, name: str, physical_name: Optional[str] = None
    ) -> ChordNode:
        """Hash ``name`` to an identifier and add a new node.

        Identifier collisions (possible for small ``m``) are resolved by
        re-salting the name, preserving consistent hashing semantics for
        all non-colliding nodes.  ``physical_name`` tags the node with
        the physical data center it belongs to (defaults to ``name``);
        see :meth:`create_virtual_nodes`.
        """
        salt = 0
        node_id = node_identifier(name, self.space)
        while node_id in self._by_id:
            salt += 1
            node_id = node_identifier(f"{name}#{salt}", self.space)
        node = ChordNode(name, node_id, self.space, physical_name=physical_name)
        self.add(node)
        return node

    def create_virtual_nodes(self, name: str, v: int) -> List[ChordNode]:
        """Create ``v`` tokens for physical node ``name`` (DESIGN.md §13).

        Each token is a full ring member created through
        :meth:`create_node` with a derived token name and
        ``physical_name=name``.  At ``v == 1`` the single token is
        named ``name`` itself, so the identifier — and therefore every
        downstream hash-derived decision — is byte-identical to a
        build without virtual nodes.
        """
        return [
            self.create_node(token, physical_name=name)
            for token in vnode_names(name, v)
        ]

    def add(self, node: ChordNode) -> None:
        """Register a live node as a ring member."""
        if node.node_id in self._by_id:
            raise RingError(f"duplicate node id {node.node_id}")
        self._by_id[node.node_id] = node
        insort(self._ids, node.node_id)
        node.alive = True
        self.space.note_routing_change()

    def remove(self, node: ChordNode) -> None:
        """Unregister a node (it left or crashed)."""
        existing = self._by_id.pop(node.node_id, None)
        if existing is None:
            raise RingError(f"node {node.node_id} is not a member")
        idx = bisect_left(self._ids, node.node_id)
        del self._ids[idx]
        node.alive = False
        self.space.note_routing_change()

    # ------------------------------------------------------------------
    # exact routing state for static membership
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Compute exact successors, predecessors and finger tables.

        This is the state that Chord's stabilization protocol converges
        to; building it directly is how the paper's (static-membership)
        experiments start.
        """
        if not self._ids:
            raise RingError("cannot build an empty ring")
        ids = self._ids
        n = len(ids)
        for idx, node_id in enumerate(ids):
            node = self._by_id[node_id]
            succ = self._by_id[ids[(idx + 1) % n]]
            pred = self._by_id[ids[(idx - 1) % n]]
            node.successor = succ
            node.predecessor = pred
            node.successor_list = [
                self._by_id[ids[(idx + 1 + j) % n]]
                for j in range(min(SUCCESSOR_LIST_LEN, n - 1))
            ]
            for i in range(self.space.m):
                node.fingers[i] = self.successor_of_key(node.finger_start(i))
        self.space.note_routing_change()

    # ------------------------------------------------------------------
    # ground truth queries
    # ------------------------------------------------------------------
    def successor_of_key(self, key: int) -> ChordNode:
        """The live node responsible for ``key`` (first node at or after it)."""
        if not self._ids:
            raise RingError("empty ring has no successors")
        key %= self.space.size
        idx = bisect_left(self._ids, key)
        if idx == len(self._ids):
            idx = 0
        return self._by_id[self._ids[idx]]

    def nodes_covering_range(self, low_key: int, high_key: int) -> List[ChordNode]:
        """All nodes owning at least one key in circular ``[low, high]``.

        This is the ground-truth replica set for a range multicast
        (Sec. IV-C): the successor of ``low`` plus every subsequent node
        whose identifier does not pass ``successor(high)``.
        """
        if not self._ids:
            raise RingError("empty ring covers nothing")
        size = self.space.size
        low_key %= size
        high_key %= size
        width = (high_key - low_key) % size
        first = self.successor_of_key(low_key)
        out = [first]
        node = first
        while True:
            walked = (node.node_id - low_key) % size
            if walked >= width:
                break  # this node's arc reaches (or passes) the high key
            nxt = self._by_id[self._next_id(node.node_id)]
            if (nxt.node_id - low_key) % size <= walked:
                break  # wrapped past the start: full-circle range exhausted
            node = nxt
            out.append(node)
        return out

    def _next_id(self, node_id: int) -> int:
        idx = bisect_left(self._ids, node_id)
        if idx < len(self._ids) and self._ids[idx] == node_id:
            idx += 1
        if idx >= len(self._ids):
            idx = 0
        return self._ids[idx]
