"""Virtual nodes: many ring identifiers (tokens) per physical node.

Consistent hashing places one identifier per node on the circle, so a
physical node's share of the key space is a single arc whose width is
an accident of SHA-1 — with ``N`` nodes the widest arc is ``Θ(log N /
N)`` of the circle in expectation, and a skewed key distribution (a
Zipf-popular feature range, say) can land almost entirely on one
owner.  The classic remedy — Chord §6.2 ("each real node runs ``v``
virtual nodes"), popularised by Dynamo/Cassandra token rings — is to
give every physical node ``v`` independent identifiers.  Each token is
a *complete* Chord participant (own successor, predecessor, fingers,
application runtime); the physical node's ownership becomes the union
of ``v`` arcs scattered around the circle, which both evens out arc
widths (variance shrinks like ``1/v``) and fragments any hot key range
across many physical owners.

This module is deliberately thin: tokens are ordinary
:class:`~repro.chord.node.ChordNode` instances distinguished only by a
shared :attr:`~repro.chord.node.ChordNode.physical_name`, so nothing
in routing, stabilization or the message fabric changes.  What lives
here is the *naming* rule that derives token names (stable, collision
free, and — critically — the identity function at ``v == 1`` so the
byte-identity determinism pin holds) and the
:class:`VirtualNodeMap` bookkeeping that the load metrics, the bench
harness and the invariant checker use to aggregate per physical node.

See DESIGN.md §13 for the ownership model and the load-balance
argument, and ``benchmarks/bench_zipf_hotkey.py`` for the measured
max/mean holder-load curves at ``v ∈ {1, 4, 16}``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .node import ChordNode

__all__ = ["vnode_names", "VirtualNodeMap"]


def vnode_names(name: str, v: int) -> List[str]:
    """Token names for physical node ``name`` at ``v`` virtual nodes.

    The first token keeps the bare physical name, so at ``v == 1`` the
    derived identifier set is *exactly* what a build without virtual
    nodes hashes — the byte-identity pin on the lossy seed-11 digest
    depends on this.  Extra tokens append a ``~v<i>`` suffix (``~`` is
    not used by any other naming scheme in the repo, so token names can
    never collide with a real node name or with the ``#<salt>``
    collision re-hash suffix of :meth:`ChordRing.create_node`).
    """
    if v < 1:
        raise ValueError("virtual_nodes must be >= 1")
    if v == 1:
        return [name]
    return [name] + [f"{name}~v{i}" for i in range(1, v)]


class VirtualNodeMap:
    """Token → physical-node bookkeeping for one ring.

    Protocol state never consults this map — tokens are full Chord
    participants — but everything that reasons *per physical node*
    does: load metrics aggregate per-token message counts into
    per-physical totals, the Zipf-hotkey bench computes its max/mean
    holder-load ratio over physical nodes, and the invariant checker
    verifies that the union of a physical node's token arcs partitions
    the circle together with everyone else's.
    """

    def __init__(self) -> None:
        #: both bounded: one entry per token / per physical data center
        self._physical_of: Dict[int, str] = {}
        self._tokens_of: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # registration / membership
    # ------------------------------------------------------------------
    def register(self, node: ChordNode) -> None:
        """Record one token under its physical name (idempotent)."""
        phys = node.physical_name
        if self._physical_of.get(node.node_id) == phys:
            return
        self._physical_of[node.node_id] = phys
        self._tokens_of.setdefault(phys, [])
        if node.node_id not in self._tokens_of[phys]:
            self._tokens_of[phys].append(node.node_id)

    def forget_physical(self, physical_name: str) -> List[int]:
        """Drop a physical node and return the token ids it owned."""
        ids = self._tokens_of.pop(physical_name, [])
        for node_id in ids:
            self._physical_of.pop(node_id, None)
        return ids

    def physical_of(self, node_id: int) -> Optional[str]:
        """Physical name owning token ``node_id`` (None if unknown)."""
        return self._physical_of.get(node_id)

    def tokens_of(self, physical_name: str) -> List[int]:
        """Token identifiers registered for a physical node (copy)."""
        return list(self._tokens_of.get(physical_name, ()))

    def physical_names(self) -> List[str]:
        """All registered physical node names, insertion-ordered."""
        return list(self._tokens_of)

    def __len__(self) -> int:
        return len(self._tokens_of)

    def __contains__(self, physical_name: str) -> bool:
        return physical_name in self._tokens_of

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def aggregate_by_physical(
        self, per_token: Mapping[int, float]
    ) -> Dict[str, float]:
        """Sum a per-token metric (e.g. ``stats.load_by_node()``) per
        physical node.  Tokens absent from ``per_token`` contribute 0;
        token ids in ``per_token`` that were never registered (e.g. a
        node that failed and was forgotten mid-run) are kept under a
        synthetic ``"N<id>"`` name so no load is silently dropped.
        """
        out: Dict[str, float] = {phys: 0.0 for phys in self._tokens_of}
        for node_id, value in per_token.items():
            phys = self._physical_of.get(node_id)
            if phys is None:
                phys = f"N{node_id}"
                out.setdefault(phys, 0.0)
            out[phys] += value
        return out

    @staticmethod
    def max_mean_ratio(per_physical: Mapping[str, float]) -> float:
        """Max/mean load ratio over physical nodes — the §13 skew metric.

        1.0 is a perfectly even spread; ``P`` (the physical node count)
        is the worst case where one node absorbs everything.  Returns
        0.0 for an empty or all-zero load map.
        """
        values = list(per_physical.values())
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        if mean <= 0:
            return 0.0
        return max(values) / mean
