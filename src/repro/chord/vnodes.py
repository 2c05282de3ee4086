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
in routing, stabilization or the message fabric changes, and whatever
reasons per physical node (the load metrics, the invariant checker)
groups tokens by that name.  What lives here is the *naming* rule that
derives token names (stable, collision free, and — critically — the
identity function at ``v == 1`` so the byte-identity determinism pin
holds) and the max/mean skew metric over per-physical loads.

See DESIGN.md §13 for the ownership model and the load-balance
argument, and ``benchmarks/bench_zipf_hotkey.py`` for the measured
max/mean holder-load curves at ``v ∈ {1, 4, 16}``.
"""

from __future__ import annotations

from typing import List, Mapping

__all__ = ["vnode_names", "max_mean_ratio"]


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
