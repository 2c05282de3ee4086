"""Placement: which nodes hold a closed MBR and a similarity subscription.

The paper places both by content (Sec. IV-B/D): an MBR is stored on
every node covering the keys of its first-coordinate interval (Eq. 6),
a subscription on every node covering ``[h(q1 - ε), h(q1 + ε)]``, and
the node owning the middle of that range aggregates the query's
reports (Sec. IV-F).  Sec. IV-A argues for this against two strawmen
that place the same content elsewhere; :mod:`repro.baselines` runs
them as subclasses of :class:`ContentPlacement` on the same runtime.

The answer is a key range plus, for a subscription, an aggregation
key.  The source asks once per closed MBR
(:meth:`~repro.core.roles.source.SourceService.publish_mbr`), the
client once per posted query
(:meth:`~repro.core.roles.client.ClientService.post_similarity_query`),
and the index-placement invariant asks the same object where a stored
MBR belongs — no other module computes it.
"""

from __future__ import annotations

from typing import Tuple

from .mbr import MBR
from .multicast import middle_key
from .queries import SimilarityQuery

__all__ = ["ContentPlacement"]


class ContentPlacement:
    """The paper's placement: by content, over the Eq. 6 key circle.

    Built from the system it serves, whose ``mapper`` it reads at each
    call and whose ``config`` gives ``k``.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.k = system.config.k
        self.key_space = system.mapper.space.size

    def mbr_keys(self, mbr: MBR, source_id: int) -> Tuple[int, int]:
        """The key range ``[low, high]`` an MBR sourced at ``source_id`` is held over."""
        vlow, vhigh = mbr.first_coordinate_interval
        return self.system.mapper.key_range(vlow, vhigh)

    def query_keys(
        self, query: SimilarityQuery, client_id: int
    ) -> Tuple[int, int, int]:
        """``(low, high, middle)``: the key range a subscription posted at
        ``client_id`` is held over, and the key whose owner aggregates it."""
        vlow, vhigh = query.value_interval(self.k)
        low, high = self.system.mapper.key_range(max(-1.0, vlow), min(1.0, vhigh))
        return low, high, middle_key(low, high, self.key_space)
