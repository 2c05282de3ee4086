"""The local-storage + query-flooding strawman.

Each data center stores only its own streams' summaries — stream
updates cost zero network messages.  The price is paid at query time:
"answering such queries requires communication with every data center
in the system ... which is highly inefficient" (Sec. IV-A).  Every
similarity query is copied to all N-1 other nodes; each node matches
against its local summaries and reports to the client, which
aggregates its own query.

The first copy of a flooded query is counted under ``KIND.QUERY`` (the
origination) and the remaining N-2 under ``KIND.QUERY_SPAN``, so the
figure metrics show flooding's per-query overhead growing with N —
against ~0.1·N for the content-routed range and 1 for centralized.
"""

from __future__ import annotations

from typing import Tuple

from ..core.mbr import MBR
from ..core.placement import ContentPlacement
from ..core.queries import SimilarityQuery
from ..core.system import StreamIndexSystem
from .onehop import OneHopTransport

__all__ = ["LocalPlacement", "FloodingIndexSystem"]


class LocalPlacement(ContentPlacement):
    """An MBR stays at its source; a query covers the whole circle, from
    the client's successor round to the client, which aggregates it."""

    def mbr_keys(self, mbr: MBR, source_id: int) -> Tuple[int, int]:
        return source_id, source_id

    def query_keys(
        self, query: SimilarityQuery, client_id: int
    ) -> Tuple[int, int, int]:
        return (client_id + 1) % self.key_space, client_id, client_id


class FloodingIndexSystem(StreamIndexSystem):
    """Summaries stay at their source; queries flood the whole network."""

    placement_class = LocalPlacement
    transport_class = OneHopTransport
