"""The centralized strawman: one data center indexes everything.

Every stream source ships each MBR to the dedicated center; every query
is sent to the center; the center alone matches, aggregates and
responds.  The paper's objection (Sec. IV-A): the center "will
immediately become a bottleneck in the system ... limiting the system
scalability, and a failure of this single node will render the whole
system completely non-functional".  The baseline-comparison bench
quantifies exactly that: the center's message load grows linearly with
N while the distributed design keeps per-node load near-constant.
"""

from __future__ import annotations

from typing import Tuple

from ..core.mbr import MBR
from ..core.placement import ContentPlacement
from ..core.queries import SimilarityQuery
from ..core.runtime import NodeRuntime
from ..core.system import StreamIndexSystem
from .onehop import OneHopTransport

__all__ = ["CenterPlacement", "CentralizedIndexSystem"]


class CenterPlacement(ContentPlacement):
    """Everything is held, and every query aggregated, at the center:
    the node first in ring order."""

    def __init__(self, system) -> None:
        super().__init__(system)
        self.center_id = system.ring.node_ids[0]

    def mbr_keys(self, mbr: MBR, source_id: int) -> Tuple[int, int]:
        return self.center_id, self.center_id

    def query_keys(
        self, query: SimilarityQuery, client_id: int
    ) -> Tuple[int, int, int]:
        return self.center_id, self.center_id, self.center_id


class CentralizedIndexSystem(StreamIndexSystem):
    """All summaries and queries converge on one node (the "center")."""

    placement_class = CenterPlacement
    transport_class = OneHopTransport

    @property
    def center(self) -> NodeRuntime:
        """The dedicated data center holding the global index."""
        return self.app_by_id(self.placement.center_id)
