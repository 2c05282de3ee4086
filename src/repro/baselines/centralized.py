"""The centralized strawman: one data center indexes everything.

Every stream source ships each MBR to the dedicated center; every query
is sent to the center; the center alone matches and responds.  The
paper's objection (Sec. IV-A): the center "will immediately become a
bottleneck in the system ... limiting the system scalability, and a
failure of this single node will render the whole system completely
non-functional".  The baseline-comparison bench quantifies exactly
that: the center's message load grows linearly with N while the
distributed design keeps per-node load near-constant.
"""

from __future__ import annotations

from ..core.mbr import MBR
from ..core.protocol import KIND, MbrPublish, SimilaritySubscribe
from ..core.queries import SimilarityQuery
from .base import BaselineNode, BaselineSystem

__all__ = ["CentralizedIndexSystem"]


class CentralizedIndexSystem(BaselineSystem):
    """All summaries and queries converge on node 0 (the "center")."""

    CENTER = 0

    @property
    def center(self) -> BaselineNode:
        """The dedicated data center holding the global index."""
        return self.app(self.CENTER)

    def handle_mbr(self, source: BaselineNode, mbr: MBR) -> None:
        """Ship the MBR to the center (stored locally if we *are* it)."""
        if source.node_id == self.CENTER:
            source.index.add_mbr(mbr, expires=self.sim.now + self.config.workload.bspan_ms)
            return
        # the key range is meaningless here (no content routing), but the
        # wrapped payload lets the center reuse the registry dispatch
        payload = MbrPublish(
            mbr=mbr,
            source_id=source.node_id,
            low_key=0,
            high_key=0,
            lifespan_ms=self.config.workload.bspan_ms,
        )
        self.send(source, self.CENTER, KIND.MBR, payload)

    def post_similarity_query(self, app: BaselineNode, query: SimilarityQuery) -> int:
        """Send the query to the center, which serves it for its lifespan."""
        feature = query.feature_vector(self.config.k)
        sub = SimilaritySubscribe(
            query_id=query.query_id,
            client_id=app.node_id,
            feature=feature,
            radius=query.radius,
            low_key=0,
            high_key=0,
            middle_key=0,
            lifespan_ms=query.lifespan_ms,
        )
        app.similarity_results.setdefault(query.query_id, [])
        self.network.stats.record_origination(KIND.QUERY)
        self.send(app, self.CENTER, KIND.QUERY, sub)
        return query.query_id
