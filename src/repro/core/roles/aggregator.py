"""Aggregator role (Fig. 5): merge candidate reports at the middle node.

For every similarity query whose middle key this node owns, the
aggregator keeps one :class:`AggregatorEntry` that deduplicates the
candidate reports arriving from the query's range nodes and periodically
pushes the not-yet-sent matches to the client (Sec. IV-F).

Aggregation state is rebuilt lazily after churn: if the original middle
node dies, reports are routed to the key's new owner, which holds the
same subscription (it is a range node) and can recreate the entry from
it — see :meth:`AggregatorService.aggregator_for`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ...sim.network import Message
from ..protocol import KIND, ReplicaDigestPull, ResponsePush, SimilarityReport, next_delivery_id
from ..replication import quorum_threshold
from .base import RoleService, handles

__all__ = ["AggregatorService", "AggregatorEntry"]


@dataclass
class AggregatorEntry:
    """State the middle node keeps per similarity query it aggregates."""

    query_id: int
    client_id: int
    expires: float
    seen: Set[str] = field(default_factory=set)
    pending: List[Tuple[str, float]] = field(default_factory=list)
    #: read mode (DESIGN.md §10): "eventual" releases the first report
    #: of a stream; "quorum" waits for agreeing replica versions
    consistency: str = "eventual"
    #: quorum bookkeeping: stream id -> reporter id -> (version, dist)
    confirm: Dict[str, Dict[int, Tuple[float, float]]] = field(default_factory=dict)
    #: (stream, stale reporter, version) pulls already issued
    repaired: Set[Tuple[str, int, float]] = field(default_factory=set)

    def absorb(self, matches: List[Tuple[str, float]]) -> int:
        """Merge a report; returns how many matches were new."""
        fresh = 0
        for stream_id, dist in matches:
            if stream_id not in self.seen:
                self.seen.add(stream_id)
                self.pending.append((stream_id, dist))
                fresh += 1
        return fresh

    def absorb_versioned(
        self,
        matches: List[Tuple[str, float]],
        *,
        reporter_id: int,
        versions: Dict[str, float],
        quorum: int,
    ) -> int:
        """Quorum merge: release a match once ``quorum`` reporters
        agree on the freshest version seen for the stream.

        Reporters carrying an older version are *not* counted (they
        may hold a stale box that no longer matches the live data);
        they stay recorded in ``confirm`` so the service can
        read-repair them.  Returns how many matches were released.
        """
        fresh = 0
        for stream_id, dist in matches:
            if stream_id in self.seen:
                continue
            version = versions.get(stream_id, float("-inf"))
            reporters = self.confirm.setdefault(stream_id, {})
            reporters[reporter_id] = (version, dist)
            vmax = max(v for v, _ in reporters.values())
            agreeing = [d for v, d in reporters.values() if v >= vmax]
            if len(agreeing) >= quorum:
                self.seen.add(stream_id)
                self.pending.append((stream_id, min(agreeing)))
                fresh += 1
        return fresh

    def drain(self) -> List[Tuple[str, float]]:
        """Take the not-yet-pushed matches."""
        out = self.pending
        self.pending = []
        return out


class AggregatorService(RoleService):
    """The aggregator (middle-node) role of one data center."""

    role = "aggregator"

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        #: aggregation state for queries whose middle key this node owns
        self.aggregators: Dict[int, AggregatorEntry] = {}

    def ensure_entry(
        self,
        query_id: int,
        client_id: int,
        expires: float,
        *,
        consistency: str = "",
    ) -> None:
        """Install aggregation state for a query (idempotent)."""
        self.aggregators.setdefault(
            query_id,
            AggregatorEntry(
                query_id=query_id,
                client_id=client_id,
                expires=expires,
                consistency=self._resolve_consistency(consistency),
            ),
        )

    def _resolve_consistency(self, requested: str) -> str:
        """The effective read mode: the query's ask, else the config
        default; always "eventual" when replication is off (a quorum
        of one copy is just the first answer)."""
        if self.cfg.replication_factor <= 1:
            return "eventual"
        return requested or self.cfg.consistency

    def aggregator_for(self, query_id: int) -> Optional[AggregatorEntry]:
        """The aggregation state for a query, created lazily if this node
        holds the subscription and now owns its middle key.

        Lazy takeover is what makes aggregation churn-tolerant: if the
        original middle node dies, reports get routed to the key's new
        owner, which is a range node holding the same subscription and
        can rebuild the aggregator from it (the client id travels with
        the subscription).  Already-confirmed matches may be re-sent to
        the client after a takeover; duplicates are idempotent there.
        """
        agg = self.aggregators.get(query_id)
        if agg is not None:
            return agg
        stored = self.runtime.index.similarity_subs.get(query_id)
        if stored is None or not self.node.owns_key(stored.sub.middle_key):
            return None
        agg = AggregatorEntry(
            query_id=query_id,
            client_id=stored.sub.client_id,
            expires=stored.expires,
            consistency=self._resolve_consistency(stored.sub.consistency),
        )
        self.aggregators[query_id] = agg
        return agg

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    @handles(SimilarityReport)
    def on_similarity_report(self, message: Message, payload: SimilarityReport) -> None:
        """Absorb candidate batches from range nodes (Sec. IV-F).

        Reports route to the query's middle *key*, so after churn they
        reach the key's new owner, which lazily rebuilds the entry from
        its replicated subscription (see :meth:`aggregator_for`).
        """
        for query_id, matches in payload.matches.items():
            agg = self.aggregator_for(query_id)
            if agg is None:
                continue
            if self.cfg.replication_factor > 1 and agg.consistency == "quorum":
                self.absorb_quorum(
                    agg,
                    matches,
                    reporter_id=payload.reporter_id,
                    versions=payload.versions,
                )
            else:
                agg.absorb(matches)

    def absorb_quorum(
        self,
        agg: AggregatorEntry,
        matches: List[Tuple[str, float]],
        *,
        reporter_id: int,
        versions: Dict[str, float],
    ) -> None:
        """Quorum-mode merge plus read repair of stale reporters.

        After the entry records the report, any reporter whose version
        for a stream lags the freshest seen gets one
        :class:`ReplicaDigestPull` (per stream and version) routed to
        the freshest reporter, which pushes its newer copies directly
        to the stale node — Dynamo-style read repair piggybacked on
        the periodic report flow.
        """
        agg.absorb_versioned(
            matches,
            reporter_id=reporter_id,
            versions=versions,
            quorum=quorum_threshold(self.cfg.replication_factor),
        )
        for stream_id, _ in matches:
            reporters = agg.confirm.get(stream_id)
            if not reporters or len(reporters) < 2:
                continue
            vmax = max(v for v, _ in reporters.values())
            fresh_id = min(r for r, (v, _) in reporters.items() if v >= vmax)
            for stale_id, (version, _) in sorted(reporters.items()):
                if version >= vmax:
                    continue
                key = (stream_id, stale_id, vmax)
                if key in agg.repaired:
                    continue
                agg.repaired.add(key)
                pull = ReplicaDigestPull(
                    stale_id=stale_id,
                    stream_id=stream_id,
                    have_version_ms=version,
                    delivery_id=next_delivery_id(),
                )
                msg = Message(
                    kind=KIND.REPLICA_PULL,
                    payload=pull,
                    origin=self.node_id,
                    dest_key=fresh_id,
                )
                self.transport.route(
                    self.node, msg, transit_kind=KIND.REPLICA_TRANSIT
                )
                self._stats.record_read_repair(KIND.REPLICA_PULL)

    # ------------------------------------------------------------------
    # periodic duties
    # ------------------------------------------------------------------
    def on_notification_tick(self, now: float) -> None:
        """Periodic duty: push not-yet-sent matches to each client."""
        self._push_aggregated_responses(now)

    def _push_aggregated_responses(self, now: float) -> None:
        """Periodic responses to clients (Sec. IV-F)."""
        for query_id in list(self.aggregators):
            agg = self.aggregators[query_id]
            if agg.expires <= now:
                del self.aggregators[query_id]
                continue
            payload = ResponsePush(
                client_id=agg.client_id,
                query_id=query_id,
                similarity=agg.drain(),
            )
            self.runtime.send_response(agg.client_id, payload)
