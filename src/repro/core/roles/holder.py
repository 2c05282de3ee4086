"""Index-holder role (Fig. 5): store what content routing places here.

The holder owns the node's :class:`~repro.core.index.LocalIndex` — the
MBRs whose routing coordinate maps into this node's key arc, the
similarity subscriptions replicated over it, the ``h2`` stream registry
entries hashed onto it, and the inner-product subscriptions the
co-located source role installs.  Its handlers are the receive side of
every content-routed publish/subscribe payload (continuing range spans
as they arrive), and its periodic duty is the Sec. IV-F detect/report
step: match stored MBRs against stored subscriptions and report fresh
candidates to each query's aggregation (middle) node.
"""

from __future__ import annotations

from typing import Dict

from ...sim.network import Message
from ..admission import AdmissionController
from ..index import LocalIndex
from ..protocol import (
    KIND,
    Backpressure,
    HintedHandoff,
    InnerProductSubscribe,
    LoadShed,
    LocateRequest,
    MbrPublish,
    RegisterStream,
    ReplicaAck,
    ReplicaDigestPull,
    ReplicaPublish,
    SimilarityReport,
    SimilaritySubscribe,
    next_delivery_id,
)
from ..replication import ReplicationManager
from .base import RoleService, handles

__all__ = ["IndexHolderService"]


class IndexHolderService(RoleService):
    """The index-holder role of one data center."""

    role = "index-holder"

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self.index = LocalIndex()
        #: successor-list replica sets (DESIGN.md §10); fully inert —
        #: no messages, events or counters — at replication_factor 1
        self.replication = ReplicationManager(self)
        #: token-bucket publish gate (DESIGN.md §13); every call is a
        #: no-op returning True while admission_control is off
        self.admission = AdmissionController(
            self.cfg.admission_rate_per_s, enabled=self.cfg.admission_control
        )

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    @handles(MbrPublish)
    def on_mbr(self, message: Message, payload: MbrPublish) -> None:
        """Store a content-routed MBR and continue its range span.

        The receive side of Sec. IV-C publication: the MBR lands on the
        node owning its routed key, is leased into the local index for
        ``lifespan_ms`` (BSPAN soft state), and — when its first-
        coordinate interval spans several arcs — the range multicast is
        continued toward the remaining covering nodes.

        The §13 admission gate runs first, inert at default config: it
        sheds instead of storing when the token bucket is empty.
        """
        if not self._admit_mbr(message, payload):
            return
        self.index.add_mbr(
            payload.mbr, expires=self.transport.now + payload.lifespan_ms
        )
        if self.cfg.hierarchy and message.kind == KIND.MBR:
            # Sec. VI-B: the primary delivery (not a span copy) feeds the
            # summary up the leader hierarchy
            self.runtime.hierarchy.publish(
                payload.mbr, self.transport.now + payload.lifespan_ms
            )
        self.transport.continue_span(
            self.node,
            message,
            low_key=payload.low_key,
            high_key=payload.high_key,
            span_kind=KIND.MBR_SPAN,
        )
        self.replication.note_primary(
            payload.mbr,
            source_id=payload.source_id,
            low_key=payload.low_key,
            high_key=payload.high_key,
            expires=self.transport.now + payload.lifespan_ms,
        )

    def _admit_mbr(self, message: Message, payload: MbrPublish) -> bool:
        """Token-bucket gate over arriving publishes (DESIGN.md §13).

        Runs *after* the runtime acked the delivery, so reliability
        accounting is untouched; a shed publish is simply not indexed
        and its span is not continued.  Only the primary delivery
        answers the source with a :class:`LoadShed` notice (plus an
        occasional :class:`Backpressure` advisory) — span copies shed
        silently, and the source's soft-state refresh re-offers them.
        Both notices ride the overlay as raw routed messages rather
        than reliable sends: they are advisory soft state, and losing
        one merely delays a re-publish until the next refresh tick.
        """
        now = self.transport.now
        if self.admission.admit(now):
            return True
        self._stats.record_publish_shed(message.kind)
        if message.kind == KIND.MBR:
            shed = LoadShed(
                holder_id=self.node_id,
                source_id=payload.source_id,
                stream_id=payload.mbr.stream_id,
                expires_ms=now + payload.lifespan_ms,
                delivery_id=next_delivery_id(),
            )
            self._stats.record_origination(KIND.SHED)
            msg = Message(
                kind=KIND.SHED,
                payload=shed,
                origin=self.node_id,
                dest_key=payload.source_id,
            )
            self.transport.route(self.node, msg, transit_kind=KIND.SHED_TRANSIT)
            if self.admission.should_advise(str(payload.source_id), now):
                advisory = Backpressure(
                    holder_id=self.node_id,
                    source_id=payload.source_id,
                    slow_down_ms=self.admission.slow_down_ms,
                    delivery_id=next_delivery_id(),
                )
                self._stats.record_backpressure(KIND.BACKPRESSURE)
                msg = Message(
                    kind=KIND.BACKPRESSURE,
                    payload=advisory,
                    origin=self.node_id,
                    dest_key=payload.source_id,
                )
                self.transport.route(
                    self.node, msg, transit_kind=KIND.BACKPRESSURE_TRANSIT
                )
        return False

    @handles(SimilaritySubscribe)
    def on_similarity_subscribe(
        self, message: Message, payload: SimilaritySubscribe
    ) -> None:
        """Install a similarity subscription replicated over the range.

        Sec. IV-D: the query is replicated to every node covering
        ``[h(q1 − r), h(q1 + r)]``; each range node stores it for the
        periodic detect step, and the node owning the query's *middle
        key* additionally becomes its aggregator (Sec. IV-F).
        """
        expires = self.transport.now + payload.lifespan_ms
        self.index.add_similarity_sub(payload, expires=expires)
        if self.node.owns_key(payload.middle_key):
            self.runtime.aggregator.ensure_entry(
                payload.query_id,
                payload.client_id,
                expires,
                consistency=payload.consistency,
            )
        self.transport.continue_span(
            self.node,
            message,
            low_key=payload.low_key,
            high_key=payload.high_key,
            span_kind=KIND.QUERY_SPAN,
        )

    @handles(RegisterStream)
    def on_register_stream(self, message: Message, payload: RegisterStream) -> None:
        """Record a stream's source in the ``h2`` registry (Sec. IV-D).

        The secondary hash of the stream id lands here; the entry is the
        location service used by inner-product queries and window
        fetches.  Soft state: re-asserted every refresh tick.
        """
        self.index.registry[payload.stream_id] = payload.source_id

    @handles(LocateRequest)
    def on_locate(self, message: Message, payload: LocateRequest) -> None:
        """Resolve a stream id and forward the inner-product query.

        Sec. IV-D: the location node does not answer the client; it
        forwards the subscription straight to the stream's source (the
        reply will carry the source id, filling the client's cache).
        """
        source_id = self.index.registry.get(payload.query.stream_id)
        if source_id is None:
            return  # unknown stream: query is dropped (no such source yet)
        sub = InnerProductSubscribe(
            query=payload.query,
            client_id=payload.client_id,
            delivery_id=next_delivery_id(),
        )
        self.runtime.reliable_route(
            sub,
            kind=KIND.QUERY,
            transit_kind=KIND.QUERY_TRANSIT,
            dest_key=source_id,
        )

    # ------------------------------------------------------------------
    # replication handlers (DESIGN.md §10) — these payloads are only
    # ever emitted at replication_factor > 1, but the handlers must be
    # registered unconditionally (the delivery-policy invariant demands
    # an owner for every payload kind on every live node)
    # ------------------------------------------------------------------
    @handles(ReplicaPublish)
    def on_replica(self, message: Message, payload: ReplicaPublish) -> None:
        """Store a replica copy pushed by a span's last holder."""
        self.replication.install_replica(payload)

    @handles(ReplicaAck)
    def on_replica_ack(self, message: Message, payload: ReplicaAck) -> None:
        """A replica holder confirmed one of our placements."""
        self.replication.on_ack(payload)

    @handles(ReplicaDigestPull)
    def on_replica_pull(self, message: Message, payload: ReplicaDigestPull) -> None:
        """Read repair: push copies newer than the puller's version."""
        self.replication.serve_pull(payload)

    @handles(HintedHandoff)
    def on_handoff(self, message: Message, payload: HintedHandoff) -> None:
        """Adopt a copy handed off after its owner died."""
        self.replication.install_handoff(payload, origin=message.origin)

    # ------------------------------------------------------------------
    # periodic duties
    # ------------------------------------------------------------------
    def on_notification_tick(self, now: float) -> None:
        """Periodic duty: retire expired state, then detect/report.

        The Sec. IV-F step — runs *first* in the tick order (§8 of
        DESIGN.md) so aggregators push this round's candidates.
        """
        self.index.purge(now)
        self._report_similarities(now)

    def _report_similarities(self, now: float) -> None:
        """Match local MBRs against subscriptions; report to middle nodes.

        Under replication the node's *replica* copies are matched
        against the same primary subscriptions (sharing the per-sub
        reported set), and every report carries the version token of
        each matched stream so quorum aggregators can count agreeing
        replicas; at r = 1 both additions are inert.
        """
        replicated = self.cfg.replication_factor > 1
        reports: Dict[int, SimilarityReport] = {}
        found = self.index.new_candidates(now)
        if replicated:
            replica = self.replication.new_candidates([s for s, _ in found], now)
            found = [(s, c + rc) for (s, c), (_, rc) in zip(found, replica)]
        for stored, candidates in found:
            mid = stored.sub.middle_key
            if self.node.owns_key(mid):
                agg = self.runtime.aggregator.aggregator_for(stored.sub.query_id)
                if agg is not None and candidates:
                    if replicated and agg.consistency == "quorum":
                        self.runtime.aggregator.absorb_quorum(
                            agg,
                            candidates,
                            reporter_id=self.node_id,
                            versions={
                                sid: self.replication.version_of(sid, now)
                                for sid, _ in candidates
                            },
                        )
                    else:
                        agg.absorb(candidates)
                continue
            if candidates:
                rep = reports.get(mid)
                if rep is None:
                    rep = reports[mid] = SimilarityReport(
                        reporter_id=self.node_id,
                        middle_key=mid,
                        delivery_id=next_delivery_id(),
                    )
                rep.matches[stored.sub.query_id] = candidates
                if replicated:
                    for sid, _ in candidates:
                        rep.versions[sid] = self.replication.version_of(sid, now)
        for mid, rep in reports.items():
            self.runtime.reliable_route(
                rep,
                kind=KIND.NEIGHBOR_INFO,
                transit_kind=KIND.NEIGHBOR_TRANSIT,
                dest_key=mid,
            )
