"""Client role (Fig. 5): post queries, collect and refine responses.

The client service owns everything a data center keeps on behalf of its
local users: posted similarity / inner-product queries and their result
buckets, the ``h2`` locate cache (stream id -> source node), the
in-flight window fetches of the two-phase refine step, and the
soft-state record of live queries that the refresh tick re-asserts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ...chord.hashing import stream_identifier
from ...sim.network import Message
from ..protocol import (
    KIND,
    HierarchyQuery,
    InnerProductSubscribe,
    LocateRequest,
    ResponsePush,
    SimilaritySubscribe,
    WindowReply,
    WindowRequest,
    next_delivery_id,
)
from ..queries import InnerProductQuery, InnerProductResult, SimilarityMatch, SimilarityQuery
from .base import RoleService, handles

__all__ = ["ClientService"]


class ClientService(RoleService):
    """The client role of one data center."""

    role = "client"

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        #: query id -> received matches / results
        self.similarity_results: Dict[int, List[SimilarityMatch]] = {}
        self.inner_product_results: Dict[int, List[InnerProductResult]] = {}
        #: cache of stream id -> source node id (Sec. IV-D)
        self.locate_cache: Dict[str, int] = {}
        #: in-flight window fetches: request id -> completion callback
        self._window_waiters: Dict[int, Callable[[Optional[np.ndarray]], None]] = {}
        self._next_request_id = 0
        #: window request id -> delivery id, to settle the retry timer
        #: when the reply (rather than an explicit ack) completes it
        self._window_delivery: Dict[int, int] = {}
        #: live queries, for soft-state refresh:
        #: query id -> (last payload sent, absolute expiry)
        self._active_sim_queries: Dict[int, Tuple[SimilaritySubscribe, float]] = {}
        self._active_ip_queries: Dict[int, Tuple[InnerProductQuery, float]] = {}

    # ------------------------------------------------------------------
    # query-posting API
    # ------------------------------------------------------------------
    def post_similarity_query(self, query: SimilarityQuery) -> int:
        """Post a continuous similarity query (Sec. IV-E); returns its id.

        The pattern must be one window long.  The system's placement
        names the key range the subscription is replicated over —
        ``[h(q1-ε), h(q1+ε)]`` in the paper — and the key whose owner
        aggregates it.
        """
        if len(query.pattern) != self.cfg.window_size:
            raise ValueError(
                f"pattern length {len(query.pattern)} != window size {self.cfg.window_size}"
            )
        feature = query.feature_vector(self.cfg.k)
        klow, khigh, mid = self.system.placement.query_keys(query, self.node_id)
        if (
            self.system.hierarchy_index is not None
            and query.radius > self.cfg.hierarchy_radius_threshold
        ):
            return self._post_hierarchy_query(query, feature, klow, khigh)
        payload = SimilaritySubscribe(
            query_id=query.query_id,
            client_id=self.node_id,
            feature=feature,
            radius=query.radius,
            low_key=klow,
            high_key=khigh,
            middle_key=mid,
            lifespan_ms=query.lifespan_ms,
            consistency=query.consistency,
            delivery_id=next_delivery_id(),
        )
        self.similarity_results.setdefault(query.query_id, [])
        self._active_sim_queries[query.query_id] = (
            payload,
            self.transport.now + query.lifespan_ms,
        )
        self._stats.record_origination(KIND.QUERY)
        self.runtime.reliable_disseminate(
            payload,
            kind=KIND.QUERY,
            transit_kind=KIND.QUERY_TRANSIT,
            low_key=klow,
            high_key=khigh,
        )
        return query.query_id

    def _post_hierarchy_query(
        self, query: SimilarityQuery, feature: np.ndarray, klow: int, khigh: int
    ) -> int:
        """Serve a wide query through the Sec. VI-B hierarchy.

        The query is content-routed to its center key; the owning node
        climbs the leader chain to the level covering ``[klow, khigh]``
        and answers with a one-shot snapshot of candidates.  O(log N)
        contacts regardless of radius, at the price of snapshot (rather
        than continuous) semantics and widened-box candidates.
        """
        center_value = float(feature[0])
        center_key = self.system.mapper.key_of(center_value)
        payload = HierarchyQuery(
            query_id=query.query_id,
            client_id=self.node_id,
            feature=feature,
            radius=query.radius,
            low_key=klow,
            high_key=khigh,
            delivery_id=next_delivery_id(),
        )
        self.similarity_results.setdefault(query.query_id, [])
        self._stats.record_origination(KIND.QUERY)
        self.runtime.reliable_route(
            payload,
            kind=KIND.QUERY,
            transit_kind=KIND.QUERY_TRANSIT,
            dest_key=center_key,
        )
        return query.query_id

    def post_inner_product_query(self, query: InnerProductQuery) -> int:
        """Post a continuous inner-product query (Sec. IV-D); returns its id."""
        if int(query.index_vector.max()) >= self.cfg.window_size:
            raise ValueError("index vector exceeds the window size")
        self.inner_product_results.setdefault(query.query_id, [])
        self._active_ip_queries[query.query_id] = (
            query,
            self.transport.now + query.lifespan_ms,
        )
        self._route_inner_product(query)
        return query.query_id

    def _route_inner_product(self, query: InnerProductQuery) -> None:
        """Send the subscription toward the stream's source (Sec. IV-D)."""
        self._stats.record_origination(KIND.QUERY)
        cached_source = self.locate_cache.get(query.stream_id)
        if cached_source is not None:
            payload = InnerProductSubscribe(
                query=query, client_id=self.node_id, delivery_id=next_delivery_id()
            )
            dest_key = cached_source
        else:
            payload = LocateRequest(
                query=query, client_id=self.node_id, delivery_id=next_delivery_id()
            )
            dest_key = stream_identifier(query.stream_id, self.node.space)
        self.runtime.reliable_route(
            payload,
            kind=KIND.QUERY,
            transit_kind=KIND.QUERY_TRANSIT,
            dest_key=dest_key,
        )

    # ------------------------------------------------------------------
    # two-phase refine: window fetch + exact verification
    # ------------------------------------------------------------------
    def fetch_window(
        self, stream_id: str, callback: Callable[[Optional[np.ndarray]], None]
    ) -> int:
        """Fetch a stream's current raw window from its source node.

        The refine half of the two-phase similarity pipeline: the index
        returns candidate streams (a superset); fetching a candidate's
        window lets the client verify the exact normalized distance.
        The request is routed via the ``h2`` location service like an
        inner-product query (or directly, if the source is cached);
        ``callback(window)`` runs when the reply arrives.  Returns the
        request id.
        """
        self._next_request_id += 1
        request_id = self._next_request_id
        self._window_waiters[request_id] = callback
        payload = WindowRequest(
            stream_id=stream_id,
            requester_id=self.node_id,
            request_id=request_id,
            delivery_id=next_delivery_id(),
        )
        self._window_delivery[request_id] = payload.delivery_id
        self._stats.record_origination(KIND.QUERY)

        def send() -> None:
            # re-resolved per (re)send: a retry after the source was
            # cached skips the location-service indirection
            cached = self.locate_cache.get(stream_id)
            dest_key = (
                cached
                if cached is not None
                else stream_identifier(stream_id, self.node.space)
            )
            msg = Message(
                kind=KIND.QUERY, payload=payload, origin=self.node_id, dest_key=dest_key
            )
            self.transport.route(self.node, msg, transit_kind=KIND.QUERY_TRANSIT)

        def give_up() -> None:
            self._window_delivery.pop(request_id, None)
            waiter = self._window_waiters.pop(request_id, None)
            if waiter is not None:
                waiter(None)

        # completion is reply-based (the WindowReply settles the timer),
        # so the request is tracked but never explicitly acked
        self.runtime.reliable.track(payload, KIND.QUERY, send, on_give_up=give_up)
        send()
        return request_id

    def verify_similarity(
        self,
        query: SimilarityQuery,
        matches,
        on_verified: Callable[[List[Tuple[str, float]]], None],
    ) -> None:
        """Refine index candidates to exact matches over the network.

        Fetches every candidate's raw window, computes the exact
        normalized Euclidean distance to the query pattern, and calls
        ``on_verified`` with the ``(stream_id, exact_distance)`` pairs
        that truly satisfy ``distance <= radius`` once every fetch has
        completed (sources that vanished are treated as non-matches).
        """
        from ...streams.features import NORMALIZATION_MODES  # noqa: F401
        from ...streams.normalize import unit_normalize, z_normalize

        if query.normalization == "z":
            normalize = z_normalize
        elif query.normalization == "unit":
            normalize = unit_normalize
        else:
            normalize = lambda x: np.asarray(x, dtype=np.float64)  # noqa: E731
        target = normalize(query.pattern)
        stream_ids = sorted({m.stream_id for m in matches})
        if not stream_ids:
            self.transport.schedule(0.0, lambda: on_verified([]))
            return
        state = {"pending": len(stream_ids), "verified": []}

        def make_cb(sid: str):
            def cb(window: Optional[np.ndarray]) -> None:
                if window is not None and len(window) == len(target):
                    d = float(np.linalg.norm(normalize(window) - target))
                    if d <= query.radius + 1e-12:
                        state["verified"].append((sid, d))
                state["pending"] -= 1
                if state["pending"] == 0:
                    on_verified(sorted(state["verified"], key=lambda x: x[1]))

            return cb

        for sid in stream_ids:
            self.fetch_window(sid, make_cb(sid))

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    @handles(ResponsePush)
    def on_response(self, message: Message, payload: ResponsePush) -> None:
        """File an arriving result into the right per-query bucket.

        One payload serves both query families (Sec. IV-D/F): an
        inner-product value from a stream's source, or a batch of
        similarity matches pushed by the query's aggregator.
        """
        now = self.transport.now
        if not np.isnan(payload.inner_product):
            if payload.source_id >= 0:
                self.locate_cache[payload.stream_id] = payload.source_id
            self.inner_product_results.setdefault(payload.query_id, []).append(
                InnerProductResult(
                    query_id=payload.query_id,
                    stream_id=payload.stream_id,
                    value=payload.inner_product,
                    time=now,
                )
            )
        else:
            bucket = self.similarity_results.setdefault(payload.query_id, [])
            for stream_id, dist in payload.similarity:
                bucket.append(
                    SimilarityMatch(
                        query_id=payload.query_id,
                        stream_id=stream_id,
                        distance_bound=dist,
                        reported_by=payload.client_id,
                        time=now,
                    )
                )

    @handles(WindowReply)
    def on_window_reply(self, message: Message, payload: WindowReply) -> None:
        """Complete a refine-phase window fetch.

        Settles the fetch's reliable exchange, caches the answering
        source, and hands the raw window to the waiting verification
        callback (``verify_similarity``).
        """
        self.locate_cache[payload.stream_id] = payload.source_id
        delivery_id = self._window_delivery.pop(payload.request_id, None)
        if delivery_id is not None:
            self.runtime.reliable.settle(delivery_id)
        waiter = self._window_waiters.pop(payload.request_id, None)
        if waiter is not None:
            waiter(np.asarray(payload.window, dtype=np.float64))

    # ------------------------------------------------------------------
    # periodic duties
    # ------------------------------------------------------------------
    def on_notification_tick(self, now: float) -> None:
        """Periodic duty: forget queries whose lifespan has ended.

        The refresh tick does this too, but it never runs while
        ``refresh_period_ms`` is 0, and the records would pile up.
        """
        self._forget_expired(now)

    def _forget_expired(self, now: float) -> None:
        for active in (self._active_sim_queries, self._active_ip_queries):
            for query_id in [q for q, (_, expires) in active.items() if expires <= now]:
                del active[query_id]

    def on_refresh_tick(self, now: float) -> None:
        """Re-disseminate live similarity and inner-product queries.

        Every refresh carries a fresh delivery id, so receivers
        reprocess it — re-installing subscription state lost to a
        crashed index node or a dropped span copy.
        """
        self._forget_expired(now)
        for query_id, (payload, expires) in list(self._active_sim_queries.items()):
            remaining = expires - now
            # annotated so the flow analyzer can attribute the refresh
            # re-dissemination (``payload`` is tuple-unpacked from an
            # attribute its constant propagation cannot see through)
            fresh: SimilaritySubscribe = replace(
                payload, lifespan_ms=remaining, delivery_id=next_delivery_id()
            )
            self._active_sim_queries[query_id] = (fresh, expires)
            self._stats.record_origination(KIND.QUERY)
            self.runtime.reliable_disseminate(
                fresh,
                kind=KIND.QUERY,
                transit_kind=KIND.QUERY_TRANSIT,
                low_key=fresh.low_key,
                high_key=fresh.high_key,
            )
        for query, expires in list(self._active_ip_queries.values()):
            self._route_inner_product(replace(query, lifespan_ms=expires - now))
