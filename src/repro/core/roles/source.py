"""Stream-source role (Fig. 5): ingest, summarize, publish, answer.

The source service owns the per-stream state of every locally attached
stream: the incremental DFT pipeline, the MBR batcher, and the
soft-state record of the last publication.  Its message handlers serve
the two payloads only a stream's source can answer — inner-product
subscriptions (Sec. IV-D, Eq. 7) and raw-window fetches — and its
periodic duties are the Eq. 7 result pushes and the refresh-tick
re-registration / re-publication that heals lost soft state.

Inner-product subscriptions are *stored* in the co-located index
holder's :class:`~repro.core.index.LocalIndex` (reached through the
runtime) so purging stays in one place.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, Optional

import numpy as np

from ...chord.hashing import stream_identifier
from ...sim.network import Message
from ...streams.dft import reconstruct_from_coefficients
from ...streams.features import IncrementalFeatureExtractor
from ..adaptive import AdaptiveMBRBatcher, estimate_system_size
from ..mbr import MBRBatcher
from ..protocol import (
    KIND,
    Backpressure,
    InnerProductSubscribe,
    LoadShed,
    MbrPublish,
    RegisterStream,
    ResponsePush,
    WindowReply,
    WindowRequest,
    next_delivery_id,
)
from .base import RoleService, handles

__all__ = ["SourceService", "SourceState"]


@dataclass
class SourceState:
    """Per-stream state kept at the stream's source data center."""

    stream_id: str
    extractor: IncrementalFeatureExtractor
    batcher: MBRBatcher
    generator: Callable[[], float]
    values_ingested: int = 0
    mbrs_published: int = 0
    #: most recent publication, kept for soft-state refresh: if the
    #: index copy is lost (crash, loss) the source re-asserts it with
    #: the remaining lifespan until it would have expired anyway
    last_publish: Optional[MbrPublish] = None
    last_publish_ms: float = 0.0


class SourceService(RoleService):
    """The stream-source role of one data center."""

    role = "source"

    def __init__(self, runtime) -> None:
        super().__init__(runtime)
        self.sources: Dict[str, SourceState] = {}
        # Queue-based load leveling (DESIGN.md §13): when holders push
        # back, publishes queue here and drain at the advised cadence.
        # All four fields stay at their initial values — and no timer is
        # ever scheduled — while admission_control is off.
        self._publish_queue: Deque[MbrPublish] = deque()
        #: earliest simulated time the next publish may leave
        self._next_allowed_ms = 0.0
        #: current inter-publish gap; raised by Backpressure advisories,
        #: decayed by half each time the queue fully drains
        self._throttle_ms = 0.0
        self._drain_scheduled = False

    @property
    def index(self):
        """The co-located index holder's store (registry + subscriptions)."""
        return self.runtime.holder.index

    # ------------------------------------------------------------------
    # ingestion / publication API
    # ------------------------------------------------------------------
    def attach_stream(self, stream_id: str, generator: Callable[[], float]) -> SourceState:
        """Make this data center the source of ``stream_id``.

        Registers the stream with the ``h2`` location service and sets
        up the incremental summary pipeline.  The system is responsible
        for driving :meth:`on_stream_value` at the stream's period.
        """
        if stream_id in self.sources:
            raise ValueError(f"stream {stream_id!r} already attached")
        if self.cfg.adaptive_mbr:
            batcher = AdaptiveMBRBatcher(stream_id, self.cfg.batch_size)
        else:
            batcher = MBRBatcher(stream_id, self.cfg.batch_size)
        src = SourceState(
            stream_id=stream_id,
            extractor=IncrementalFeatureExtractor(
                self.cfg.window_size, self.cfg.k, mode=self.cfg.normalization
            ),
            batcher=batcher,
            generator=generator,
        )
        self.sources[stream_id] = src
        self._register_stream(stream_id)
        return src

    def _register_stream(self, stream_id: str) -> None:
        key = stream_identifier(stream_id, self.node.space)
        self._stats.record_origination(KIND.REGISTER)
        payload = RegisterStream(
            stream_id=stream_id,
            source_id=self.node_id,
            delivery_id=next_delivery_id(),
        )
        self.runtime.reliable_route(
            payload,
            kind=KIND.REGISTER,
            transit_kind=KIND.REGISTER_TRANSIT,
            dest_key=key,
        )

    def on_stream_value(self, stream_id: str) -> None:
        """Ingest the next value of a locally attached stream."""
        src = self.sources[stream_id]
        value = src.generator()
        src.values_ingested += 1
        feature = src.extractor.push(value)
        if feature is None:
            return
        mbr = src.batcher.add(feature, now=self.transport.now)
        if mbr is not None:
            src.mbrs_published += 1
            self.publish_mbr(mbr)

    def publish_mbr(self, mbr) -> None:
        """Route one MBR of summaries to its key range (Sec. IV-B/G)."""
        vlow, vhigh = mbr.first_coordinate_interval
        klow, khigh = self.system.mapper.key_range(vlow, vhigh)
        src = self.sources.get(mbr.stream_id)
        if src is not None and isinstance(src.batcher, AdaptiveMBRBatcher):
            # Sec. VI-A feedback: estimate how many nodes this box will
            # span from the key width and the locally estimated N.
            frac = ((khigh - klow) % self.node.space.size) / self.node.space.size
            src.batcher.feedback(frac * estimate_system_size(self.node) + 1.0)
        payload = MbrPublish(
            mbr=mbr,
            source_id=self.node_id,
            low_key=klow,
            high_key=khigh,
            lifespan_ms=self.cfg.workload.bspan_ms,
            delivery_id=next_delivery_id(),
        )
        if src is not None:
            src.last_publish = payload
            src.last_publish_ms = self.transport.now
        self._offer_publish(payload)

    # ------------------------------------------------------------------
    # throttled publish path (DESIGN.md §13)
    # ------------------------------------------------------------------
    def _send_publish(self, payload: MbrPublish, now: float) -> None:
        """Actually disseminate one publish (the pre-§13 send verbatim)."""
        self._stats.record_origination(KIND.MBR)
        self._next_allowed_ms = now + self._throttle_ms
        self.runtime.reliable_disseminate(
            payload,
            kind=KIND.MBR,
            transit_kind=KIND.MBR_TRANSIT,
            low_key=payload.low_key,
            high_key=payload.high_key,
        )

    def _offer_publish(self, payload: MbrPublish) -> None:
        """Send now if the throttle allows, else queue for the drain timer.

        With ``admission_control`` off this is a straight pass-through
        to :meth:`_send_publish` — bit-identical to the pre-§13 path.
        """
        now = self.transport.now
        if not self.cfg.admission_control:
            self._send_publish(payload, now)
            return
        if not self._publish_queue and now >= self._next_allowed_ms:
            self._send_publish(payload, now)
            return
        self._stats.record_source_throttle(KIND.MBR)
        self._publish_queue.append(payload)
        self._schedule_drain(now)

    def _schedule_drain(self, now: float) -> None:
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.transport.schedule(
                max(1.0, self._next_allowed_ms - now), self._drain_publishes
            )

    def _drain_publishes(self) -> None:
        """Drain queued publishes at the advised cadence, then decay it."""
        self._drain_scheduled = False
        if not self.node.alive:
            return
        now = self.transport.now
        while self._publish_queue and now >= self._next_allowed_ms:
            self._send_publish(self._publish_queue.popleft(), now)
        if self._publish_queue:
            self._schedule_drain(now)
            return
        # queue drained: relax the throttle toward full speed
        self._throttle_ms *= 0.5
        if self._throttle_ms < 1.0:
            self._throttle_ms = 0.0

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    @handles(InnerProductSubscribe)
    def on_inner_product_subscribe(
        self, message: Message, payload: InnerProductSubscribe
    ) -> None:
        """Install an inner-product subscription at the stream's source.

        Sec. IV-D/E: the query reached us through the ``h2`` location
        service; the source stores it (in the co-located index, so
        purging stays in one place) and answers from the summary alone
        on each notification tick (Eq. 7).
        """
        if payload.query.stream_id not in self.sources:
            return  # stale registry entry; the stream moved or vanished
        self.index.add_inner_product_sub(
            payload, expires=self.transport.now + payload.query.lifespan_ms
        )

    @handles(WindowRequest)
    def on_window_request(self, message: Message, payload: WindowRequest) -> None:
        """Serve (or forward) a raw-window fetch of the refine phase.

        Beyond the paper's letter: the two-phase filter-and-refine
        pipeline lets a client verify index candidates against the raw
        sliding window.  If we source the stream, reply with the window;
        otherwise we are the ``h2`` location node — forward to the
        registered source.
        """
        src = self.sources.get(payload.stream_id)
        if src is not None:
            if not src.extractor.ready:
                return  # nothing to report yet; the client's fetch times out
            reply = WindowReply(
                stream_id=payload.stream_id,
                request_id=payload.request_id,
                window=src.extractor.window.values(),
                source_id=self.node_id,
            )
            self._stats.record_origination(KIND.RESPONSE)
            msg = Message(
                kind=KIND.RESPONSE,
                payload=reply,
                origin=self.node_id,
                dest_key=payload.requester_id,
            )
            self.transport.route(
                self.node, msg, transit_kind=KIND.RESPONSE_TRANSIT
            )
            return
        # not the source: we are the location-service node — forward
        source_id = self.index.registry.get(payload.stream_id)
        if source_id is None or source_id == self.node_id:
            return  # unknown stream; request is dropped
        msg = Message(
            kind=KIND.QUERY,
            payload=payload,
            origin=self.node_id,
            dest_key=source_id,
        )
        self.transport.route(self.node, msg, transit_kind=KIND.QUERY_TRANSIT)

    @handles(LoadShed)
    def on_load_shed(self, message: Message, payload: LoadShed) -> None:
        """A holder shed one of our publishes: re-offer it later (§13).

        The re-publish carries the *remaining* lifespan (the shed notice
        quotes the original expiry), so shedding delays visibility but
        never extends a lease.  The retry is pushed behind at least one
        token interval so a still-overloaded holder isn't immediately
        hit again — without that floor, shed and re-publish would
        ping-pong at network speed.
        """
        src = self.sources.get(payload.stream_id)
        if src is None or src.last_publish is None:
            return  # stream detached meanwhile; nothing to re-assert
        now = self.transport.now
        remaining = payload.expires_ms - now
        if remaining <= 0:
            return  # would have expired anyway
        self._next_allowed_ms = max(
            self._next_allowed_ms, now + 1000.0 / self.cfg.admission_rate_per_s
        )
        fresh: MbrPublish = replace(
            src.last_publish,
            lifespan_ms=remaining,
            delivery_id=next_delivery_id(),
        )
        self._offer_publish(fresh)

    @handles(Backpressure)
    def on_backpressure(self, message: Message, payload: Backpressure) -> None:
        """Stretch the publish cadence as an overloaded holder advises.

        The throttle never shrinks below the advised gap while notices
        keep arriving; once they stop, the drain loop halves it back
        toward zero — multiplicative decrease both ways keeps the
        control loop stable without per-holder state at the source.
        """
        now = self.transport.now
        self._throttle_ms = max(self._throttle_ms, payload.slow_down_ms)
        self._next_allowed_ms = max(self._next_allowed_ms, now + payload.slow_down_ms)
        self._stats.record_source_throttle(KIND.BACKPRESSURE)

    # ------------------------------------------------------------------
    # periodic duties
    # ------------------------------------------------------------------
    def on_notification_tick(self, now: float) -> None:
        """Periodic duty: push fresh Eq. 7 inner-product results."""
        self._push_inner_products(now)

    def on_refresh_tick(self, now: float) -> None:
        """Re-assert soft state: re-register streams, re-publish MBRs.

        The freshest MBR is re-published with its *remaining* lifespan,
        so refresh never extends an entry past its original expiry.
        """
        for stream_id, src in self.sources.items():
            self._register_stream(stream_id)
            last = src.last_publish
            if last is not None:
                remaining = src.last_publish_ms + last.lifespan_ms - now
                if remaining > 0:
                    # annotated so the flow analyzer can attribute the
                    # refresh re-publish (``last`` comes off an attribute
                    # its constant propagation cannot see through)
                    fresh: MbrPublish = replace(
                        last,
                        lifespan_ms=remaining,
                        delivery_id=next_delivery_id(),
                    )
                    self._stats.record_origination(KIND.MBR)
                    self.runtime.reliable_disseminate(
                        fresh,
                        kind=KIND.MBR,
                        transit_kind=KIND.MBR_TRANSIT,
                        low_key=fresh.low_key,
                        high_key=fresh.high_key,
                    )

    def _push_inner_products(self, now: float) -> None:
        """Evaluate Eq. 7 and push results to subscribers."""
        recon_cache: Dict[str, np.ndarray] = {}
        for stored in self.index.inner_product_subs.values():
            query = stored.sub.query
            src = self.sources.get(query.stream_id)
            if src is None or not src.extractor.ready:
                continue
            approx = recon_cache.get(query.stream_id)
            if approx is None:
                approx = reconstruct_from_coefficients(
                    src.extractor.raw_coefficients(), self.cfg.window_size
                )
                recon_cache[query.stream_id] = approx
            value = float(np.dot(query.weight_vector, approx[query.index_vector]))
            payload = ResponsePush(
                client_id=stored.sub.client_id,
                query_id=query.query_id,
                inner_product=value,
                stream_id=query.stream_id,
                source_id=self.node_id,
            )
            self.runtime.send_response(stored.sub.client_id, payload)
