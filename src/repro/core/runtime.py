"""NodeRuntime: the middleware application running at one data center.

One :class:`NodeRuntime` runs at every data center and plays the four
roles of Fig. 5 at once, each one service of :mod:`repro.core.roles`:

* **stream source** — ingests local sensor values, maintains the
  incremental DFT summary, batches feature vectors into MBRs
  (Sec. IV-G) and routes each MBR by content to its key range;
* **index holder** — stores MBRs routed to it, matches them against the
  similarity subscriptions it holds, and periodically reports detected
  candidates to each query's aggregation (middle) node;
* **aggregator** — for queries whose middle key it owns, merges
  candidate reports and periodically pushes responses to the client
  (Sec. IV-F);
* **client** — posts similarity and inner-product queries on behalf of
  local users and collects the responses.

Inner-product queries follow Sec. IV-D: the stream id is hashed with a
second function ``h2`` onto the ring as a location service; the query is
forwarded to the stream's source, which answers from the summary via
the Eq. 7 inverse transform.

The runtime itself owns everything that is *not* role logic:

* typed dispatch — delivered payloads are routed to the single role
  handler declared with ``@handles`` (see :mod:`repro.core.roles.base`);
* delivery policy — receive-side duplicate suppression with a bounded
  seen-set and ack emission, both driven by the per-payload metadata
  each payload type declares in the protocol registry
  (:class:`~repro.core.protocol.PayloadSpec`), so runtime, invariant
  checker and simlint all read one source of truth;
* reliable delivery — the :class:`~repro.core.reliable.ReliableSender`
  ack/retry state machine, plus the route/disseminate helpers roles use
  to send under it;
* periodic ticks — the NPER notification tick and the soft-state
  refresh tick, fanned out to the roles in a fixed order;
* the unknown-payload fallback — delivered payloads no handler claims
  are counted and traced, never silently dropped.

It is the object :class:`~repro.core.system.StreamIndexSystem` builds per
node, the overlay delivers to, and a socket peer
(:class:`~repro.net.peer.PeerNode`) holds as its ``app``.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Set, Tuple

from ..chord.node import ChordNode
from ..perf import counters as _opc
from ..sim.network import Message
from .protocol import KIND, Ack, PayloadSpec, next_delivery_id, spec_of
from .reliable import ReliableSender
from .roles.aggregator import AggregatorService
from .roles.base import handler_names
from .roles.client import ClientService
from .roles.holder import IndexHolderService
from .roles.source import SourceService

__all__ = ["NodeRuntime", "DEFAULT_SERVICES", "HANDLERS", "DEDUP_SEEN_LIMIT"]

#: sender attribution for the ``repro flow`` static analyzer: payloads
#: put on the wire by this module (delivery acks) originate from the
#: dispatch layer itself, not from any Fig. 5 role
FLOW_ROLE = "(runtime)"

#: per-node bound on remembered delivery ids for receive-side duplicate
#: suppression (FIFO eviction once full).  Sized so ids outlive the
#: retry window: an id evicted while its sender still retransmits would
#: let a duplicate through as a fresh delivery.
DEDUP_SEEN_LIMIT = 8192

#: the Fig. 5 role set, in tick fan-out order: the notification tick
#: must run purge/report (holder) -> response push (aggregator) ->
#: inner-product push (source), and the refresh tick re-asserts source
#: state before client state — both orders are load-bearing for the
#: byte-identical determinism contract.
DEFAULT_SERVICES = (
    IndexHolderService,
    AggregatorService,
    SourceService,
    ClientService,
)

#: payload type -> (role class, handler method name), scanned once per
#: process.  Each node binds the methods by name when it is built, so a
#: method patched on its class before then (a tracer) is the one bound.
HANDLERS = handler_names(DEFAULT_SERVICES)


class NodeRuntime:
    """The app of one data center: four roles, dispatch, reliability, ticks."""

    def __init__(self, node: ChordNode, system) -> None:
        self.node = node
        self.node_id = node.node_id
        self.system = system
        self.cfg = system.config
        #: the Transport seam — the only path to the clock, the timer
        #: wheel and the fabric's send primitives (DESIGN.md §12)
        self.transport = system.transport
        #: ack/retry state machine (no-op unless cfg.reliable_delivery)
        self.reliable = ReliableSender(self)
        #: deliveries already processed here (receive-side dedup), keyed
        #: by (origin, delivery_id): delivery ids are only unique per
        #: originating node once nodes run as separate OS processes.
        #: Tracked only when the config has a mechanism that can replay
        #: a delivery at all — otherwise the set can never hit and its
        #: upkeep is pure memory overhead at scale.
        self._dedup_enabled = self.cfg.duplicates_possible
        self._seen_deliveries: Set[Tuple[int, int]] = set()
        self._seen_order: Deque[Tuple[int, int]] = deque()
        #: the role services, in :data:`DEFAULT_SERVICES` order
        self.services = tuple(cls(self) for cls in DEFAULT_SERVICES)
        self.holder, self.aggregator, self.source, self.client = self.services
        by_class = dict(zip(DEFAULT_SERVICES, self.services))
        #: payload type -> (its registry spec, this node's bound handler)
        self.dispatch = {
            ptype: (spec_of(ptype), getattr(by_class[cls], name))
            for ptype, (cls, name) in HANDLERS.items()
        }
        # the app surface that systems, examples and benchmarks read,
        # bound straight to the role that owns it
        self.index = self.holder.index
        self.sources = self.source.sources
        self.similarity_results = self.client.similarity_results
        self.inner_product_results = self.client.inner_product_results
        self.attach_stream = self.source.attach_stream
        self.on_stream_value = self.source.on_stream_value
        self.post_similarity_query = self.client.post_similarity_query
        self.post_inner_product_query = self.client.post_inner_product_query
        self.verify_similarity = self.client.verify_similarity

    # ------------------------------------------------------------------
    # reliable-delivery plumbing (used by role services to send)
    # ------------------------------------------------------------------
    def reliable_route(
        self,
        payload,
        *,
        kind: str,
        transit_kind: str,
        dest_key: int,
        on_give_up: Optional[Callable[[], None]] = None,
    ) -> None:
        """Route a payload with retransmission (when reliability is on)."""

        def send() -> None:
            msg = Message(
                kind=kind, payload=payload, origin=self.node_id, dest_key=dest_key
            )
            self.transport.route(self.node, msg, transit_kind=transit_kind)

        self.reliable.track(payload, kind, send, on_give_up)
        send()

    def reliable_disseminate(
        self, payload, *, kind: str, transit_kind: str, low_key: int, high_key: int
    ) -> None:
        """Range-multicast a payload with retransmission of the entry send.

        Only the entry node acks (span copies never do); losses further
        along the span are healed by the periodic refresh, not retries.
        """

        def send() -> None:
            self.transport.disseminate(
                self.node,
                payload,
                kind=kind,
                transit_kind=transit_kind,
                low_key=low_key,
                high_key=high_key,
            )

        self.reliable.track(payload, kind, send)
        send()

    def send_response(self, client_id: int, payload) -> None:
        """Send a :class:`ResponsePush` to a client, reliably."""
        if payload.delivery_id < 0:
            payload.delivery_id = next_delivery_id()
        self.transport.stats.record_origination(KIND.RESPONSE)
        self.reliable_route(
            payload,
            kind=KIND.RESPONSE,
            transit_kind=KIND.RESPONSE_TRANSIT,
            dest_key=client_id,
        )

    # ------------------------------------------------------------------
    # delivery policy (driven by the protocol registry)
    # ------------------------------------------------------------------
    def _note_delivery(self, origin: int, payload) -> bool:
        """Remember a payload's delivery; ``True`` if seen before.

        Keyed by ``(origin, delivery_id)``: every legitimate duplicate
        of a delivery (retransmission after a lost ack, span copy,
        network-injected duplicate) is a copy of one logical message
        and therefore shares its origin, while two *different* nodes
        running as separate OS processes may well hand out the same
        bare delivery id from their process-local counters.
        """
        if not self._dedup_enabled:
            return False
        delivery_id = getattr(payload, "delivery_id", -1)
        if delivery_id < 0:
            return False
        key = (origin, delivery_id)
        if key in self._seen_deliveries:
            return True
        self._seen_deliveries.add(key)
        self._seen_order.append(key)
        if len(self._seen_order) > DEDUP_SEEN_LIMIT:
            self._seen_deliveries.discard(self._seen_order.popleft())
        return False

    def _maybe_ack(self, message: Message, payload, spec: PayloadSpec) -> None:
        """Acknowledge a primary delivery of an ack-eligible payload.

        Per the payload's registry metadata: only when the spec enables
        acking and the delivery arrived under one of its primary kinds
        (span copies travel under span kinds and are never acked).
        Duplicates are re-acked too: the original ack may be the copy
        the network lost.  Local deliveries settle the sender directly
        (we *are* the sender) without network traffic.
        """
        if not self.cfg.reliable_delivery:
            return
        if not spec.ack_on_delivery or message.kind not in spec.ack_kinds:
            return
        delivery_id = getattr(payload, "delivery_id", -1)
        if delivery_id < 0:
            return
        if message.origin == self.node_id:
            self.reliable.on_ack(delivery_id)
            return
        ack = Ack(delivery_id=delivery_id, acker_id=self.node_id, kind=message.kind)
        msg = Message(
            kind=KIND.ACK, payload=ack, origin=self.node_id, dest_key=message.origin
        )
        self.transport.route(self.node, msg, transit_kind=KIND.ACK_TRANSIT)

    # ------------------------------------------------------------------
    # DHT application upcall
    # ------------------------------------------------------------------
    def deliver(self, node: ChordNode, message: Message) -> None:
        """Dispatch a delivered overlay message by payload type.

        Redundant deliveries of idempotence-critical payloads
        (retransmissions after a lost ack, network-injected duplicates)
        are suppressed by delivery id before dispatch — and re-acked,
        since the sender retransmitting means our first ack was lost.
        Which payload types dedup / ack is declared per type in the
        protocol registry, not here.
        """
        payload = message.payload
        if isinstance(payload, Ack):
            self.reliable.on_ack(payload.delivery_id)
            return
        c = _opc.ACTIVE
        if c is not None:
            c.inc("dispatch.delivered")
        ptype = type(payload)
        spec, handler = self.dispatch.get(ptype) or (spec_of(ptype), None)
        if spec is None:
            self._on_unknown(node, message)
            return
        if spec.dedup and self._note_delivery(message.origin, payload):
            self.transport.stats.record_duplicate_suppressed(message.kind)
            self._maybe_ack(message, payload, spec)
            return
        self._maybe_ack(message, payload, spec)
        if handler is None:
            self._on_unknown(node, message)
            return
        handler(message, payload)

    def _on_unknown(self, node: ChordNode, message: Message) -> None:
        """Count and trace a delivered payload no handler claims.

        Unknown payloads are tolerated (forward compatibility) but never
        silently dropped: the stats counter and the ``"unknown"`` trace
        event keep fault-model debugging from chasing ghosts.
        """
        self.transport.stats.record_unknown_payload(message.kind)
        tracer = self.transport.tracer
        if tracer is not None:
            tracer.record_unknown(self.transport.now, self.node_id, message)

    # ------------------------------------------------------------------
    # periodic ticks (fanned out to roles in service order)
    # ------------------------------------------------------------------
    def on_notification_tick(self) -> None:
        """The NPER-periodic duties: purge, detect, report, respond, push."""
        if not self.node.alive:
            return  # a crashed data center must not report from the grave
        now = self.transport.now
        for svc in self.services:
            svc.on_notification_tick(now)

    def on_refresh_tick(self) -> None:
        """Soft-state healing: periodically re-assert what should exist."""
        if not self.node.alive:
            return
        now = self.transport.now
        for svc in self.services:
            svc.on_refresh_tick(now)
