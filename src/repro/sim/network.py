"""Simulated message-passing network with full accounting.

The paper's evaluation is entirely about *messages*: average per-node
message load (Fig. 6a), the distribution of that load across nodes
(Fig. 6b), per-event message overhead (Fig. 7), and per-message hop
counts (Fig. 8).  Rather than instrumenting application code, every
message in this reproduction passes through :class:`Network.hop`, which
records, per message *kind*:

* a send at the transmitting node and a receive at the destination node
  (for load and load-distribution metrics),
* per-hop counts attributed to the logical message a hop belongs to
  (for hop-count metrics), and
* end-to-end latency when a message is finally *delivered*.

The per-hop latency is a constant — 50 ms by default, matching the MIT
Chord simulator configuration the paper used.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..perf import counters as _opc
from .engine import Simulator
from .faults import DROP_DEAD_DEST, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracing import MessageTracer

__all__ = [
    "Message",
    "MessageStats",
    "Network",
    "DEFAULT_HOP_DELAY_MS",
]

DEFAULT_HOP_DELAY_MS = 50.0
"""Per-hop routing delay used by the paper's Chord simulator setup."""

_msg_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """A logical application message travelling over the overlay.

    A single :class:`Message` may take several physical hops (overlay
    routing) and spawn *derived* messages (range-replication forwards).
    ``hops`` accumulates across the whole journey of this logical
    message, including hops inherited from a parent at spawn time, which
    is exactly the quantity Fig. 8 reports for "internal" messages.

    Attributes
    ----------
    kind:
        Accounting category, e.g. ``"mbr"``, ``"query_span"``.
    payload:
        Opaque application data.
    origin:
        Identifier of the node that originated the logical message.
    dest_key:
        The overlay key the message is being routed towards.
    hops:
        Number of physical hops taken so far.
    born:
        Simulated time (ms) the *root* message was created, for latency.
    msg_id:
        Unique id; derived messages get fresh ids but keep ``root_id``.
    root_id:
        Id of the originating message of this message's event, used to
        group overhead accounting per input event.
    tag:
        Free-form routing annotation; range multicast uses it to mark
        the spread direction (``"up"`` / ``"down"``).
    """

    kind: str
    payload: Any
    origin: int
    dest_key: int
    hops: int = 0
    born: float = 0.0
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    root_id: int = -1
    tag: str = ""

    def __post_init__(self) -> None:
        if self.root_id < 0:
            self.root_id = self.msg_id

    def derive(
        self, kind: str, *, dest_key: Optional[int] = None, tag: Optional[str] = None
    ) -> "Message":
        """Create a derived message (e.g. a range-replication forward).

        The derived message keeps the payload, origin, birth time, hop
        count and root id so that hop and overhead accounting continue
        to be attributed to the original input event.
        """
        return Message(
            kind=kind,
            payload=self.payload,
            origin=self.origin,
            dest_key=self.dest_key if dest_key is None else dest_key,
            hops=self.hops,
            born=self.born,
            root_id=self.root_id,
            tag=self.tag if tag is None else tag,
        )


class MessageStats:
    """Accumulates message counters for one simulation run.

    The raw counters kept here are deliberately low-level; the
    translation into the paper's figure components lives in
    :mod:`repro.core.metrics`.
    """

    def __init__(self) -> None:
        #: sends per (node, kind)
        self.sends: Counter[Tuple[int, str]] = Counter()
        #: receives per (node, kind)
        self.receives: Counter[Tuple[int, str]] = Counter()
        #: total sends per kind
        self.sends_by_kind: Counter[str] = Counter()
        #: (sum_hops, count) of delivered logical messages per kind.
        #: Plain dicts (get-or-init in ``record_delivery``) rather than
        #: ``defaultdict(lambda: ...)``: a lambda factory cannot be
        #: pickled, and the ledger must stay picklable.
        self.hops_by_kind: Dict[str, list] = {}
        #: (sum_latency_ms, count) of delivered logical messages per kind
        self.latency_by_kind: Dict[str, list] = {}
        #: number of originated input events per kind
        self.originations: Counter[str] = Counter()
        #: messages dropped in flight, per (kind, reason) — loss, outage,
        #: dead destination, …
        self.drops_per_kind: Counter[Tuple[str, str]] = Counter()
        #: injected duplicate copies per kind
        self.duplicates_by_kind: Counter[str] = Counter()
        #: redundant deliveries suppressed by receiver-side dedup, per kind
        self.duplicates_suppressed: Counter[str] = Counter()
        #: retransmissions issued by the reliable-delivery layer, per kind
        self.retransmissions: Counter[str] = Counter()
        #: reliable sends that exhausted their retry budget, per kind
        self.dead_letters: Counter[str] = Counter()
        #: reliable (acknowledged) deliveries attempted, per kind
        self.reliable_sends: Counter[str] = Counter()
        #: reliable deliveries confirmed by an ack, per kind
        self.reliable_acked: Counter[str] = Counter()
        #: reliable sends abandoned because the *sender* died, per kind
        self.reliable_cancelled: Counter[str] = Counter()
        #: delivered payloads no handler recognised, per message kind
        self.unknown_payloads: Counter[str] = Counter()
        #: read-repair pulls issued by quorum aggregators, per kind
        #: (replication only — empty at replication_factor 1)
        self.read_repairs: Counter[str] = Counter()
        #: hinted handoffs queued for a dead owner's arc, per kind
        self.handoffs_enqueued: Counter[str] = Counter()
        #: hinted handoffs dispatched to the arc's new owner, per kind
        self.handoffs_drained: Counter[str] = Counter()
        #: MBR publishes shed by admission control, per delivery kind
        #: (load-balancing only — empty unless admission_control is on)
        self.publishes_shed: Counter[str] = Counter()
        #: backpressure advisories emitted by overloaded holders, per kind
        self.backpressure_signals: Counter[str] = Counter()
        #: source publishes deferred by throttling, per kind
        self.source_throttles: Counter[str] = Counter()
        #: messages already in flight when this ledger was installed
        #: (their receives/drops land here without a matching send);
        #: set by ``StreamIndexSystem.reset_stats`` so the conservation
        #: equation balances across a counter reset
        self.in_flight_at_reset: int = 0

    # -- recording -----------------------------------------------------
    def record_send(self, node: int, kind: str) -> None:
        """Record one physical message transmission by ``node``."""
        self.sends[(node, kind)] += 1
        self.sends_by_kind[kind] += 1

    def record_receive(self, node: int, kind: str) -> None:
        """Record one physical message reception at ``node``."""
        self.receives[(node, kind)] += 1

    def record_origination(self, kind: str) -> None:
        """Record the creation of a new input event (MBR/query/response)."""
        self.originations[kind] += 1

    def record_drop(self, kind: str, reason: str) -> None:
        """Record a message lost in flight (and why)."""
        self.drops_per_kind[(kind, reason)] += 1

    def record_duplicate(self, kind: str) -> None:
        """Record an injected duplicate copy."""
        self.duplicates_by_kind[kind] += 1

    def record_duplicate_suppressed(self, kind: str) -> None:
        """Record a redundant delivery discarded by receiver-side dedup."""
        self.duplicates_suppressed[kind] += 1

    def record_retransmission(self, kind: str) -> None:
        """Record one retry of an unacknowledged reliable send."""
        self.retransmissions[kind] += 1

    def record_dead_letter(self, kind: str) -> None:
        """Record a reliable send abandoned after its retry budget."""
        self.dead_letters[kind] += 1

    def record_reliable_send(self, kind: str) -> None:
        """Record an acknowledged-delivery attempt (one per unique payload)."""
        self.reliable_sends[kind] += 1

    def record_reliable_ack(self, kind: str) -> None:
        """Record an acknowledged-delivery confirmation."""
        self.reliable_acked[kind] += 1

    def record_reliable_cancelled(self, kind: str) -> None:
        """Record a reliable send dropped because its sender crashed."""
        self.reliable_cancelled[kind] += 1

    def record_unknown_payload(self, kind: str) -> None:
        """Record a delivered payload that no handler recognised."""
        self.unknown_payloads[kind] += 1

    def record_read_repair(self, kind: str) -> None:
        """Record a read-repair pull issued by a quorum aggregator."""
        self.read_repairs[kind] += 1

    def record_handoff_enqueued(self, kind: str) -> None:
        """Record a replica copy queued for hinted handoff."""
        self.handoffs_enqueued[kind] += 1

    def record_handoff_drained(self, kind: str) -> None:
        """Record a hinted handoff dispatched to a new owner."""
        self.handoffs_drained[kind] += 1

    def record_publish_shed(self, kind: str) -> None:
        """Record an MBR publish shed by admission control."""
        self.publishes_shed[kind] += 1

    def record_backpressure(self, kind: str) -> None:
        """Record a backpressure advisory emitted to a source."""
        self.backpressure_signals[kind] += 1

    def record_source_throttle(self, kind: str) -> None:
        """Record a publish deferred by a throttled source."""
        self.source_throttles[kind] += 1

    def record_delivery(self, msg: Message, now: float) -> None:
        """Record final delivery of a logical message (hops & latency)."""
        kind = msg.kind
        acc = self.hops_by_kind.get(kind)
        if acc is None:
            acc = self.hops_by_kind[kind] = [0, 0]
        acc[0] += msg.hops
        acc[1] += 1
        lat = self.latency_by_kind.get(kind)
        if lat is None:
            lat = self.latency_by_kind[kind] = [0.0, 0]
        lat[0] += now - msg.born
        lat[1] += 1

    # -- queries -------------------------------------------------------
    def mean_hops(self, kind: str) -> float:
        """Average hop count of delivered messages of ``kind`` (0 if none)."""
        total, count = self.hops_by_kind.get(kind, (0, 0))
        return total / count if count else 0.0

    def mean_latency(self, kind: str) -> float:
        """Average end-to-end latency (ms) of delivered ``kind`` messages."""
        total, count = self.latency_by_kind.get(kind, (0.0, 0))
        return total / count if count else 0.0

    def load_by_node(self) -> Dict[int, int]:
        """Sends+receives per node, for the Fig. 6(b) distribution."""
        load: Dict[int, int] = defaultdict(int)
        for (n, _k), v in self.sends.items():
            load[n] += v
        for (n, _k), v in self.receives.items():
            load[n] += v
        return dict(load)

    def total_drops(self) -> int:
        """Messages lost in flight, all kinds and reasons combined."""
        return sum(self.drops_per_kind.values())

    def drops_by_reason(self) -> Dict[str, int]:
        """Drop totals aggregated over kinds, keyed by reason."""
        out: Dict[str, int] = defaultdict(int)
        for (_kind, reason), v in self.drops_per_kind.items():
            out[reason] += v
        return dict(out)

    def delivery_ratio(self, kind: Optional[str] = None) -> float:
        """Fraction of reliable sends confirmed by an ack (1.0 if none).

        With ``kind`` given, the ratio for that kind only; otherwise the
        overall ratio across every reliably-sent kind.
        """
        if kind is not None:
            attempted = self.reliable_sends.get(kind, 0)
            return self.reliable_acked.get(kind, 0) / attempted if attempted else 1.0
        attempted = sum(self.reliable_sends.values())
        return sum(self.reliable_acked.values()) / attempted if attempted else 1.0

    def eventual_delivery_ratio(self, in_flight: int = 0) -> float:
        """Acked fraction of reliable sends whose outcome is *settled*.

        The instantaneous :meth:`delivery_ratio` undercounts on a live
        system: sends still inside their retry schedule at measurement
        cutoff, and sends whose originating node crashed (nobody is left
        waiting for the answer), are unsettled rather than failed.  This
        view excludes both — pass the number of still-pending sends as
        ``in_flight`` (see ``StreamIndexSystem.pending_reliable``) — so
        the complement is exactly the dead-letter rate.
        """
        attempted = (
            sum(self.reliable_sends.values())
            - sum(self.reliable_cancelled.values())
            - in_flight
        )
        acked = sum(self.reliable_acked.values())
        return acked / attempted if attempted > 0 else 1.0


class Network:
    """Point-to-point message fabric with per-hop delay and faults.

    The network knows nothing about Chord: routing decisions are made by
    the overlay layer, which calls :meth:`hop` once per physical hop.
    Without an ``injector`` every hop takes the constant
    ``hop_delay_ms`` and arrives exactly once — the seed (and paper)
    behaviour.  With a :class:`~repro.sim.faults.FaultInjector`
    attached, each hop may be dropped, jittered, or duplicated according
    to the injector's :class:`~repro.sim.faults.FaultPlan`, with every
    injected event accounted in :class:`MessageStats`.
    """

    def __init__(
        self,
        sim: Simulator,
        *,
        hop_delay_ms: float = DEFAULT_HOP_DELAY_MS,
        stats: Optional[MessageStats] = None,
        tracer: Optional["MessageTracer"] = None,
        injector: Optional[FaultInjector] = None,
        liveness: Optional[Callable[[int], bool]] = None,
    ) -> None:
        self.sim = sim
        self.hop_delay_ms = float(hop_delay_ms)
        self.stats = stats if stats is not None else MessageStats()
        #: optional :class:`repro.sim.tracing.MessageTracer`; may also be
        #: attached after construction
        self.tracer = tracer
        #: optional fault injector consulted on every hop
        self.injector = injector
        #: optional ``node_id -> alive?`` oracle; when set, messages
        #: arriving at a node that died while they were in flight are
        #: dropped (and counted) instead of invoking its handlers
        self.liveness = liveness
        #: physical copies currently travelling (scheduled but not yet
        #: arrived); with ``stats.in_flight_at_reset`` this closes the
        #: conservation equation checked by
        #: :func:`repro.analysis.invariants.check_message_conservation`
        self.in_flight = 0

    def hop(
        self,
        src: int,
        dst: int,
        msg: Message,
        on_arrival: Callable[..., None],
        *cb_args: Any,
    ) -> None:
        """Transmit ``msg`` one physical hop from ``src`` to ``dst``.

        Accounting: a send at ``src`` and (on arrival) a receive at
        ``dst`` are recorded under ``msg.kind``; ``msg.hops`` is
        incremented.  ``on_arrival(*cb_args, msg)`` runs at the
        destination after the hop delay — unless the fault injector
        drops the hop or the destination died in flight, in which case
        the loss is recorded under ``drops_per_kind`` and the handler
        never runs.  An injected duplicate schedules a second,
        independently delayed arrival carrying a field-identical copy of
        the message.

        ``cb_args`` lets hot callers pass a bound method plus its
        leading arguments instead of allocating a per-hop closure (the
        overlay's routing step is the main user; see PERFORMANCE.md).
        """
        self.stats.record_send(src, msg.kind)
        if self.tracer is not None:
            self.tracer.record_send(self.sim.now, src, dst, msg)
        msg.hops += 1
        c = _opc.ACTIVE
        if c is not None:
            c.inc("net.hops")

        if self.injector is not None:
            verdict = self.injector.judge(src, dst, msg.kind, self.sim.now)
            if verdict.dropped:
                self.stats.record_drop(msg.kind, verdict.drop_reason)
                if c is not None:
                    c.inc("net.drops")
                return
            delay = verdict.delay_ms
            dup_delay = verdict.duplicate_delay_ms
        else:
            delay = self.hop_delay_ms
            dup_delay = None

        self.in_flight += 1
        self.sim.schedule(delay, self._arrive, dst, on_arrival, cb_args, msg)
        if dup_delay is not None:
            # The copy keeps msg_id/root_id (it *is* the same logical
            # message) but routes independently from here on.
            self.stats.record_duplicate(msg.kind)
            if c is not None:
                c.inc("net.duplicates")
            self.in_flight += 1
            self.sim.schedule(
                dup_delay, self._arrive, dst, on_arrival, cb_args, replace(msg)
            )

    def _arrive(
        self,
        dst: int,
        on_arrival: Callable[..., None],
        cb_args: Tuple[Any, ...],
        m: Message,
    ) -> None:
        """Complete one physical hop at ``dst`` (scheduled by :meth:`hop`).

        A bound method with pre-bound arguments instead of a per-hop
        closure: the handle-pooled engine stores the argument tuple, so
        steady-state hops allocate no function objects.
        """
        self.in_flight -= 1
        if self.liveness is not None and not self.liveness(dst):
            self.stats.record_drop(m.kind, DROP_DEAD_DEST)
            return
        self.stats.record_receive(dst, m.kind)
        if cb_args:
            on_arrival(*cb_args, m)
        else:
            on_arrival(m)

    def record_delivery(self, node: int, msg: Message) -> None:
        """Record final delivery of a logical message (stats + trace)."""
        self.stats.record_delivery(msg, self.sim.now)
        if self.tracer is not None:
            self.tracer.record_deliver(self.sim.now, node, msg)

    def local(self, node: int, msg: Message, on_arrival: Callable[[Message], None]) -> None:
        """Deliver ``msg`` to ``node`` itself without a network hop.

        Used when the routing source already covers the destination key:
        no message is sent, nothing enters the figure statistics, the
        callback runs immediately (still via the scheduler, for ordering
        determinism).
        """
        c = _opc.ACTIVE
        if c is not None:
            c.inc("net.local")
        self.sim.schedule(0.0, on_arrival, msg)
