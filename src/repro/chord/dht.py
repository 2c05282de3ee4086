"""The DHT application interface: ``send`` / ``deliver`` over the overlay.

Content-based routing schemes share a common interface (Sec. II-B of the
paper): *send(key, message)* routes a message to whichever node covers
the key; *deliver* is the application upcall at the destination; *join*
and *leave* change membership.  :class:`DhtOverlay` implements that
interface on top of the simulated network, taking the same greedy hops
as :mod:`repro.chord.routing` but paying the per-hop latency and
recording every transmission in :class:`repro.sim.network.MessageStats`.
It is also the simulator's whole :class:`~repro.net.transport.Transport`:
the clock and timers of the network's simulator, the network's live
stats and tracer, and range multicast over its own
:class:`~repro.core.multicast.RangeMulticast` (DESIGN.md §12).

Accounting convention (matches the paper's figure components):

* the **first** hop of a routed message is counted under the message's
  own kind (e.g. ``"mbr"``, ``"query"``) — it is the origination send;
* every **subsequent** hop is counted under the ``transit_kind`` (e.g.
  ``"mbr_transit"``) — these are the "messages in transit sent by
  intermediate nodes" of Fig. 6(a)/7;
* hop counts and latency are recorded at final delivery under the
  message's base kind (Fig. 8).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Protocol

from ..core.multicast import RangeMulticast
from ..sim.network import Message, MessageStats, Network
from .node import ChordNode
from .ring import ChordRing
from .routing import next_hop

__all__ = ["DhtApp", "DhtOverlay"]


class DhtApp(Protocol):
    """What the overlay expects of an application (the middleware node)."""

    def deliver(self, node: ChordNode, message: Message) -> None:
        """Upcall invoked when a message reaches the node covering its key."""
        ...  # pragma: no cover - protocol definition


class DhtOverlay:
    """Routes application messages across the Chord ring, hop by hop.

    One overlay instance serves all nodes; per-node state lives in the
    :class:`~repro.chord.node.ChordNode` objects and in the registered
    applications.  ``strategy`` is the range-multicast strategy
    (``MiddlewareConfig.multicast``).
    """

    def __init__(
        self, ring: ChordRing, network: Network, strategy: str = "sequential"
    ) -> None:
        self.ring = ring
        self.network = network
        self.multicast = RangeMulticast(self, strategy)
        #: bounded: one entry per registered app, i.e. per live node
        self._apps: Dict[int, DhtApp] = {}

    # ------------------------------------------------------------------
    # clock and observability (live views: ``reset_stats`` swaps the
    # network's stats object mid-run)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.network.sim.now

    def schedule(self, delay_ms: float, fn: Callable[..., None], *args: Any):
        return self.network.sim.schedule(delay_ms, fn, *args)

    @property
    def stats(self) -> MessageStats:
        return self.network.stats

    @property
    def tracer(self) -> Optional[Any]:
        return self.network.tracer

    # ------------------------------------------------------------------
    # application registration
    # ------------------------------------------------------------------
    def register_app(self, node: ChordNode, app: DhtApp) -> None:
        """Attach the application upcall handler for ``node``."""
        self._apps[node.node_id] = app

    def unregister_app(self, node: ChordNode) -> None:
        """Detach the handler (node left the system)."""
        self._apps.pop(node.node_id, None)

    # ------------------------------------------------------------------
    # send primitives
    # ------------------------------------------------------------------
    def route(
        self,
        src: ChordNode,
        msg: Message,
        *,
        transit_kind: str,
        on_delivered: Optional[Callable[[ChordNode, Message], None]] = None,
    ) -> None:
        """Route ``msg`` towards ``msg.dest_key`` starting at ``src``.

        Delivery happens at the node covering the key; the registered
        app's :meth:`~DhtApp.deliver` runs there, followed by
        ``on_delivered`` if given.  If ``src`` itself covers the key the
        delivery is local and free (no messages, no hops) — consistent
        with the paper, where a data center stores its own summaries
        locally without network traffic.
        """
        base_kind = msg.kind
        msg.born = self.network.sim.now if msg.born == 0.0 else msg.born  # simlint: disable=D004 (0.0 is the unset sentinel)
        self._route_step(src, base_kind, transit_kind, on_delivered, True, msg)

    def _route_step(
        self,
        node: ChordNode,
        base_kind: str,
        transit_kind: str,
        on_delivered: Optional[Callable[[ChordNode, Message], None]],
        first: bool,
        m: Message,
    ) -> None:
        """One greedy hop of :meth:`route`.

        A bound method with its state passed positionally (instead of a
        per-route closure) so the per-hop continuation is just this
        method plus an argument tuple the pooled engine already stores —
        routing allocates no function objects (PERFORMANCE.md).
        """
        if not node.alive:
            return  # message reached a node that died in flight
        if node.owns_key(m.dest_key):
            self._deliver(node, m, base_kind, on_delivered)
            return
        nxt, _final = next_hop(node, m.dest_key)
        if nxt is node:
            self._deliver(node, m, base_kind, on_delivered)
            return
        m.kind = base_kind if first else transit_kind
        self.network.hop(
            node.node_id,
            nxt.node_id,
            m,
            self._route_step,
            nxt,
            base_kind,
            transit_kind,
            on_delivered,
            False,
        )

    def send_direct(
        self,
        src: ChordNode,
        dst: ChordNode,
        msg: Message,
        *,
        on_delivered: Optional[Callable[[ChordNode, Message], None]] = None,
    ) -> None:
        """Send ``msg`` in a single hop to a node whose address is known.

        Used for successor/predecessor forwarding in range multicast and
        for replies to nodes learned from a previous message.
        """
        base_kind = msg.kind
        msg.born = self.network.sim.now if msg.born == 0.0 else msg.born  # simlint: disable=D004 (0.0 is the unset sentinel)
        if dst is src:
            self._deliver(dst, msg, base_kind, on_delivered)
            return
        self.network.hop(
            src.node_id,
            dst.node_id,
            msg,
            self._direct_arrive,
            dst,
            base_kind,
            on_delivered,
        )

    def _direct_arrive(
        self,
        dst: ChordNode,
        base_kind: str,
        on_delivered: Optional[Callable[[ChordNode, Message], None]],
        m: Message,
    ) -> None:
        """Arrival continuation of :meth:`send_direct` (closure-free)."""
        if dst.alive:
            self._deliver(dst, m, base_kind, on_delivered)

    def disseminate(self, src: ChordNode, payload: Any, **kw: Any) -> Message:
        """Start a range multicast (:meth:`RangeMulticast.disseminate`)."""
        return self.multicast.disseminate(src, payload, **kw)

    def continue_span(self, node: ChordNode, msg: Message, **kw: Any) -> int:
        """Keep a range multicast spreading (:meth:`RangeMulticast.continue_span`)."""
        return self.multicast.continue_span(node, msg, **kw)

    def send_to_successor(self, node: ChordNode, msg: Message, **kw) -> bool:
        """Forward ``msg`` one hop along the ring; ``False`` if no successor."""
        succ = node.first_live_successor()
        if succ is None:
            return False
        self.send_direct(node, succ, msg, **kw)
        return True

    def send_to_predecessor(self, node: ChordNode, msg: Message, **kw) -> bool:
        """Forward one hop backwards (the Sec. IV-C extension Chord lacks
        natively but most implementations can provide)."""
        pred = node.predecessor
        if pred is None or not pred.alive:
            return False
        self.send_direct(node, pred, msg, **kw)
        return True

    # ------------------------------------------------------------------
    def _deliver(
        self,
        node: ChordNode,
        msg: Message,
        base_kind: str,
        on_delivered: Optional[Callable[[ChordNode, Message], None]],
    ) -> None:
        msg.kind = base_kind
        self.network.record_delivery(node.node_id, msg)
        app = self._apps.get(node.node_id)
        if app is not None:
            app.deliver(node, msg)
        if on_delivered is not None:
            on_delivered(node, msg)
