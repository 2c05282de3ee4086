"""Range multicast over the DHT (Sec. IV-C).

Summaries and similarity queries must reach *every* node covering a key
range, but DHTs only route to single keys.  Two strategies:

* **sequential** — route to the lowest key of the range; each receiving
  node delivers locally and forwards a copy to its successor until the
  node owning the high key is reached.  Message-optimal, but the
  propagation is fully serial: latency grows linearly with the number
  of nodes in the range.
* **bidirectional** — route to the *middle* key; the middle node spreads
  copies to both its successor and its predecessor, halving the worst
  chain length.  Requires the "send to predecessor" primitive the paper
  proposes as a DHT extension; same message count, about half the
  propagation delay for wide ranges (the Sec. V observation this
  library's ablation bench reproduces).

Mechanically, the originator calls :meth:`RangeMulticast.disseminate`;
the middleware calls :meth:`RangeMulticast.continue_span` from its
``deliver`` upcall so each covered node keeps the spread going.

The fabric a multicast walks needs only ``ring``, ``route`` (to the
entry key) and ``send_direct`` (one hop to a successor or predecessor
the walk has already looked up).  Each fabric owns its multicast and
hands it its ``disseminate`` and ``continue_span`` calls: the
simulator's :class:`~repro.chord.dht.DhtOverlay` and a socket peer's
:class:`~repro.net.peer.AsyncioTransport`.  The strawmen's one-hop
fabric uses only :meth:`RangeMulticast.entry_key`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..chord.node import ChordNode
from ..sim.network import Message

__all__ = ["RangeMulticast", "middle_key"]

STRATEGIES = ("sequential", "bidirectional")


def middle_key(low_key: int, high_key: int, modulus: int) -> int:
    """The circular midpoint of ``[low, high]`` (aggregation point)."""
    width = (high_key - low_key) % modulus
    return (low_key + width // 2) % modulus


class RangeMulticast:
    """Delivers a message to every node covering a circular key range."""

    def __init__(self, overlay, strategy: str = "sequential") -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; use one of {STRATEGIES}")
        self.overlay = overlay
        self.strategy = strategy

    # ------------------------------------------------------------------
    def entry_key(self, low_key: int, high_key: int) -> int:
        """Where the initial overlay-routed message is sent."""
        if self.strategy == "sequential":
            return low_key
        return middle_key(low_key, high_key, self.overlay.ring.space.size)

    def disseminate(
        self,
        src: ChordNode,
        payload: Any,
        *,
        kind: str,
        transit_kind: str,
        low_key: int,
        high_key: int,
        on_delivered: Optional[Callable[[ChordNode, Message], None]] = None,
    ) -> Message:
        """Start a range multicast from ``src``.

        The message is overlay-routed to the entry key; the application's
        ``deliver`` upcall at each covered node must call
        :meth:`continue_span` to keep the spread going.
        """
        msg = Message(
            kind=kind,
            payload=payload,
            origin=src.node_id,
            dest_key=self.entry_key(low_key, high_key),
        )
        self.overlay.route(src, msg, transit_kind=transit_kind, on_delivered=on_delivered)
        return msg

    def continue_span(
        self,
        node: ChordNode,
        msg: Message,
        *,
        low_key: int,
        high_key: int,
        span_kind: str,
    ) -> int:
        """Forward the spread from a node that just received the message.

        Returns the number of span copies sent (0, 1, or 2).  Call this
        exactly once per delivery of the original or a span copy.

        Termination is walk-distance based rather than a plain
        "do I own the high key?" test, which would stop too early when
        the range wraps (almost) the whole circle and a single node's
        arc contains both endpoints.
        """
        sent = 0
        direction = msg.tag
        if self.strategy == "sequential":
            # Everything spreads upward from the low-key owner.
            if self._forward_up(node, msg, low_key, high_key, span_kind):
                sent += 1
            return sent

        # bidirectional
        if direction in ("", "up"):
            if self._forward_up(node, msg, low_key, high_key, span_kind):
                sent += 1
        if direction in ("", "down"):
            if self._forward_down(node, msg, low_key, span_kind):
                sent += 1
        return sent

    def _forward_up(
        self, node: ChordNode, msg: Message, low_key: int, high_key: int, span_kind: str
    ) -> bool:
        """Forward towards higher keys while covered range remains.

        Continue iff this node's arc has not yet reached the high key
        (walk distance from ``low_key`` is short of the range width) and
        the successor step still moves forward (guards full-circle
        ranges against looping past the starting node).
        """
        size = node.space.size
        width = (high_key - low_key) % size
        walked = (node.node_id - low_key) % size
        if walked >= width:
            return False
        succ = node.first_live_successor()
        if succ is None or succ is node:
            return False
        if (succ.node_id - low_key) % size <= walked:
            return False  # would wrap past the start of the walk
        self.overlay.send_direct(node, succ, msg.derive(span_kind, tag="up"))
        return True

    def _forward_down(
        self, node: ChordNode, msg: Message, low_key: int, span_kind: str
    ) -> bool:
        """Forward towards lower keys until the low-key owner is reached."""
        if node.owns_key(low_key):
            return False
        # the copy draws its message id whether or not it can leave
        copy = msg.derive(span_kind, tag="down")
        pred = node.predecessor
        if pred is None or not pred.alive:
            return False
        self.overlay.send_direct(node, pred, copy)
        return True
