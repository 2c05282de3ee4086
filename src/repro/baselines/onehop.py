"""The strawmen's fabric: every data center reaches every other in one hop.

Neither strawman of Sec. IV-A needs an overlay — a deployment that
ships everything to one center, or asks every node, knows all its
nodes.  :class:`OneHopTransport` keeps the simulated network, its fault
injector and its accounting, and replaces multi-hop Chord routing by
one :meth:`~repro.net.transport.SimTransport.send_direct` to the key's
owner.  That, if anything, flatters the strawmen: the comparison is
about where load lands and how many messages an event costs, not
routing stretch.
"""

from __future__ import annotations

from typing import Any, Optional

from ..chord.node import ChordNode
from ..core.protocol import KIND
from ..net.transport import DeliveredFn, SimTransport
from ..sim.network import Message

__all__ = ["OneHopTransport"]

#: the kind a range's non-entry copies travel under (never acked)
_SPAN_KIND = {KIND.MBR: KIND.MBR_SPAN, KIND.QUERY: KIND.QUERY_SPAN}


class OneHopTransport(SimTransport):
    """Full membership: routing and range multicast take one hop each."""

    def route(
        self,
        node: ChordNode,
        msg: Message,
        *,
        transit_kind: str,
        on_delivered: Optional[DeliveredFn] = None,
    ) -> None:
        """Send ``msg`` straight to the owner of its key."""
        owner = self._overlay.ring.successor_of_key(msg.dest_key)
        self.send_direct(node, owner, msg, on_delivered=on_delivered)

    def disseminate(
        self,
        node: ChordNode,
        payload: Any,
        *,
        kind: str,
        transit_kind: str,
        low_key: int,
        high_key: int,
        on_delivered: Optional[DeliveredFn] = None,
    ) -> Message:
        """One direct copy to every node covering ``[low_key, high_key]``.

        The copy to the range's entry node travels under ``kind`` and is
        the one acknowledged; the others travel under the span kind, as
        a range multicast's later copies do.  Copies leave in ring
        order, and one to ``node`` itself is delivered locally, without
        a message.
        """
        ring = self._overlay.ring
        entry = ring.successor_of_key(self._multicast.entry_key(low_key, high_key))
        msg = Message(kind=kind, payload=payload, origin=node.node_id, dest_key=entry.node_id)
        span_kind = _SPAN_KIND[kind]
        # every copy is derived before any leaves: a send counts its hop
        # on the message it carries, and a copy inherits the hop count
        copies = [
            (target, msg if target is entry else msg.derive(span_kind, dest_key=target.node_id))
            for target in ring.nodes_covering_range(low_key, high_key)
        ]
        for target, copy in copies:
            self.send_direct(node, target, copy, on_delivered=on_delivered)
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
        """Nothing to continue: the originator reached every covering node."""
        return 0
