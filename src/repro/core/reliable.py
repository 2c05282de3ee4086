"""Acknowledged delivery with retransmission for control-plane messages.

The simulated fabric can now lose, delay, and duplicate messages
(:mod:`repro.sim.faults`), so the middleware's critical control-plane
traffic — MBR publishes, similarity / inner-product subscribes, stream
registrations, and window requests — gets a thin reliability layer:

* every reliably-sent payload carries a globally unique ``delivery_id``
  (:func:`repro.core.protocol.next_delivery_id`);
* the receiver acknowledges it (or, for request/reply exchanges, the
  reply itself settles the exchange);
* the sender arms a retransmission timer: attempt ``a`` (0 for the
  first send) waits ``ACK_TIMEOUT_MS * RETRY_BACKOFF ** a`` plus uniform
  jitter below ``RETRY_JITTER_MS``; expiry re-sends the *same payload*
  (same delivery id, so receivers can deduplicate) in a fresh overlay
  message;
* the backoff is not capped, only the number of retransmissions: when
  the ``RETRY_MAX``-th retransmission also times out, the payload lands
  in the dead-letter counter instead of vanishing silently.  With the
  constants below that is 400 + 800 + ... + 12,800 = 25,200 ms after
  the first send, plus up to 6 * 40 = 240 ms of jitter.

The whole layer is a no-op when ``MiddlewareConfig.reliable_delivery``
is off (the paper's lossless fabric), so the reproduced figures carry no
ack traffic.  Timer jitter draws from a per-node named RNG substream, so
runs stay deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..net.transport import TransportHandle

__all__ = [
    "ReliableSender",
    "ACK_TIMEOUT_MS",
    "RETRY_MAX",
    "RETRY_BACKOFF",
    "RETRY_JITTER_MS",
]

#: timeout of the first send, in ms
ACK_TIMEOUT_MS = 400.0
#: retransmissions before the payload is a dead letter
RETRY_MAX = 5
#: timeout multiplier per retransmission
RETRY_BACKOFF = 2.0
#: bound of the uniform jitter added to every timeout, in ms
RETRY_JITTER_MS = 40.0


@dataclass
class _Pending:
    """One in-flight reliably-sent payload awaiting its ack."""

    delivery_id: int
    kind: str
    resend: Callable[[], None]
    on_give_up: Optional[Callable[[], None]] = None
    attempts: int = 0
    handle: Optional[TransportHandle] = field(default=None, repr=False)
    #: the stats epoch the send was recorded under; every later event of
    #: this exchange (retry, ack, dead letter, cancel) is charged to the
    #: same epoch so ratios stay consistent across ``reset_stats()``
    stats: object = field(default=None, repr=False)


class ReliableSender:
    """Per-node retransmission state machine.

    Owned by one :class:`~repro.core.runtime.NodeRuntime`; its timing
    is the module constants above.
    """

    def __init__(self, app) -> None:
        self.app = app
        self._pending: Dict[int, _Pending] = {}
        self._rng = None  # lazy: named substream keyed by node id

    # ------------------------------------------------------------------
    @property
    def _transport(self):
        return self.app.transport

    @property
    def _stats(self):
        return self.app.transport.stats

    @property
    def pending_count(self) -> int:
        """Number of payloads still awaiting acknowledgement."""
        return len(self._pending)

    def pending_in(self, stats) -> int:
        """Pending payloads whose send was recorded in ledger ``stats``."""
        return sum(1 for p in self._pending.values() if p.stats is stats)

    def _jitter(self) -> float:
        if self._rng is None:
            self._rng = self.app.system.rngs.get(f"retry/{self.app.node_id}")
        return float(self._rng.uniform(0.0, RETRY_JITTER_MS))

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def track(
        self,
        payload,
        kind: str,
        resend: Callable[[], None],
        on_give_up: Optional[Callable[[], None]] = None,
    ) -> None:
        """Arm retransmission for a just-sent payload.

        ``resend`` must re-route the *same payload object* (preserving
        its delivery id) in a fresh overlay message.  ``on_give_up``
        fires once if the retry budget is exhausted.  No-op unless
        reliable delivery is enabled and the payload carries an id.
        """
        if not self.app.cfg.reliable_delivery:
            return
        delivery_id = getattr(payload, "delivery_id", -1)
        if delivery_id < 0:
            return
        self._stats.record_reliable_send(kind)
        pending = _Pending(
            delivery_id=delivery_id,
            kind=kind,
            resend=resend,
            on_give_up=on_give_up,
            stats=self._stats,
        )
        self._pending[delivery_id] = pending
        self._arm(pending)

    def _arm(self, pending: _Pending) -> None:
        timeout = ACK_TIMEOUT_MS * RETRY_BACKOFF ** pending.attempts + self._jitter()
        pending.handle = self._transport.schedule(
            timeout, self._on_timeout, pending.delivery_id
        )

    def _on_timeout(self, delivery_id: int) -> None:
        pending = self._pending.get(delivery_id)
        if pending is None:
            return
        if not self.app.node.alive:
            # this data center crashed with acks outstanding; a dead
            # node must not keep retransmitting from beyond the grave
            self.cancel_all()
            return
        if pending.attempts >= RETRY_MAX:
            del self._pending[delivery_id]
            pending.stats.record_dead_letter(pending.kind)
            if pending.on_give_up is not None:
                pending.on_give_up()
            return
        pending.attempts += 1
        pending.stats.record_retransmission(pending.kind)
        pending.resend()
        self._arm(pending)

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def on_ack(self, delivery_id: int) -> None:
        """An :class:`~repro.core.protocol.Ack` quoting this id arrived."""
        self._settle(delivery_id)

    def settle(self, delivery_id: int) -> None:
        """Complete an exchange by its reply rather than an explicit ack.

        Window fetches use this: the :class:`WindowReply` proves the
        request got through, so no separate ack message is needed.
        """
        self._settle(delivery_id)

    def _settle(self, delivery_id: int) -> None:
        pending = self._pending.pop(delivery_id, None)
        if pending is None:
            return  # duplicate ack, or ack after give-up: ignore
        if pending.handle is not None:
            pending.handle.cancel()
        pending.stats.record_reliable_ack(pending.kind)

    def cancel_all(self) -> None:
        """Drop all pending retransmissions (node crash / teardown).

        Cancelled sends are counted separately from dead letters: the
        sender is gone, so nobody is waiting for the outcome, and they
        must not depress the eventual-delivery ratio.
        """
        for pending in self._pending.values():
            if pending.handle is not None:
                pending.handle.cancel()
            pending.stats.record_reliable_cancelled(pending.kind)
        self._pending.clear()
