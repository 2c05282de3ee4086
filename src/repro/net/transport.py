"""The ``Transport`` seam between the protocol brain and a message fabric.

Everything the dispatch layer needs from a message fabric fits in one
small surface: a clock, a timer wheel, four send primitives and two
observability accessors.  The role services, :class:`NodeRuntime` and
:class:`ReliableSender` are written against this surface only — they
must never import :class:`repro.sim.network.Network` directly — so the
same protocol brain runs unchanged inside the discrete-event simulator
and as an OS process over real sockets (DESIGN.md §12).  The fabrics
that implement it are :class:`~repro.chord.dht.DhtOverlay` in the
simulator (and its one-hop subclass for the Sec. IV-A strawmen) and
:class:`~repro.net.peer.AsyncioTransport` over sockets.

Contract notes shared by all implementations:

* ``now`` is milliseconds on the transport's clock (virtual for the
  simulator, monotonic wall clock for asyncio).  Payload timestamps and
  soft-state expiries are only ever compared against the same clock.
* Local deliveries (the sending node owns ``dest_key``) are synchronous:
  the handler runs before the send call returns.  Remote deliveries are
  asynchronous.
* ``schedule`` returns a cancellable handle; callbacks fire on the
  transport's own event loop, never concurrently with handlers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chord.node import ChordNode
    from ..sim.network import Message, MessageStats

__all__ = ["Transport", "TransportHandle"]

#: ``on_delivered`` continuation signature shared by the send primitives
DeliveredFn = Callable[["ChordNode", "Message"], None]


@runtime_checkable
class TransportHandle(Protocol):
    """Cancellable handle returned by :meth:`Transport.schedule`."""

    def cancel(self) -> None:
        """Revoke the scheduled callback (idempotent)."""


@runtime_checkable
class Transport(Protocol):
    """What the protocol brain asks of a message fabric."""

    @property
    def now(self) -> float:
        """Current time in milliseconds on this transport's clock."""

    def schedule(
        self, delay_ms: float, fn: Callable[..., None], *args: Any
    ) -> TransportHandle:
        """Run ``fn(*args)`` after ``delay_ms`` on the transport loop."""

    @property
    def stats(self) -> "MessageStats":
        """The live message-accounting object (epoch-swapped on reset)."""

    @property
    def tracer(self) -> Optional[Any]:
        """The attached message tracer, or ``None``."""

    def route(
        self,
        node: "ChordNode",
        msg: "Message",
        *,
        transit_kind: str,
        on_delivered: Optional[DeliveredFn] = None,
    ) -> None:
        """Route ``msg`` towards the owner of ``msg.dest_key``."""

    def send_direct(
        self,
        node: "ChordNode",
        target: "ChordNode",
        msg: "Message",
        *,
        on_delivered: Optional[DeliveredFn] = None,
    ) -> None:
        """One hop to a node whose address is already known."""

    def disseminate(
        self,
        node: "ChordNode",
        payload: Any,
        *,
        kind: str,
        transit_kind: str,
        low_key: int,
        high_key: int,
        on_delivered: Optional[DeliveredFn] = None,
    ) -> "Message":
        """Start a range multicast over ``[low_key, high_key]``."""

    def continue_span(
        self,
        node: "ChordNode",
        msg: "Message",
        *,
        low_key: int,
        high_key: int,
        span_kind: str,
    ) -> int:
        """Forward a range-multicast spread from a covered node."""
