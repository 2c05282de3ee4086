"""Transport layer: the seam between protocol brain and message fabric.

The middleware's dispatch layer (:mod:`repro.core.runtime`), reliability
state machine (:mod:`repro.core.reliable`) and the Fig. 5 role services
never touch a concrete fabric directly; they speak to the
:class:`~repro.net.transport.Transport` surface defined here.  Two
implementations exist:

* :class:`~repro.net.transport.SimTransport` — adapts the discrete-event
  :class:`~repro.sim.network.Network` + :class:`~repro.sim.engine.Simulator`
  pair; fully deterministic, used by every experiment and test.
* :class:`~repro.net.peer.AsyncioTransport` — real frames over TCP
  sockets between OS processes (:mod:`repro.net.peer`); wall clock,
  event-loop timers, one-hop routing over a full-membership ring
  mirror, one coalescing writer per destination.

:mod:`repro.net.wire` generates a binary codec for every ``@payload``
dataclass from the protocol registry, so sim dispatch and the socket
format share one source of truth (DESIGN.md §12); only membership and
client-RPC control frames are JSON.

This package is the only place in the tree allowed to import ``socket``,
``asyncio`` or ``threading`` (simlint rule D012).
"""

from .transport import SimTransport, Transport, TransportHandle

__all__ = ["Transport", "TransportHandle", "SimTransport"]
