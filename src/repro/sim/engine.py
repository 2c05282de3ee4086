"""Discrete-event simulation engine.

The engine is the substrate everything else runs on: the Chord overlay,
the per-hop message network, the periodic stream sources, and the query
workload are all expressed as timed callbacks scheduled on a single
:class:`Simulator`.

Design notes
------------
* Time is a ``float`` in **milliseconds** of simulated time.  The paper's
  runtime constants (50 ms per routing hop, 150-250 ms stream periods,
  2 s notification period, 5 s MBR lifespan) are all naturally expressed
  in this unit.
* The event queue is a binary heap of ``(time, seq, handle)`` tuples
  (``heapq``).  ``seq`` is a monotonically increasing tiebreaker, so
  same-instant events fire in FIFO order and the simulation is fully
  deterministic.  Entries stay plain tuples on purpose: heap sifting
  then compares floats/ints at C speed instead of calling a
  Python-level ``__lt__``.
* Cancellation is *lazy*: :meth:`EventHandle.cancel` marks the handle and
  the main loop discards cancelled entries when they surface.  This keeps
  ``schedule``/``cancel`` at O(log n)/O(1).
* Handles are **pooled** (see PERFORMANCE.md): the run loop recycles a
  fired handle onto a free list when ``sys.getrefcount`` proves the
  engine holds the only reference, so steady-state scheduling allocates
  no handle objects.  Holding on to a returned handle (as timers and
  reliable-delivery retries do) simply keeps it out of the pool — a
  retained handle is never reused under the caller's feet.
* The engine itself never reads wall clocks or RNGs (simlint D002/D008);
  its cost is exposed through the deterministic op counters of
  :mod:`repro.perf.counters` instead.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Optional, Tuple

from ..perf import counters as _opc

__all__ = [
    "EventHandle",
    "Simulator",
    "SimulationError",
]

#: free-list bound: enough to absorb any realistic cancelled-entry burst
#: without letting a pathological one pin memory.
_POOL_LIMIT = 4096


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine.

    Scheduling an event in the past raises it.
    """


class EventHandle:
    """A cancellable reference to a scheduled event.

    Attributes
    ----------
    time:
        Simulated time (ms) at which the callback fires.
    seq:
        FIFO tiebreaker assigned by the simulator.
    fn:
        The callback to invoke with ``args`` (``None`` once the event
        has fired or been cancelled).
    args:
        Positional arguments bound at scheduling time.  Stored on the
        handle instead of inside a closure so the hot path allocates no
        lambda per event.
    cancelled:
        ``True`` once :meth:`cancel` has been called; the engine skips
        cancelled events when they reach the head of the queue.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Optional[Callable[..., None]],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired or was cancelled."""
        self.cancelled = True
        self.fn = None  # release closure references early
        self.args = ()

    @property
    def pending(self) -> bool:
        """Whether the event is still scheduled to fire."""
        return not self.cancelled and self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if self.pending else ("cancelled" if self.cancelled else "fired")
        return f"EventHandle(t={self.time!r}, seq={self.seq}, {state})"


_Entry = Tuple[float, int, EventHandle]


class Simulator:
    """A deterministic discrete-event simulator.

    The simulator owns the simulated clock and an event queue.  Events
    are callables scheduled with pre-bound positional arguments.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(10.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [10.0]
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        self._queue: List[_Entry] = []
        self._pool: List[EventHandle] = []
        self._events_processed: int = 0

    # ------------------------------------------------------------------
    # clock & introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queue entries, including not-yet-discarded cancelled ones."""
        return len(self._queue)

    @property
    def pooled_handles(self) -> int:
        """Size of the handle free list (introspection for tests/benchmarks)."""
        return len(self._pool)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        Parameters
        ----------
        delay:
            Non-negative offset from the current simulated time.
        fn:
            Callback to invoke.
        *args:
            Positional arguments bound to the callback now.

        Returns
        -------
        EventHandle
            A handle that can be used to cancel the event.

        Raises
        ------
        SimulationError
            If ``delay`` is negative.
        """
        # Body duplicated from schedule_at: this is the hottest call in
        # the engine (one per hop / tick / timer) and the extra frame of
        # a schedule -> schedule_at chain is measurable (PERFORMANCE.md).
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, handle))
        c = _opc.ACTIVE
        if c is not None:
            c.inc("sim.scheduled")
        return handle

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at an absolute simulated time.

        Raises
        ------
        SimulationError
            If ``time`` is earlier than the current clock.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self._now!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            handle = pool.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
            handle.cancelled = False
        else:
            handle = EventHandle(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, handle))
        c = _opc.ACTIVE
        if c is not None:
            c.inc("sim.scheduled")
        return handle

    def _recycle(self, handle: EventHandle) -> None:
        """Return a spent handle to the pool if nothing else references it.

        At the ``getrefcount`` call the engine-owned references are
        exactly three: the run-loop local, this function's parameter and
        ``getrefcount``'s own argument.  A count of 3 therefore proves no
        caller kept the handle, so reusing it can never alias a live
        reference (timers, reliable-delivery retries and tests that
        retain handles keep the count higher and opt out automatically).
        """
        if len(self._pool) < _POOL_LIMIT and sys.getrefcount(handle) == 3:
            handle.fn = None
            handle.args = ()
            self._pool.append(handle)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events in time order.

        Parameters
        ----------
        until:
            If given, stop once the next event is strictly later than
            this time; the clock is advanced to ``until`` on exit so
            repeated ``run(until=...)`` calls form a seamless timeline.
        max_events:
            Safety valve: abort after this many events (useful in tests
            to detect runaway periodic processes).
        """
        processed = 0
        discarded = 0
        try:
            processed, discarded = self._drain(until, max_events)
        finally:
            c = _opc.ACTIVE
            if c is not None:
                if processed:
                    c.inc("sim.events", processed)
                if discarded:
                    c.inc("sim.cancelled_discarded", discarded)
        if until is not None and self._now < until:
            self._now = until

    def _drain(
        self, until: Optional[float], max_events: Optional[int]
    ) -> Tuple[int, int]:
        """The run loop; returns (processed, discarded)."""
        processed = 0
        discarded = 0
        queue = self._queue
        pop = heapq.heappop
        pool = self._pool
        refcount = sys.getrefcount
        while queue:
            time = queue[0][0]
            if until is not None and time > until:
                break
            _, _, handle = pop(queue)
            fn = handle.fn
            if handle.cancelled or fn is None:
                discarded += 1
                # Inlined _recycle (the per-event call is measurable on
                # this path): the only engine references here are the
                # loop local and getrefcount's argument, hence == 2.
                if len(pool) < _POOL_LIMIT and refcount(handle) == 2:
                    handle.fn = None
                    handle.args = ()
                    pool.append(handle)
                continue
            self._now = time
            args = handle.args
            handle.fn = None  # mark as fired
            handle.args = ()
            if args:
                fn(*args)
            else:
                fn()
            # fn/args were already cleared above; just pool the handle.
            if len(pool) < _POOL_LIMIT and refcount(handle) == 2:
                pool.append(handle)
            self._events_processed += 1
            processed += 1
            if max_events is not None and processed >= max_events:
                break
        return processed, discarded

    def step(self) -> bool:
        """Execute exactly one pending event.

        Returns
        -------
        bool
            ``True`` if an event was executed, ``False`` if the queue
            was empty (cancelled entries are drained silently).
        """
        queue = self._queue
        while queue:
            time, _seq, handle = heapq.heappop(queue)
            fn = handle.fn
            if handle.cancelled or fn is None:
                self._recycle(handle)
                continue
            self._now = time
            args = handle.args
            handle.fn = None
            handle.args = ()
            if args:
                fn(*args)
            else:
                fn()
            self._recycle(handle)
            self._events_processed += 1
            c = _opc.ACTIVE
            if c is not None:
                c.inc("sim.events")
            return True
        return False
