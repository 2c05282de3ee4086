"""Periodic processes on top of the event engine.

The paper's workload is dominated by periodic activities: every stream
produces a new value with a fixed per-stream period (chosen uniformly in
150-250 ms), notification exchanges run every ``NPER`` = 2 s, and stored
MBRs/queries expire after their lifespan.  :class:`PeriodicProcess`
captures the recurring pattern once so application code stays free of
rescheduling boilerplate.  :class:`StreamClock` keeps a stream's value
ticks but schedules an event only for the tick that closes a block of
them (DESIGN.md §7).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .engine import EventHandle, SimulationError, Simulator

__all__ = ["PeriodicProcess", "StreamClock", "Timer"]


class PeriodicProcess:
    """Invoke a callback every ``period`` ms until stopped.

    Parameters
    ----------
    sim:
        The simulator that drives the process.
    period:
        Interval between invocations in milliseconds; must be positive.
    fn:
        The zero-argument callback.
    phase:
        Offset of the *first* invocation from :meth:`start` time.
        Defaults to one full period.  Randomising the phase across nodes
        avoids the synchronisation artifact where all nodes in the
        system emit their notification messages in the same instant.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], None],
        *,
        phase: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._phase = period if phase is None else phase
        self._handle: Optional[EventHandle] = None
        self._running = False
        self.ticks = 0

    @property
    def running(self) -> bool:
        """Whether the process is currently scheduled."""
        return self._running

    @property
    def period(self) -> float:
        """Current base period in milliseconds."""
        return self._period

    def start(self) -> "PeriodicProcess":
        """Schedule the first tick.  Returns ``self`` for chaining."""
        if self._running:
            return self
        self._running = True
        self._handle = self._sim.schedule(self._phase, self._tick)
        return self

    def stop(self) -> None:
        """Cancel the pending tick and stop recurring."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.ticks += 1
        self._fn()
        if not self._running:  # fn may have stopped us
            return
        self._handle = self._sim.schedule(self._period, self._tick)


class StreamClock:
    """A stream's value arrivals, with one event per closed block.

    A value arrives every ``period`` ms: the first ``phase`` ms after
    :meth:`start`, then ``t + period`` by the same float addition
    :meth:`Simulator.schedule` makes, so the tick times are exactly a
    :class:`PeriodicProcess`'s.  Each tick is ingested as
    ``ingest(t)`` with its own time.  Only the tick that *closes* a
    block gets an event: ``to_close()`` says how many ticks away it is,
    counting from the next one and itself included, and its event
    ingests every tick up to and including it.

    Between closes the ticks are ingested lazily: :meth:`catch_up`
    ingests every tick at or before now except the closing one, which
    only its own event ingests.  Whoever reads the stream's state calls
    it first, and sees what a per-tick process would have left.

    Parameters
    ----------
    sim:
        The simulator that drives the clock.
    period:
        Interval between ticks in milliseconds; must be positive.
    ingest:
        Called with each tick's time, once per tick, in tick order.
    to_close:
        Ticks until the open block closes (``>= 1``), read at each close.
    phase:
        Offset of the first tick from :meth:`start` time; defaults to
        one full period.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        ingest: Callable[[float], None],
        to_close: Callable[[], int],
        *,
        phase: Optional[float] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._ingest = ingest
        self._to_close = to_close
        self._phase = period if phase is None else phase
        self._handle: Optional[EventHandle] = None
        #: time of the next tick not yet ingested (inf while stopped)
        self._next = math.inf
        #: time of the tick that closes the open block
        self._close = math.inf

    @property
    def period(self) -> float:
        """Interval between ticks in milliseconds."""
        return self._period

    def start(self) -> "StreamClock":
        """Place the first tick ``phase`` ms from now.  Returns ``self``."""
        if self._handle is None:
            self._next = self._sim.now + self._phase
            self._arm()
        return self

    def stop(self) -> None:
        """Ingest the ticks up to now, then stop ticking."""
        if self._handle is None:
            return
        self.catch_up()
        self._handle.cancel()
        self._handle = None
        self._next = self._close = math.inf

    def catch_up(self) -> None:
        """Ingest every tick at or before now, except the closing one."""
        t = self._next
        now = self._sim.now
        if t > now:
            return
        close, period, ingest = self._close, self._period, self._ingest
        while t <= now and t < close:
            ingest(t)
            t += period
        self._next = t

    def _arm(self) -> None:
        t, period = self._next, self._period
        for _ in range(self._to_close() - 1):
            t += period
        self._close = t
        self._handle = self._sim.schedule_at(t, self._fire)

    def _fire(self) -> None:
        t, close, period, ingest = self._next, self._close, self._period, self._ingest
        while t < close:
            ingest(t)
            t += period
        self._next = close + period
        ingest(close)
        if self._handle is not None:  # ingest may have stopped us
            self._arm()


class Timer:
    """A one-shot timer with reschedule support.

    Used for lifespan expiry of stored MBRs and query subscriptions: a
    fresh MBR for the same stream *extends* the expiry instead of
    stacking a second timer.
    """

    def __init__(self, sim: Simulator, fn: Callable[[], None]) -> None:
        self._sim = sim
        self._fn = fn
        self._handle: Optional[EventHandle] = None

    @property
    def pending(self) -> bool:
        """Whether the timer is armed."""
        return self._handle is not None and self._handle.pending

    def arm(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` ms from now."""
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._fn()
