"""Periodic processes on top of the event engine.

The paper's workload is dominated by periodic activities: every stream
produces a new value with a fixed per-stream period (chosen uniformly in
150-250 ms), notification exchanges run every ``NPER`` = 2 s, and stored
MBRs/queries expire after their lifespan.  :class:`PeriodicProcess`
captures the recurring pattern once so application code stays free of
rescheduling boilerplate.
"""

from __future__ import annotations

from typing import Callable, Optional

from .engine import EventHandle, SimulationError, Simulator

__all__ = ["PeriodicProcess", "Timer"]


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
    jitter_fn:
        Optional callable returning a per-tick additive jitter (ms); may
        return negative values as long as the effective period stays
        positive.  Used by stream sources whose period is resampled.
    """

    def __init__(
        self,
        sim: Simulator,
        period: float,
        fn: Callable[[], None],
        *,
        phase: Optional[float] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._fn = fn
        self._phase = period if phase is None else phase
        self._jitter_fn = jitter_fn
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
        delay = self._period
        if self._jitter_fn is not None:
            delay = max(1e-9, delay + self._jitter_fn())
        self._handle = self._sim.schedule(delay, self._tick)


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
