"""Deterministic op counters for the simulation hot paths.

The determinism contract (DESIGN.md §7) forbids wall-clock reads inside
``sim``/``chord``/``core``, so those layers cannot *time* themselves.
They can, however, *count* themselves: the number of events executed,
hops transmitted, routing steps taken and payloads dispatched is a pure
function of ``(config, seed)`` — identical on every machine and every
run.  The perf harness correlates these counts with wall time measured
out here, giving per-operation cost without perturbing the simulation.

Design constraints:

* **Zero dependencies.**  The instrumented packages import this module,
  so it must not import them (or anything heavy) back.
* **Near-zero cost when off.**  Instrumentation sites read the module
  attribute :data:`ACTIVE` and skip on ``None``; no function call is
  made on the disabled path::

      from repro.perf import counters as _opc
      ...
      c = _opc.ACTIVE
      if c is not None:
          c.inc("net.hops")

* **Deterministic.**  Counter values depend only on simulated behavior;
  two runs with the same ``(config, seed)`` produce identical
  snapshots (regression-tested in ``tests/perf/``).

Counter names are dotted, prefix = subsystem: ``sim.*`` (engine),
``net.*`` (network), ``route.*`` (Chord lookup), ``dispatch.*``
(runtime delivery), ``index.*`` (MBR candidate scans).  The full name
catalog is documented in PERFORMANCE.md.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["OpCounters", "ACTIVE", "install", "uninstall", "counting"]


class OpCounters:
    """A named bag of monotonically increasing operation counts."""

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero on first use)."""
        counts = self.counts
        counts[name] = counts.get(name, 0) + n

    def get(self, name: str) -> int:
        """Current value of ``name`` (0 if never incremented)."""
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, int]:
        """An independent, name-sorted copy of all counters."""
        return {k: self.counts[k] for k in sorted(self.counts)}

    def reset(self) -> None:
        """Zero every counter."""
        self.counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpCounters({self.snapshot()!r})"


#: the currently installed counter sink, or ``None`` (counting off).
#: Hot paths read this attribute directly; everything else should go
#: through :func:`install` / :func:`uninstall` / :func:`counting`.
ACTIVE: Optional[OpCounters] = None


def install(counters: Optional[OpCounters] = None) -> OpCounters:
    """Switch counting on, returning the active :class:`OpCounters`.

    Passing an existing instance resumes accumulation into it; omitting
    it installs a fresh zeroed one.  Installing over an already active
    sink replaces it (the old sink keeps its counts).
    """
    global ACTIVE
    ACTIVE = counters if counters is not None else OpCounters()
    return ACTIVE


def uninstall() -> Optional[OpCounters]:
    """Switch counting off; returns the sink that was active, if any."""
    global ACTIVE
    active, ACTIVE = ACTIVE, None
    return active


@contextmanager
def counting(counters: Optional[OpCounters] = None) -> Iterator[OpCounters]:
    """Context manager: count ops inside the block, restore state after.

    >>> from repro.perf.counters import counting
    >>> with counting() as ops:
    ...     pass  # run a scenario
    >>> ops.snapshot()
    {}
    """
    global ACTIVE
    previous = ACTIVE
    active = counters if counters is not None else OpCounters()
    ACTIVE = active
    try:
        yield active
    finally:
        ACTIVE = previous
