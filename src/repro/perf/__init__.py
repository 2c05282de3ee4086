"""Performance instrumentation: deterministic op counters.

This package is one of the two places in the source tree where wall-clock
timing is allowed (simlint D008 machine-enforces the boundary; the
other is ``benchmarks/``): the simulated world (``sim``/``chord``/``core``)
stays a pure function of ``(config, seed)`` and exposes its cost through
*deterministic op counters* instead.

Layout
------
``counters``
    The zero-dependency op-counter API threaded through the hot paths
    (:mod:`repro.sim.engine`, :mod:`repro.sim.network`,
    :mod:`repro.chord.routing`, :mod:`repro.core.runtime`).  Counting is
    off by default and costs one module-attribute load + ``None`` check
    per site when disabled.

Wall time, memory and throughput are measured by the reference
benchmark in ``benchmarks/suite/`` (see its README.md).
"""

from .counters import OpCounters, counting, install, uninstall

__all__ = [
    "OpCounters",
    "counting",
    "install",
    "uninstall",
]
