"""Discrete-event simulation substrate.

This package replaces the MIT Chord simulator the paper linked against:
a deterministic event engine (:mod:`repro.sim.engine`), periodic process
helpers (:mod:`repro.sim.process`), a message network with a constant
per-hop latency and complete message accounting
(:mod:`repro.sim.network`), seeded per-hop loss and duplication
(:mod:`repro.sim.faults`), and named deterministic RNG substreams
(:mod:`repro.sim.rng`).
"""

from .engine import EventHandle, SimulationError, Simulator
from .faults import FaultInjector
from .network import DEFAULT_HOP_DELAY_MS, Message, MessageStats, Network
from .process import PeriodicProcess, StreamClock, Timer
from .rng import RngRegistry

__all__ = [
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Message",
    "MessageStats",
    "Network",
    "DEFAULT_HOP_DELAY_MS",
    "PeriodicProcess",
    "StreamClock",
    "Timer",
    "RngRegistry",
    "FaultInjector",
]

from .tracing import MessageTracer, TraceEvent  # noqa: E402

__all__ += ["MessageTracer", "TraceEvent"]
