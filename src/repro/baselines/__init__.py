"""Baseline architectures the paper argues against (Sec. IV-A).

Each strawman is a :class:`~repro.core.system.StreamIndexSystem` with
its own placement and a one-hop fabric: the same runtime, roles,
workload and accounting as the real middleware, so the comparison
benches measure placement, not harness.
"""

from .centralized import CentralizedIndexSystem
from .flooding import FloodingIndexSystem

__all__ = [
    "CentralizedIndexSystem",
    "FloodingIndexSystem",
]
