"""repro: distributed data-stream indexing over content-based routing.

Reproduction of Bulut, Vitenberg & Singh, "Distributed Data Streams
Indexing using Content-based Routing Paradigm" (IPDPS 2005).

The most common entry points are re-exported here::

    from repro import StreamIndexSystem, SimilarityQuery, MiddlewareConfig

Sub-packages:

* :mod:`repro.sim` — discrete-event simulator and message network
* :mod:`repro.chord` — the Chord DHT substrate
* :mod:`repro.streams` — windows, DFT/wavelet synopses, generators
* :mod:`repro.core` — the paper's indexing middleware and extensions
* :mod:`repro.baselines` — centralized / flooding strawmen: placement
  policies of the same system, on a one-hop fabric
* :mod:`repro.workload` — Table I workloads, query and churn generators
* :mod:`repro.bench` — sweep harness and reporting
"""

from .core.config import TABLE_I, MiddlewareConfig, WorkloadConfig
from .core.queries import (
    InnerProductQuery,
    SimilarityQuery,
    correlation_query,
    point_query,
    range_query,
)
from .core.system import StreamIndexSystem

__version__ = "1.0.0"

__all__ = [
    "TABLE_I",
    "MiddlewareConfig",
    "WorkloadConfig",
    "InnerProductQuery",
    "SimilarityQuery",
    "correlation_query",
    "point_query",
    "range_query",
    "StreamIndexSystem",
    "__version__",
]
