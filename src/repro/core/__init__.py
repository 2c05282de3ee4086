"""The paper's primary contribution: distributed stream-index middleware.

Everything in Sec. IV lives here: the Eq. 6 feature-to-key mapping
(:mod:`~repro.core.mapping`), MBR batching (:mod:`~repro.core.mbr`),
range multicast (:mod:`~repro.core.multicast`), the per-node middleware
application (:mod:`~repro.core.runtime`), system assembly
(:mod:`~repro.core.system`), the Table I configuration
(:mod:`~repro.core.config`) and figure metrics
(:mod:`~repro.core.metrics`), plus the Sec. VI extensions
(:mod:`~repro.core.adaptive`, :mod:`~repro.core.hierarchy`).
"""

from .config import TABLE_I, MiddlewareConfig, WorkloadConfig
from .index import LocalIndex
from .mapping import LinearKeyMapper, QuantileKeyMapper, paper_example_key
from .mbr import MBR, MBRBatcher
from .metrics import (
    FigureMetrics,
    HOP_COMPONENTS,
    LOAD_COMPONENTS,
    OVERHEAD_COMPONENTS,
)
from .multicast import RangeMulticast, middle_key
from .protocol import KIND, PAYLOAD_REGISTRY, Ack, PayloadSpec, next_delivery_id, spec_of
from .reliable import ReliableSender
from .roles import (
    AggregatorEntry,
    AggregatorService,
    ClientService,
    IndexHolderService,
    RoleService,
    SourceService,
    SourceState,
    handler_names,
    handles,
)
from .runtime import DEFAULT_SERVICES, NodeRuntime
from .queries import (
    InnerProductQuery,
    InnerProductResult,
    SimilarityMatch,
    SimilarityQuery,
    correlation_query,
    point_query,
    range_query,
)
from .system import StreamIndexSystem

__all__ = [
    "TABLE_I",
    "MiddlewareConfig",
    "WorkloadConfig",
    "LocalIndex",
    "LinearKeyMapper",
    "QuantileKeyMapper",
    "paper_example_key",
    "MBR",
    "MBRBatcher",
    "FigureMetrics",
    "HOP_COMPONENTS",
    "LOAD_COMPONENTS",
    "OVERHEAD_COMPONENTS",
    "AggregatorEntry",
    "SourceState",
    "RangeMulticast",
    "middle_key",
    "KIND",
    "PAYLOAD_REGISTRY",
    "Ack",
    "PayloadSpec",
    "next_delivery_id",
    "spec_of",
    "ReliableSender",
    "RoleService",
    "handler_names",
    "handles",
    "SourceService",
    "IndexHolderService",
    "AggregatorService",
    "ClientService",
    "NodeRuntime",
    "DEFAULT_SERVICES",
    "InnerProductQuery",
    "InnerProductResult",
    "SimilarityMatch",
    "SimilarityQuery",
    "correlation_query",
    "point_query",
    "range_query",
    "StreamIndexSystem",
]
