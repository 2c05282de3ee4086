"""The Fig. 5 role services of the stream-indexing middleware.

Each data center plays four roles simultaneously; each role is one
:class:`~repro.core.roles.base.RoleService` owning its state and
declaring its message handlers with ``@handles``.  The
:class:`~repro.core.runtime.NodeRuntime` of each node composes them
atop the shared dispatch / delivery-policy / reliability substrate.
"""

from .aggregator import AggregatorEntry, AggregatorService
from .base import RoleService, handler_names, handles
from .client import ClientService
from .holder import IndexHolderService
from .source import SourceService, SourceState

__all__ = [
    "AggregatorEntry",
    "AggregatorService",
    "ClientService",
    "IndexHolderService",
    "RoleService",
    "SourceService",
    "SourceState",
    "handler_names",
    "handles",
]
