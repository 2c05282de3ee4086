"""Role-service scaffolding: ``@handles`` dispatch and the service base.

The paper's middleware node "plays four roles simultaneously" (Fig. 5);
each role is implemented as one :class:`RoleService` subclass that owns
its state and declares its message handlers with the :func:`handles`
decorator::

    class IndexHolderService(RoleService):
        role = "index-holder"

        @handles(MbrPublish)
        def on_mbr(self, message, payload): ...

A :class:`DispatchTable` collects those declarations into a payload-type
-> bound-handler map; :class:`~repro.core.runtime.NodeRuntime` builds
one for the four Fig. 5 roles on every node — the paper's system and
the Sec. IV-A strawmen (:mod:`repro.baselines`) alike.  The declarative
dispatch replaces every hand-written ``if isinstance(payload, ...)``
ladder.

Handler registration is validated against the protocol registry
(:data:`repro.core.protocol.PAYLOAD_REGISTRY`): a handler for an
unregistered payload type is a construction-time error, and the simlint
D007 rule enforces the same property statically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

from ...sim.network import Message
from ..protocol import PAYLOAD_REGISTRY

__all__ = ["handles", "RoleService", "DispatchTable", "HANDLER_ATTR"]

HANDLER_ATTR = "_handles_payload_type"

#: a bound message handler: ``handler(message, payload)``
Handler = Callable[[Message, object], None]


def handles(payload_type: Type):
    """Mark a :class:`RoleService` method as the handler of one payload type.

    The payload type must be registered in the protocol registry; the
    check happens when the service is added to a :class:`DispatchTable`
    (so declaration order does not matter) and statically via simlint
    D007.
    """

    def mark(func):
        setattr(func, HANDLER_ATTR, payload_type)
        return func

    return mark


class RoleService:
    """Base class for the Fig. 5 role services.

    A service owns one role's state and handlers and reaches the
    cross-cutting machinery (overlay sends, reliable delivery, stats,
    sibling roles) through the runtime it is constructed with.
    """

    #: short role name, used in dispatch tables and docs
    role = ""

    def __init__(self, runtime) -> None:
        self.runtime = runtime

    # -- convenience accessors into the runtime ------------------------
    @property
    def node(self):
        """The Chord node this data center sits on."""
        return self.runtime.node

    @property
    def system(self):
        """The :class:`StreamIndexSystem` assembly (overlay, network)."""
        return self.runtime.system

    @property
    def cfg(self):
        """The node's :class:`MiddlewareConfig`."""
        return self.runtime.cfg

    @property
    def node_id(self) -> int:
        """This data center's Chord identifier."""
        return self.runtime.node_id

    @property
    def transport(self):
        """The Transport seam (clock, timers, send primitives)."""
        return self.runtime.transport

    @property
    def _stats(self):
        return self.runtime.stats

    # ------------------------------------------------------------------
    @classmethod
    def handlers(cls) -> List[Tuple[Type, str]]:
        """The ``(payload_type, method_name)`` pairs this class declares.

        Ordered by method name (``dir`` order), which is deterministic.
        """
        out: List[Tuple[Type, str]] = []
        for name in dir(cls):
            attr = getattr(cls, name, None)
            payload_type = getattr(attr, HANDLER_ATTR, None)
            if payload_type is not None:
                out.append((payload_type, name))
        return out

    # -- periodic duties (overridden by roles that have any) -----------
    def on_notification_tick(self, now: float) -> None:
        """NPER-periodic duties of this role (default: none)."""

    def on_refresh_tick(self, now: float) -> None:
        """Soft-state refresh duties of this role (default: none)."""


class DispatchTable:
    """Payload-type -> handler map built from role services.

    One table serves one node; adding a service binds its declared
    handlers.  Exactly one handler may claim a payload type, and every
    claimed type must be in the protocol registry — both violated only
    by programming errors, so both raise immediately.
    """

    def __init__(self) -> None:
        self._handlers: Dict[Type, Handler] = {}
        self.services: List[RoleService] = []

    def add_service(self, service: RoleService) -> RoleService:
        """Bind a service's declared handlers into the table."""
        for payload_type, method_name in type(service).handlers():
            if payload_type not in PAYLOAD_REGISTRY:
                raise ValueError(
                    f"{type(service).__name__}.{method_name} handles "
                    f"{payload_type.__name__}, which is not registered in "
                    "the protocol registry"
                )
            if payload_type in self._handlers:
                raise ValueError(
                    f"duplicate handler for {payload_type.__name__} "
                    f"({type(service).__name__}.{method_name})"
                )
            self._handlers[payload_type] = getattr(service, method_name)
        self.services.append(service)
        return service

    def lookup(self, payload_type: Type) -> Optional[Handler]:
        """The bound handler for a payload type, or ``None``."""
        return self._handlers.get(payload_type)

