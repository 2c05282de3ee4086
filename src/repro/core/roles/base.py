"""Role-service scaffolding: ``@handles`` dispatch and the service base.

The paper's middleware node "plays four roles simultaneously" (Fig. 5);
each role is implemented as one :class:`RoleService` subclass that owns
its state and declares its message handlers with the :func:`handles`
decorator::

    class IndexHolderService(RoleService):
        role = "index-holder"

        @handles(MbrPublish)
        def on_mbr(self, message, payload): ...

:func:`handler_names` collects those declarations into a payload-type ->
handler-name map, once per process for the four Fig. 5 roles
(:data:`repro.core.runtime.HANDLERS`); every
:class:`~repro.core.runtime.NodeRuntime` binds its own services'
methods from it — the paper's system and the Sec. IV-A strawmen
(:mod:`repro.baselines`) alike.  The declarative dispatch replaces
every hand-written ``if isinstance(payload, ...)`` ladder.

Handler registration is validated against the protocol registry
(:data:`repro.core.protocol.PAYLOAD_REGISTRY`): a handler for an
unregistered payload type is an import-time error, and the simlint
D007 rule enforces the same property statically.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Type

from ..protocol import PAYLOAD_REGISTRY

__all__ = ["handles", "handler_names", "RoleService", "HANDLER_ATTR"]

HANDLER_ATTR = "_handles_payload_type"


def handles(payload_type: Type):
    """Mark a :class:`RoleService` method as the handler of one payload type.

    The payload type must be registered in the protocol registry; the
    check happens in :func:`handler_names` (so declaration order does
    not matter) and statically via simlint D007.
    """

    def mark(func):
        setattr(func, HANDLER_ATTR, payload_type)
        return func

    return mark


def handler_names(
    services: Sequence[Type["RoleService"]],
) -> Dict[Type, Tuple[Type["RoleService"], str]]:
    """Payload type -> ``(service class, method name)`` over ``services``.

    Methods are scanned in name (``dir``) order, which is deterministic.
    Exactly one handler may claim a payload type, and every claimed type
    must be in the protocol registry — both violated only by programming
    errors, so both raise ``ValueError``.
    """
    names: Dict[Type, Tuple[Type[RoleService], str]] = {}
    for cls in services:
        for name in dir(cls):
            payload_type = getattr(getattr(cls, name, None), HANDLER_ATTR, None)
            if payload_type is None:
                continue
            if payload_type not in PAYLOAD_REGISTRY:
                raise ValueError(
                    f"{cls.__name__}.{name} handles {payload_type.__name__}, "
                    "which is not registered in the protocol registry"
                )
            if payload_type in names:
                raise ValueError(
                    f"duplicate handler for {payload_type.__name__} "
                    f"({cls.__name__}.{name})"
                )
            names[payload_type] = (cls, name)
    return names


class RoleService:
    """Base class for the Fig. 5 role services.

    A service owns one role's state and handlers and reaches the
    cross-cutting machinery (reliable delivery, sibling roles) through
    the :class:`~repro.core.runtime.NodeRuntime` it is constructed with;
    the node, system, config and Transport seam it reads are copied
    from the runtime once, here.
    """

    #: short role name, shown by ``repro protocol``
    role = ""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.node = runtime.node
        self.node_id = runtime.node_id
        self.system = runtime.system
        self.cfg = runtime.cfg
        #: the Transport seam (clock, timers, send primitives)
        self.transport = runtime.transport

    @property
    def _stats(self):
        # live: ``StreamIndexSystem.reset_stats`` swaps the ledger
        return self.transport.stats

    # -- periodic duties (overridden by roles that have any) -----------
    def on_notification_tick(self, now: float) -> None:
        """NPER-periodic duties of this role (default: none)."""

    def on_refresh_tick(self, now: float) -> None:
        """Soft-state refresh duties of this role (default: none)."""
