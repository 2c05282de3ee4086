"""Wire-format payloads exchanged between data centers.

Each payload type corresponds to one arrow in the paper's Fig. 5
implementation overview: MBR publications, similarity subscriptions,
the location-service handshake for inner-product queries, periodic
similarity reports converging on the aggregator, and periodic response
pushes back to clients.  Message *kinds* (the accounting categories)
are defined alongside in :data:`KIND` so middleware and metrics agree.

Beyond its wire format, every payload type declares its **delivery
policy** right here via the :func:`payload` decorator: its primary
accounting ``kind``, whether redundant deliveries are deduplicated by
delivery id (``dedup``), and whether (and under which message kinds) a
delivery is acknowledged when reliable delivery is on
(``ack_on_delivery`` / ``ack_kinds``).  The resulting
:data:`PAYLOAD_REGISTRY` is the single source of truth consumed by the
:class:`~repro.core.runtime.NodeRuntime` dispatch layer, the runtime
invariant checker (:func:`repro.analysis.invariants.check_delivery_policy`)
and the simlint D007 rule — adding a message type is a one-file change.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple, Type

import numpy as np

from .mbr import MBR
from .queries import InnerProductQuery

__all__ = [
    "KIND",
    "KNOWN_KINDS",
    "KNOWN_ROLES",
    "RUNTIME_ROLE",
    "PayloadSpec",
    "PAYLOAD_REGISTRY",
    "payload",
    "spec_of",
    "registry_items",
    "MbrPublish",
    "SimilaritySubscribe",
    "RegisterStream",
    "LocateRequest",
    "InnerProductSubscribe",
    "WindowRequest",
    "WindowReply",
    "HierarchyQuery",
    "HierarchyUpdate",
    "HierarchyClimb",
    "HierarchyAnswer",
    "SimilarityReport",
    "ResponsePush",
    "ReplicaPublish",
    "ReplicaAck",
    "ReplicaDigestPull",
    "HintedHandoff",
    "LoadShed",
    "Backpressure",
    "Ack",
    "next_delivery_id",
]

_delivery_ids = itertools.count(1)


def next_delivery_id() -> int:
    """A fresh globally unique delivery id.

    Every payload instance the middleware puts on the wire carries one;
    receivers deduplicate redundant deliveries (retransmits, injected
    duplicates) by it, and acknowledgements quote it.  ``-1`` on a
    payload means "no delivery tracking" (hand-built payloads in tests).
    """
    return next(_delivery_ids)


class KIND:
    """Message-kind constants (see Fig. 6(a)'s seven components).

    ============== =====================================================
    constant       meaning
    ============== =====================================================
    MBR            an MBR publication sent by its stream source
    MBR_SPAN       extra copies when the MBR's key range spans nodes
    MBR_TRANSIT    overlay-routing forwards of an MBR by inner nodes
    QUERY          a query message sent by the posing client
    QUERY_SPAN     extra copies when the query radius spans nodes
    QUERY_TRANSIT  overlay-routing forwards of a query
    RESPONSE       a response from the notifying (middle) node to client
    RESPONSE_TRANSIT overlay forwards of a response
    NEIGHBOR_INFO  periodic similarity-info exchange toward the middle
    NEIGHBOR_TRANSIT overlay forwards of neighbor info
    REGISTER       one-time stream registration at the location service
    REGISTER_TRANSIT overlay forwards of registrations
    ============== =====================================================

    The Sec. VI-B hierarchy uses its own kinds (``HIER_UPDATE``,
    ``HIER_QUERY``, ``HIER_RESPONSE``; sent by
    :class:`~repro.core.hierarchy.HierarchyService`) so its traffic
    stays separable from the flat middleware's figure components, but
    they are declared here so that *every* accounting category the
    system can emit is visible in one registry (:data:`KNOWN_KINDS`) —
    the simlint D005 rule rejects message kinds that are not.

    The replication subsystem (DESIGN.md §10) likewise keeps its
    traffic in its own categories so the paper's figure components stay
    untouched: ``REPLICA`` / ``REPLICA_TRANSIT`` for replica pushes,
    ``REPLICA_ACK`` for placement confirmations, ``REPLICA_PULL`` for
    read-repair digests and ``HANDOFF`` / ``HANDOFF_TRANSIT`` for
    hinted handoff.  None of these are emitted at ``replication_factor
    = 1``.

    The load-balancing subsystem (DESIGN.md §13) adds ``SHED`` /
    ``BACKPRESSURE`` (with their transit kinds) for admission control's
    source signaling.  Neither is emitted unless ``admission_control``
    is enabled.
    """

    MBR = "mbr"
    MBR_SPAN = "mbr_span"
    MBR_TRANSIT = "mbr_transit"
    QUERY = "query"
    QUERY_SPAN = "query_span"
    QUERY_TRANSIT = "query_transit"
    RESPONSE = "response"
    RESPONSE_TRANSIT = "response_transit"
    NEIGHBOR_INFO = "neighbor_info"
    NEIGHBOR_TRANSIT = "neighbor_transit"
    REGISTER = "register"
    REGISTER_TRANSIT = "register_transit"
    ACK = "ack"
    ACK_TRANSIT = "ack_transit"
    HIER_UPDATE = "hier_update"
    HIER_QUERY = "hier_query"
    HIER_RESPONSE = "hier_response"
    REPLICA = "replica"
    REPLICA_TRANSIT = "replica_transit"
    REPLICA_ACK = "replica_ack"
    REPLICA_PULL = "replica_pull"
    HANDOFF = "handoff"
    HANDOFF_TRANSIT = "handoff_transit"
    SHED = "shed"
    SHED_TRANSIT = "shed_transit"
    BACKPRESSURE = "backpressure"
    BACKPRESSURE_TRANSIT = "backpressure_transit"


KNOWN_KINDS = frozenset(
    value
    for name, value in vars(KIND).items()
    if not name.startswith("_") and isinstance(value, str)
)
"""Every message kind the system may put on the wire.

This is the accounting contract behind the paper's Fig. 6-8 metrics:
all traffic flows through :meth:`repro.sim.network.Network.hop` under
one of these kinds, so no message can dodge the per-kind counters.  The
``simlint`` D005 rule statically rejects kind literals outside this set.
"""


RUNTIME_ROLE = "(runtime)"
"""Pseudo-role for traffic the dispatch layer itself originates (acks)."""

KNOWN_ROLES = frozenset(
    {"source", "index-holder", "aggregator", "client", "hierarchy", RUNTIME_ROLE}
)
"""Every role name a payload may declare as a legal sender.

Four real roles mirror the paper's Fig. 5 participants (stream
sources, index holders, the report aggregator, posing clients), the
fifth is the Sec. VI-B leader hierarchy; the
:data:`RUNTIME_ROLE` pseudo-role covers middleware-originated traffic
such as delivery acknowledgements.  The ``repro flow`` static analyzer
checks every send site it discovers against the sending payload's
declared ``senders`` set (rule F002).
"""


@dataclass(frozen=True)
class PayloadSpec:
    """Delivery policy of one payload type (see :func:`payload`).

    Attributes
    ----------
    kind:
        The primary accounting kind the payload originates under.
    dedup:
        Suppress redundant deliveries (retransmits, network-injected
        duplicates) by delivery id.  Handlers of dedup'd payloads
        install state or append results, so replaying them must be a
        no-op; request/reply payloads stay ``False`` — a retransmitted
        request must be re-forwarded / re-answered, and their handlers
        are naturally idempotent.
    ack_on_delivery:
        Emit an :class:`Ack` when the payload is delivered and reliable
        delivery is on.  (Duplicates are re-acked too: the sender
        retransmitting means our first ack was lost.)
    ack_kinds:
        The message kinds under which a delivery is acknowledged.  Only
        *primary* deliveries are acked; span copies of a range multicast
        never are — the originator only needs the entry node's ack, and
        span tails lost to the network are healed by soft-state refresh
        instead.
    """

    kind: str
    dedup: bool = False
    ack_on_delivery: bool = False
    ack_kinds: FrozenSet[str] = frozenset()
    #: roles legally allowed to put this payload on the wire (subset of
    #: :data:`KNOWN_ROLES`); the flow analyzer's F002 rule flags send
    #: sites in any other role
    senders: FrozenSet[str] = frozenset()
    #: class name of the payload answering this one (request/reply
    #: semantics); the flow analyzer's F004 rule demands a statically
    #: reachable send site of the response from this payload's handlers.
    #: By name rather than by type so a request may name a reply that is
    #: declared later in this module.
    response: Optional[str] = None
    #: flow discipline: ``"normal"`` payloads need a send site and a
    #: handler (F001); ``"ack"`` payloads are consumed by the dispatch
    #: layer itself instead of a role handler
    flow: str = "normal"


PAYLOAD_REGISTRY: Dict[Type, PayloadSpec] = {}
"""Every wire payload type, mapped to its :class:`PayloadSpec`.

Iteration order is declaration order in this module, so tables derived
from the registry (``python -m repro protocol``) are deterministic.
"""


def registry_items() -> List[Tuple[Type, PayloadSpec]]:
    """The payload registry as a declaration-ordered list.

    Single accessor shared by the ``repro protocol`` CLI table and the
    ``repro flow`` static analyzer so the two can never disagree about
    which payload types exist or in which order they are listed.
    """
    return list(PAYLOAD_REGISTRY.items())


_FLOW_VALUES = ("normal", "ack")


def payload(
    *,
    kind: str,
    dedup: bool = False,
    ack_on_delivery: bool = False,
    ack_kinds: Iterable[str] = (),
    senders: Iterable[str] = (),
    response: Optional[str] = None,
    flow: str = "normal",
):
    """Class decorator registering a payload type's delivery policy.

    Usage (stacked *above* ``@dataclass`` so the finished class is
    registered)::

        @payload(kind=KIND.MBR, dedup=True,
                 ack_on_delivery=True, ack_kinds=(KIND.MBR,))
        @dataclass
        class MbrPublish: ...

    Raises :class:`ValueError` on duplicate registration, unknown kinds,
    or an ack policy without any ack kinds — the registry must stay
    internally consistent because runtime dispatch, the invariant
    checker and simlint D007 all trust it blindly.
    """
    spec = PayloadSpec(
        kind=kind,
        dedup=dedup,
        ack_on_delivery=ack_on_delivery,
        ack_kinds=frozenset(ack_kinds),
        senders=frozenset(senders),
        response=response,
        flow=flow,
    )
    if spec.kind not in KNOWN_KINDS:
        raise ValueError(f"payload kind {spec.kind!r} is not in KNOWN_KINDS")
    for ack_kind in spec.ack_kinds:
        if ack_kind not in KNOWN_KINDS:
            raise ValueError(f"ack kind {ack_kind!r} is not in KNOWN_KINDS")
    if spec.ack_on_delivery != bool(spec.ack_kinds):
        raise ValueError(
            "ack_on_delivery and ack_kinds must be declared together"
        )
    for sender in spec.senders:
        if sender not in KNOWN_ROLES:
            raise ValueError(f"sender role {sender!r} is not in KNOWN_ROLES")
    if spec.flow not in _FLOW_VALUES:
        raise ValueError(
            f"flow {spec.flow!r} must be one of {_FLOW_VALUES}"
        )
    if spec.flow == "normal" and not spec.senders:
        raise ValueError(
            "a normal-flow payload must declare at least one sender role"
        )

    def register(cls: Type) -> Type:
        """Record ``cls`` with its spec in :data:`PAYLOAD_REGISTRY`."""
        if cls in PAYLOAD_REGISTRY:
            raise ValueError(f"payload type {cls.__name__} registered twice")
        PAYLOAD_REGISTRY[cls] = spec
        return cls

    return register


def spec_of(payload_type: Type) -> Optional[PayloadSpec]:
    """The delivery policy of a payload type; ``None`` if unregistered."""
    return PAYLOAD_REGISTRY.get(payload_type)


@payload(
    kind=KIND.MBR,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.MBR,),
    senders=("source",),
)
@dataclass
class MbrPublish:
    """A stream source publishing one MBR of summaries.

    ``low_key``/``high_key`` delimit the replication range on the ring
    (keys of the MBR's first-coordinate interval).
    """

    mbr: MBR
    source_id: int
    low_key: int
    high_key: int
    lifespan_ms: float
    delivery_id: int = -1


@payload(
    kind=KIND.QUERY,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.QUERY,),
    senders=("client",),
    response="ResponsePush",
)
@dataclass
class SimilaritySubscribe:
    """A similarity query being installed across its key range.

    Attributes
    ----------
    query_id / client_id:
        Identity and where to send responses.
    feature:
        The query's feature vector.
    radius:
        ε threshold on feature-space distance.
    low_key / high_key / middle_key:
        The replication range and the aggregation point (the node
        covering ``middle_key`` collects reports and answers the
        client).
    lifespan_ms:
        Subscription lifetime.
    consistency:
        Read mode requested by the client: ``""`` (inherit the
        configured default), ``"eventual"`` or ``"quorum"``
        (DESIGN.md §10).
    """

    query_id: int
    client_id: int
    feature: np.ndarray
    radius: float
    low_key: int
    high_key: int
    middle_key: int
    lifespan_ms: float
    consistency: str = ""
    delivery_id: int = -1


@payload(
    kind=KIND.REGISTER,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.REGISTER,),
    senders=("source",),
)
@dataclass
class RegisterStream:
    """One-time location-service registration: ``h2(sid) -> source``."""

    stream_id: str
    source_id: int
    delivery_id: int = -1


@payload(
    kind=KIND.QUERY,
    ack_on_delivery=True,
    ack_kinds=(KIND.QUERY,),
    senders=("client",),
    response="ResponsePush",
)
@dataclass
class LocateRequest:
    """Client asking the location service which node sources a stream."""

    query: InnerProductQuery
    client_id: int
    delivery_id: int = -1


@payload(
    kind=KIND.QUERY,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.QUERY,),
    senders=("client", "index-holder"),
    response="ResponsePush",
)
@dataclass
class InnerProductSubscribe:
    """The inner-product query, forwarded to the stream's source node."""

    query: InnerProductQuery
    client_id: int
    delivery_id: int = -1


@payload(
    kind=KIND.QUERY,
    senders=("client", "source"),
    response="WindowReply",
)
@dataclass
class WindowRequest:
    """A client asking a stream's source for its current raw window.

    Used by the two-phase (filter-and-refine) similarity pipeline: the
    index's candidates are a superset; fetching the candidate's window
    lets the client verify the exact normalized distance.  Routed to
    ``h2(stream_id)`` first (the location service resolves the source,
    exactly as for inner-product queries), then forwarded to the source.
    """

    stream_id: str
    requester_id: int
    request_id: int
    delivery_id: int = -1


@payload(kind=KIND.RESPONSE, senders=("source",))
@dataclass
class WindowReply:
    """The source's answer to a :class:`WindowRequest`."""

    stream_id: str
    request_id: int
    window: np.ndarray
    source_id: int


@payload(
    kind=KIND.QUERY,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.QUERY,),
    senders=("hierarchy",),
    response="ResponsePush",
)
@dataclass
class HierarchyQuery:
    """A wide-selectivity similarity query entering the VI-B hierarchy.

    The client's node content-routes this to the query's center key;
    the owning node climbs its leader chain to the level covering the
    key range and answers the client with the (widened-box) candidates.
    One-shot snapshot semantics — clients repost for refresh.
    """

    query_id: int
    client_id: int
    feature: np.ndarray
    radius: float
    low_key: int
    high_key: int
    delivery_id: int = -1


@payload(kind=KIND.HIER_UPDATE, senders=("hierarchy",))
@dataclass
class HierarchyUpdate:
    """A summary pushed one level up the VI-B leader chain.

    Sent to the leader of the sender's level-``level`` cluster, which
    keeps it widened at ``level + 1``.  ``expires_ms`` is the absolute
    expiry the content-placed node leased the summary for.  No ack and
    no dedup: the next update of the stream heals a lost one, and a
    repeated one is suppressed by the widened box it fits.
    """

    mbr: MBR
    level: int
    expires_ms: float


@payload(kind=KIND.HIER_QUERY, senders=("hierarchy",), response="HierarchyAnswer")
@dataclass
class HierarchyClimb:
    """A :class:`HierarchyQuery` climbing from leader to leader.

    The receiver leads a level-``level`` cluster; it scans its entries
    if that cluster's subtree covers positions ``[lo_idx, hi_idx)`` (the
    ring-order positions of the nodes covering the query's key range),
    else passes the climb to its leader at a higher level.  The
    candidates go back to ``owner_id``, the center-key owner.  No ack
    and no dedup: a lost climb loses one snapshot answer.
    """

    query_id: int
    client_id: int
    owner_id: int
    feature: np.ndarray
    radius: float
    lo_idx: int
    hi_idx: int
    level: int


@payload(kind=KIND.HIER_RESPONSE, senders=("hierarchy",))
@dataclass
class HierarchyAnswer:
    """The scanning leader's candidates, on their way to the center-key owner."""

    query_id: int
    client_id: int
    matches: List[Tuple[str, float]] = field(default_factory=list)


@payload(
    kind=KIND.NEIGHBOR_INFO,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.NEIGHBOR_INFO,),
    senders=("index-holder",),
    response="ResponsePush",
)
@dataclass
class SimilarityReport:
    """Periodic aggregated similarity info flowing to a middle node.

    ``matches`` maps ``query_id`` to the list of ``(stream_id,
    feature_distance)`` candidates detected since the last report.

    ``versions`` carries, per reported stream id, the version token of
    the copy the reporter matched (the MBR's absolute expiry, ms).  It
    is populated only under replication (``replication_factor > 1``) so
    quorum aggregators can count agreeing replicas and read-repair
    stale ones; at r = 1 it stays empty and the wire format is
    byte-identical to the unreplicated build.
    """

    reporter_id: int
    middle_key: int
    matches: Dict[int, List[Tuple[str, float]]] = field(default_factory=dict)
    versions: Dict[str, float] = field(default_factory=dict)
    delivery_id: int = -1


@payload(
    kind=KIND.RESPONSE,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.RESPONSE,),
    senders=("aggregator", "source", "hierarchy"),
)
@dataclass
class ResponsePush:
    """A response from an aggregator, a source or the hierarchy to a client.

    Exactly one of ``similarity`` / ``inner_product`` is non-empty.
    """

    client_id: int
    query_id: int
    similarity: List[Tuple[str, float]] = field(default_factory=list)
    inner_product: float = float("nan")
    stream_id: str = ""
    #: id of the responding source node (inner-product pushes only);
    #: lets the client cache the stream -> source mapping (Sec. IV-D)
    source_id: int = -1
    delivery_id: int = -1


@payload(
    kind=KIND.REPLICA,
    dedup=True,
    senders=("index-holder",),
    response="ReplicaAck",
)
@dataclass
class ReplicaPublish:
    """A copy of a stored MBR pushed onto the owner's successor list.

    Sent by the *last* index holder of a publish span to its first
    ``r - 1`` out-of-range successors (DESIGN.md §10); also re-sent by
    the anti-entropy pass for unconfirmed placements and by read-repair
    (:class:`ReplicaDigestPull`).  ``expires_ms`` is the entry's
    absolute expiry — stable across soft-state refreshes of the same
    MBR, so it doubles as the replica's version token.  Not
    individually acked by the generic reliable layer: placement is
    confirmed by an explicit :class:`ReplicaAck` and healed by
    anti-entropy, so a lost push never becomes a dead letter.
    """

    mbr: MBR
    source_id: int
    low_key: int
    high_key: int
    owner_id: int
    expires_ms: float
    delivery_id: int = -1


@payload(kind=KIND.REPLICA_ACK, dedup=True, senders=("index-holder",))
@dataclass
class ReplicaAck:
    """A replica holder confirming one installed copy to its owner.

    The owner marks ``(stream_id, expires_ms)`` confirmed for
    ``holder_id``; entries still unconfirmed when a stabilization round
    fires are re-pushed by the anti-entropy pass.
    """

    owner_id: int
    holder_id: int
    stream_id: str
    expires_ms: float
    delivery_id: int = -1


@payload(
    kind=KIND.REPLICA_PULL,
    senders=("aggregator",),
    response="ReplicaPublish",
)
@dataclass
class ReplicaDigestPull:
    """Read-repair digest: "push what ``stale_id`` is missing".

    Sent by a quorum-mode aggregator to the *freshest* reporter of a
    stream when another reporter answered with an older version; the
    receiver pushes its copies newer than ``have_version_ms`` straight
    to the stale node as :class:`ReplicaPublish`.  A request/reply
    payload: retransmits are re-answered, so no dedup.
    """

    stale_id: int
    stream_id: str
    have_version_ms: float
    delivery_id: int = -1


@payload(
    kind=KIND.HANDOFF,
    dedup=True,
    ack_on_delivery=True,
    ack_kinds=(KIND.HANDOFF,),
    senders=("index-holder",),
)
@dataclass
class HintedHandoff:
    """A replica whose owner died, re-routed to the key's new owner.

    Replica holders detect the dead owner during the anti-entropy pass,
    queue the entry as a hint, and drain the queue by content-routing
    the entry back to ``low_key`` — the ring delivers it to whichever
    node owns the arc now.  The receiver installs it as a primary only
    if its arc lies inside the entry's range walk (otherwise as a plain
    replica), then re-replicates as the new owner.
    """

    mbr: MBR
    source_id: int
    low_key: int
    high_key: int
    expires_ms: float
    delivery_id: int = -1


@payload(
    kind=KIND.SHED,
    dedup=True,
    senders=("index-holder",),
)
@dataclass
class LoadShed:
    """A holder telling a source it shed one MBR publish (§13).

    Sent when admission control's token bucket is empty: the publish
    was *delivered* (and acked — reliability accounting is unaffected)
    but not stored.  The source re-publishes the shed MBR after its
    throttle interval, so the summary is delayed, never lost, while the
    holder sheds load at the rate the bucket allows.  Not individually
    acked: a lost shed notice at worst delays the re-publish until the
    source's soft-state refresh re-asserts the MBR.
    """

    holder_id: int
    source_id: int
    stream_id: str
    #: absolute expiry of the shed MBR so the re-publish keeps the
    #: original BSPAN lease rather than extending it
    expires_ms: float
    delivery_id: int = -1


@payload(
    kind=KIND.BACKPRESSURE,
    dedup=True,
    senders=("index-holder",),
)
@dataclass
class Backpressure:
    """A rate advisory from an overloaded holder to a source (§13).

    Emitted at most once per holder advisory interval; the receiving
    source stretches its publish cadence (multiplicative slow-down,
    decayed back over time), the queue-based load-leveling half of the
    admission-control contract: sheds bound the holder's intake, while
    backpressure moves the queueing to the edge where the data is
    produced.  Advisory soft state — losing one costs nothing.
    """

    holder_id: int
    source_id: int
    #: minimum ms the source should wait before its next publish to
    #: this holder's key region
    slow_down_ms: float
    delivery_id: int = -1


@payload(kind=KIND.ACK, senders=(RUNTIME_ROLE,), flow="ack")
@dataclass
class Ack:
    """Delivery acknowledgement for a reliably-sent payload.

    Routed back to the sending node (its id is the destination key);
    quoting the payload's ``delivery_id`` lets the sender cancel the
    pending retransmission timer.  ``kind`` echoes the acked payload's
    accounting kind for the delivery-ratio metric.
    """

    delivery_id: int
    acker_id: int
    kind: str = ""


def _check_response_names() -> None:
    """Every ``response=`` name must resolve to a registered payload.

    Responses are declared by class name so a request may reference a
    reply defined later in this module; this module-end pass closes the
    loop and keeps dangling names from reaching the flow analyzer.
    """
    names = {cls.__name__ for cls in PAYLOAD_REGISTRY}
    for cls, spec in PAYLOAD_REGISTRY.items():
        if spec.response is not None and spec.response not in names:
            raise ValueError(
                f"{cls.__name__} declares response {spec.response!r}, "
                "which is not a registered payload type"
            )


_check_response_names()
