"""Delivery-policy tests driven by the protocol registry.

The table below walks :data:`~repro.core.protocol.PAYLOAD_REGISTRY` and
asserts — end-to-end through :class:`~repro.core.runtime.NodeRuntime` —
that every payload type gets exactly the dedup/ack treatment its
``@payload(...)`` registration declares.  The registry IS the test
table, so policy drift fails here before it ships.  Alongside: the
bounded seen-set's FIFO eviction, the unknown-payload fallback, the
handler map's validation, and the per-node binding of handlers.
"""

import numpy as np
import pytest

from repro.core import (
    KIND,
    MBR,
    MiddlewareConfig,
    StreamIndexSystem,
    WorkloadConfig,
    point_query,
)
from repro.core import runtime as runtime_module
from repro.core.protocol import (
    PAYLOAD_REGISTRY,
    Ack,
    Backpressure,
    HierarchyQuery,
    HintedHandoff,
    InnerProductSubscribe,
    LoadShed,
    LocateRequest,
    MbrPublish,
    RegisterStream,
    ReplicaAck,
    ReplicaDigestPull,
    ReplicaPublish,
    ResponsePush,
    SimilarityReport,
    SimilaritySubscribe,
    WindowReply,
    WindowRequest,
    next_delivery_id,
)
from repro.core.roles import IndexHolderService, RoleService, handler_names, handles
from repro.sim import Message, MessageTracer


def small_system(n=8, seed=0, **cfg_kw):
    cfg = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=10_000.0,
            qrate_per_s=0.0,
            qmin_ms=5_000.0,
            qmax_ms=10_000.0,
            nper_ms=500.0,
        ),
        **cfg_kw,
    )
    return StreamIndexSystem(n, cfg, seed=seed)


# ----------------------------------------------------------------------
# one minimal-but-deliverable instance per registered payload type
# ----------------------------------------------------------------------
PAYLOAD_FACTORIES = {
    MbrPublish: lambda app, peer: MbrPublish(
        mbr=MBR.of_point(np.array([0.5, 0.5]), stream_id="sX"),
        source_id=peer.node_id,
        low_key=app.node_id,
        high_key=app.node_id,
        lifespan_ms=5_000.0,
    ),
    SimilaritySubscribe: lambda app, peer: SimilaritySubscribe(
        query_id=7,
        client_id=peer.node_id,
        feature=np.zeros(2),
        radius=0.5,
        low_key=app.node_id,
        high_key=app.node_id,
        middle_key=app.node_id,
        lifespan_ms=5_000.0,
    ),
    RegisterStream: lambda app, peer: RegisterStream(
        stream_id="sX", source_id=peer.node_id
    ),
    LocateRequest: lambda app, peer: LocateRequest(
        query=point_query("ghost", 0, 1_000.0), client_id=peer.node_id
    ),
    InnerProductSubscribe: lambda app, peer: InnerProductSubscribe(
        query=point_query("ghost", 0, 1_000.0), client_id=peer.node_id
    ),
    WindowRequest: lambda app, peer: WindowRequest(
        stream_id="ghost", requester_id=peer.node_id, request_id=1
    ),
    WindowReply: lambda app, peer: WindowReply(
        stream_id="sX", request_id=999, window=np.zeros(16), source_id=peer.node_id
    ),
    HierarchyQuery: lambda app, peer: HierarchyQuery(
        query_id=7,
        client_id=peer.node_id,
        feature=np.zeros(2),
        radius=0.5,
        low_key=app.node_id,
        high_key=app.node_id,
    ),
    SimilarityReport: lambda app, peer: SimilarityReport(
        reporter_id=peer.node_id, middle_key=app.node_id
    ),
    ResponsePush: lambda app, peer: ResponsePush(
        client_id=app.node_id, query_id=7, similarity=[("sX", 0.1)]
    ),
    ReplicaPublish: lambda app, peer: ReplicaPublish(
        mbr=MBR.of_point(np.array([0.5, 0.5]), stream_id="sX"),
        source_id=peer.node_id,
        low_key=peer.node_id,
        high_key=peer.node_id,
        owner_id=peer.node_id,
        expires_ms=5_000.0,
    ),
    ReplicaAck: lambda app, peer: ReplicaAck(
        owner_id=app.node_id,
        holder_id=peer.node_id,
        stream_id="sX",
        expires_ms=5_000.0,
    ),
    ReplicaDigestPull: lambda app, peer: ReplicaDigestPull(
        stale_id=peer.node_id, stream_id="sX", have_version_ms=1_000.0
    ),
    HintedHandoff: lambda app, peer: HintedHandoff(
        mbr=MBR.of_point(np.array([0.5, 0.5]), stream_id="sX"),
        source_id=peer.node_id,
        low_key=peer.node_id,
        high_key=peer.node_id,
        expires_ms=5_000.0,
    ),
    LoadShed: lambda app, peer: LoadShed(
        holder_id=peer.node_id,
        source_id=app.node_id,
        stream_id="sX",
        expires_ms=5_000.0,
    ),
    Backpressure: lambda app, peer: Backpressure(
        holder_id=peer.node_id,
        source_id=app.node_id,
        slow_down_ms=50.0,
    ),
}


def test_factory_table_covers_registry():
    """Adding a payload type without extending this table fails loudly."""
    assert set(PAYLOAD_FACTORIES) == set(PAYLOAD_REGISTRY) - {Ack}


@pytest.mark.parametrize(
    "payload_type",
    [t for t in PAYLOAD_REGISTRY if t is not Ack],
    ids=lambda t: t.__name__,
)
def test_registry_policy_enforced_end_to_end(payload_type):
    """Deliver each payload twice; dedup and ack must match its spec."""
    spec = PAYLOAD_REGISTRY[payload_type]
    system = small_system(reliable_delivery=True)
    app, peer = system.app(0), system.app(1)
    payload = PAYLOAD_FACTORIES[payload_type](app, peer)
    tracked = hasattr(payload, "delivery_id")
    if tracked:
        payload.delivery_id = next_delivery_id()

    def deliver():
        app.deliver(
            app.node,
            Message(
                kind=spec.kind,
                payload=payload,
                origin=peer.node_id,
                dest_key=app.node_id,
            ),
        )

    stats = system.network.stats
    deliver()
    deliver()
    suppressed = stats.duplicates_suppressed[spec.kind]
    if spec.dedup:
        assert suppressed == 1, "dedup'd payload replayed without suppression"
    else:
        assert suppressed == 0, "non-dedup payload wrongly suppressed"
    system.run(1_000.0)  # let any emitted acks route
    acks = system.network.stats.sends_by_kind[KIND.ACK]
    if spec.ack_on_delivery and spec.kind in spec.ack_kinds and tracked:
        # both deliveries acked: the duplicate means our first ack was lost
        assert acks >= 2
    else:
        assert acks == 0


def test_span_copies_never_acked():
    """A range-multicast span copy arrives under a span kind: no ack."""
    system = small_system(reliable_delivery=True)
    app, peer = system.app(0), system.app(1)
    payload = PAYLOAD_FACTORIES[MbrPublish](app, peer)
    payload.delivery_id = next_delivery_id()
    app.deliver(
        app.node,
        Message(
            kind=KIND.MBR_SPAN,
            payload=payload,
            origin=peer.node_id,
            dest_key=app.node_id,
        ),
    )
    system.run(500.0)
    assert system.network.stats.sends_by_kind[KIND.ACK] == 0
    assert app.index.mbr_count() == 1  # but the copy was stored


# ----------------------------------------------------------------------
# bounded seen-set: FIFO eviction
# ----------------------------------------------------------------------
def test_dedup_seen_set_evicts_fifo(monkeypatch):
    """The seen-set is bounded; the oldest delivery id falls out first."""
    monkeypatch.setattr(runtime_module, "DEDUP_SEEN_LIMIT", 3)
    # duplicate_rate > 0 so dedup bookkeeping is active (duplicates_possible)
    system = small_system(duplicate_rate=0.01)
    client = system.app(0)

    def deliver(delivery_id):
        payload = ResponsePush(
            client_id=client.node_id,
            query_id=delivery_id,
            similarity=[("s", 0.1)],
            delivery_id=delivery_id,
        )
        client.deliver(
            client.node,
            Message(
                kind=KIND.RESPONSE,
                payload=payload,
                origin=system.app(1).node_id,
                dest_key=client.node_id,
            ),
        )

    sender = system.app(1).node_id
    for delivery_id in (101, 102, 103):
        deliver(delivery_id)
    assert client._seen_deliveries == {(sender, 101), (sender, 102), (sender, 103)}
    deliver(104)  # over the limit: 101 (oldest) is evicted
    assert client._seen_deliveries == {(sender, 102), (sender, 103), (sender, 104)}
    assert len(client._seen_order) == len(client._seen_deliveries) == 3
    # a replay of the evicted id is no longer recognised as a duplicate
    deliver(101)
    assert len(client.similarity_results[101]) == 2
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 0
    # a replay of a remembered id still is
    deliver(103)
    assert len(client.similarity_results[103]) == 1
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 1


def test_dedup_key_includes_origin():
    """The same delivery id from two origins is two distinct deliveries.

    Delivery ids come from a process-local counter; in the asyncio
    runtime every node is its own OS process, so different nodes
    routinely hand out the same bare id.  Only a repeat from the *same*
    origin is a retransmission.
    """
    # duplicate_rate > 0 so dedup bookkeeping is active (duplicates_possible)
    system = small_system(duplicate_rate=0.01)
    client = system.app(0)

    def deliver(origin_id, delivery_id):
        payload = ResponsePush(
            client_id=client.node_id,
            query_id=7,
            similarity=[("s", 0.1)],
            delivery_id=delivery_id,
        )
        client.deliver(
            client.node,
            Message(
                kind=KIND.RESPONSE,
                payload=payload,
                origin=origin_id,
                dest_key=client.node_id,
            ),
        )

    deliver(system.app(1).node_id, 55)
    deliver(system.app(2).node_id, 55)  # same id, different origin
    assert len(client.similarity_results[7]) == 2
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 0
    deliver(system.app(1).node_id, 55)  # same id, same origin: duplicate
    assert len(client.similarity_results[7]) == 2
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 1


# ----------------------------------------------------------------------
# unknown-payload fallback: counted and traced, never silently dropped
# ----------------------------------------------------------------------
class Unregistered:
    """A payload type the protocol registry has never heard of."""


def test_unknown_payload_counted_and_traced():
    system = small_system()
    system.network.tracer = MessageTracer()
    app = system.app(0)

    def deliver():
        app.deliver(
            app.node,
            Message(
                kind=KIND.QUERY,
                payload=Unregistered(),
                origin=system.app(1).node_id,
                dest_key=app.node_id,
            ),
        )

    deliver()
    assert system.network.stats.unknown_payloads[KIND.QUERY] == 1
    events = system.network.tracer.events(event="unknown")
    assert len(events) == 1
    assert events[0].dst == app.node_id
    assert events[0].kind == KIND.QUERY
    # without a tracer the counter still advances and nothing raises
    system.network.tracer = None
    deliver()
    assert system.network.stats.unknown_payloads[KIND.QUERY] == 2


# ----------------------------------------------------------------------
# handler map: validation, and binding per node
# ----------------------------------------------------------------------
def test_dispatch_rejects_handler_for_unregistered_type():
    class Rogue:
        pass

    class BadService(RoleService):
        role = "bad"

        @handles(Rogue)
        def on_rogue(self, message, payload):
            pass

    with pytest.raises(ValueError, match="not registered"):
        handler_names([BadService])


def test_dispatch_rejects_duplicate_handlers():
    class FirstService(RoleService):
        role = "first"

        @handles(MbrPublish)
        def on_mbr(self, message, payload):
            pass

    class SecondService(RoleService):
        role = "second"

        @handles(MbrPublish)
        def on_mbr_again(self, message, payload):
            pass

    assert handler_names([FirstService]) == {MbrPublish: (FirstService, "on_mbr")}
    with pytest.raises(ValueError, match="duplicate handler for MbrPublish"):
        handler_names([FirstService, SecondService])


def test_handler_patched_on_its_class_before_build_handles_deliveries(monkeypatch):
    """Nodes bind handlers by name when built, so a tracer that wraps a
    role method on its class before the system exists sees every call."""
    seen = []
    original = IndexHolderService.on_mbr

    def wrapped(self, message, payload):
        seen.append(payload)
        return original(self, message, payload)

    monkeypatch.setattr(IndexHolderService, "on_mbr", wrapped)
    system = small_system()
    app, peer = system.app(0), system.app(1)
    payload = PAYLOAD_FACTORIES[MbrPublish](app, peer)
    app.deliver(
        app.node,
        Message(kind=KIND.MBR, payload=payload, origin=peer.node_id, dest_key=app.node_id),
    )
    assert seen == [payload]
    assert app.index.mbr_count() == 1


def test_app_is_what_the_overlay_delivers_to_and_each_roles_runtime():
    system = small_system()
    for i, app in enumerate(system.all_apps):
        assert system.app(i) is app
        assert system.overlay._apps[app.node_id] is app
        assert all(service.runtime is app for service in app.services)
        assert (app.holder, app.aggregator, app.source, app.client) == app.services
