"""The Transport seam: one contract for every fabric, and the schema pin.

Each runtime sends through exactly one fabric object: the simulator's
:class:`~repro.chord.dht.DhtOverlay`, the strawmen's one-hop subclass
:class:`~repro.baselines.onehop.OneHopTransport`, and a socket peer's
:class:`~repro.net.peer.AsyncioTransport`.  These tests hold every
fabric to the same surface and to DESIGN.md §12's identity invariants,
and pin the ``repro protocol --json`` dump against the wire codec table.
"""

import asyncio
import json
import time

import pytest

from repro.baselines import CentralizedIndexSystem
from repro.baselines.onehop import OneHopTransport
from repro.chord.dht import DhtOverlay
from repro.cli import main, protocol_registry_dump
from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core.protocol import KIND, Ack
from repro.net import wire
from repro.net.peer import AsyncioTransport, PeerNode
from repro.net.transport import Transport, TransportHandle
from repro.sim.network import Message

#: each simulator fabric, by the system class that builds it
SIM_FABRICS = {DhtOverlay: StreamIndexSystem, OneHopTransport: CentralizedIndexSystem}


def make_config():
    return MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=4,
        workload=WorkloadConfig(qrate_per_s=0.0, nper_ms=500.0),
    )


def make_system(system_class=StreamIndexSystem, n=4, seed=7):
    return system_class(n, make_config(), seed=seed)


def each_system(n=4):
    """One fresh system per simulator fabric, with that fabric's class."""
    for fabric_class, system_class in SIM_FABRICS.items():
        system = make_system(system_class, n=n)
        assert type(system.transport) is fabric_class
        yield system


def test_system_exposes_transport_protocol():
    for system in each_system():
        assert isinstance(system.transport, Transport)
        assert isinstance(system.transport, DhtOverlay)


def test_clock_is_live_view_of_sim():
    for system in each_system():
        t = system.transport
        assert t.now == system.sim.now
        system.run(125.0)
        assert t.now == system.sim.now == 125.0


def test_schedule_delegates_and_handle_cancels():
    for system in each_system():
        fired = []
        handle = system.transport.schedule(10.0, fired.append, "a")
        victim = system.transport.schedule(20.0, fired.append, "b")
        assert isinstance(handle, TransportHandle)
        victim.cancel()
        system.run(50.0)
        assert fired == ["a"]


def test_stats_is_live_across_reset():
    # StreamIndexSystem.reset_stats swaps the Network's stats object;
    # the fabric must expose the *new* one, not a captured reference.
    for system in each_system():
        before = system.transport.stats
        assert before is system.network.stats
        system.reset_stats()
        assert system.transport.stats is system.network.stats
        assert system.transport.stats is not before


def test_tracer_is_live_view():
    for system in each_system():
        assert system.transport.tracer is system.network.tracer


def test_route_counts_like_overlay_route():
    for system in each_system():
        app = system.all_apps[0]
        msg = ack_message(app.node, system.all_apps[1].node_id)
        system.transport.route(app.node, msg, transit_kind=KIND.ACK_TRANSIT)
        system.run(1_000.0)
        stats = system.transport.stats
        assert sum(stats.sends.values()) >= 1
        assert any(kind == KIND.ACK for (_, kind) in stats.receives)


def test_runtime_and_roles_reach_seam():
    for system in each_system():
        for app in system.all_apps:
            assert system.transport._apps[app.node_id] is app
            assert app.transport is system.transport
            for service in app.services:
                assert service.transport is system.transport


# ---------------------------------------------------------------------
# DESIGN.md §12 identity invariants, on all three fabrics
# ---------------------------------------------------------------------
def ack_message(node, dest_key):
    return Message(
        kind=KIND.ACK,
        payload=Ack(delivery_id=1, acker_id=node.node_id),
        origin=node.node_id,
        dest_key=dest_key,
    )


class Recorder:
    """An app that notes what each delivery looked like when it ran."""

    def __init__(self):
        self.seen = []

    def deliver(self, node, msg):
        self.seen.append((node.node_id, msg.kind, msg.born))


def on_fabric(fabric_class, check):
    """Run ``check(fabric, node, recorder, advance)`` on one node.

    ``recorder`` replaces the node's app; ``advance(ms)`` lets the
    fabric's clock move on.  A socket peer needs a running event loop
    for its clock but no server: every send here stays local.
    """
    recorder = Recorder()
    if fabric_class is AsyncioTransport:

        async def run():
            peer = PeerNode("dc-0", "127.0.0.1", 0, make_config())
            peer.app = recorder
            check(peer.transport, peer.node, recorder, lambda ms: time.sleep(ms / 1000.0))

        asyncio.run(run())
        return
    system = make_system(SIM_FABRICS[fabric_class])
    node = system.all_apps[0].node
    system.transport.register_app(node, recorder)
    system.run(10.0)  # off t = 0, where ``born`` reads as unset
    check(system.transport, node, recorder, system.run)


FABRICS = pytest.mark.parametrize(
    "fabric_class",
    [DhtOverlay, OneHopTransport, AsyncioTransport],
    ids=lambda cls: cls.__name__,
)


@FABRICS
def test_fabric_is_a_transport(fabric_class):
    def check(fabric, node, recorder, advance):
        assert type(fabric) is fabric_class
        assert isinstance(fabric, Transport)

    on_fabric(fabric_class, check)


@FABRICS
def test_local_send_delivers_synchronously_and_records_no_send(fabric_class):
    def check(fabric, node, recorder, advance):
        sends = sum(fabric.stats.sends.values())
        fabric.send_direct(node, node, ack_message(node, node.node_id))
        assert len(recorder.seen) == 1
        fabric.route(node, ack_message(node, node.node_id), transit_kind=KIND.ACK_TRANSIT)
        assert len(recorder.seen) == 2
        assert sum(fabric.stats.sends.values()) == sends

    on_fabric(fabric_class, check)


@FABRICS
def test_born_is_stamped_once_at_the_first_send(fabric_class):
    def check(fabric, node, recorder, advance):
        msg = ack_message(node, node.node_id)
        assert msg.born == 0.0
        before = fabric.now
        fabric.send_direct(node, node, msg)
        first = msg.born
        assert 0.0 < before <= first <= fabric.now
        advance(5.0)
        assert fabric.now > first
        fabric.route(node, msg, transit_kind=KIND.ACK_TRANSIT)
        assert msg.born == first
        assert [born for _, _, born in recorder.seen] == [first, first]

    on_fabric(fabric_class, check)


@FABRICS
def test_delivery_sees_the_base_kind(fabric_class):
    def check(fabric, node, recorder, advance):
        fabric.route(node, ack_message(node, node.node_id), transit_kind=KIND.ACK_TRANSIT)
        assert recorder.seen[-1][1] == KIND.ACK

    on_fabric(fabric_class, check)


@pytest.mark.parametrize("fabric_class", list(SIM_FABRICS), ids=lambda cls: cls.__name__)
def test_routed_delivery_resets_the_transit_kind(fabric_class):
    # a multi-hop route travels under the transit kind after its first
    # hop; each app still sees the base kind at delivery
    system = make_system(SIM_FABRICS[fabric_class], n=16)
    recorders = {}
    for app in system.all_apps:
        recorders[app.node_id] = Recorder()
        system.transport.register_app(app.node, recorders[app.node_id])
    src = system.all_apps[0].node
    for app in system.all_apps[1:]:
        system.transport.route(src, ack_message(src, app.node_id), transit_kind=KIND.ACK_TRANSIT)
    system.run(1_000.0)
    kinds = {kind for rec in recorders.values() for _, kind, _ in rec.seen}
    assert kinds == {KIND.ACK}
    assert sum(len(rec.seen) for rec in recorders.values()) == len(system.all_apps) - 1
    transit = system.transport.stats.sends_by_kind.get(KIND.ACK_TRANSIT, 0)
    if fabric_class is DhtOverlay:
        assert transit > 0
    else:
        assert transit == 0


# ---------------------------------------------------------------------
# schema pin: protocol --json vs the wire codec table
# ---------------------------------------------------------------------
def test_protocol_dump_matches_wire_codec_table():
    rows = {row["payload"]: row for row in protocol_registry_dump()}
    table = wire.codec_table()
    assert set(rows) == set(table)
    for tag, entry in table.items():
        assert rows[tag]["kind"] == entry.kind
        assert tuple(rows[tag]["fields"]) == entry.fields
        assert tuple(rows[tag]["codecs"]) == entry.codecs
        assert len(entry.codecs) == len(entry.fields)
    # the binary layout itself: changing one of these is a WIRE_VERSION bump
    assert rows["MbrPublish"]["codecs"] == ["mbr", "i64", "i64", "i64", "f64", "i64"]
    assert rows["SimilarityReport"]["codecs"] == [
        "i64", "i64", "dict[i64,list[tuple[str,f64]]]", "dict[str,f64]", "i64"
    ]
    assert rows["LocateRequest"]["codecs"][0] == (
        "InnerProductQuery(str,ndarray,ndarray,f64,i64)"
    )
    assert rows["Ack"]["codecs"] == ["i64", "i64", "str"]


def test_protocol_json_cli_is_machine_readable(capsys):
    assert main(["protocol", "--json"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["wire_version"] == wire.WIRE_VERSION
    assert {row["payload"] for row in dump["payloads"]} == {
        cls.__name__ for cls in wire.codec_table().values() for cls in [cls.cls]
    }
