"""Tests for the DHT overlay send/deliver interface and its accounting."""

from repro.chord import ChordNode, ChordRing, DhtOverlay
from repro.sim import Message, Network, Simulator


class RecordingApp:
    """Test double capturing deliver() upcalls."""

    def __init__(self, name):
        self.name = name
        self.delivered = []

    def deliver(self, node, message):
        self.delivered.append((node.node_id, message.kind, message.payload))


def make_overlay(node_ids=(1, 8, 11, 14, 20, 23), m=5):
    sim = Simulator()
    net = Network(sim)
    ring = ChordRing(m=m)
    apps = {}
    for nid in node_ids:
        node = ChordNode(f"n{nid}", nid, ring.space)
        ring.add(node)
    ring.build()
    overlay = DhtOverlay(ring, net)
    for nid in node_ids:
        app = RecordingApp(f"n{nid}")
        apps[nid] = app
        overlay.register_app(ring.node(nid), app)
    return sim, net, ring, overlay, apps


def test_route_delivers_to_key_owner():
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="mbr", payload="hello", origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="mbr_transit")
    sim.run()
    assert apps[1].delivered == [(1, "mbr", "hello")]


def test_route_hop_accounting_first_vs_transit():
    """Path N8 -> N20 -> N23 -> N1: one 'mbr' send, two 'mbr_transit' sends."""
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="mbr", payload=None, origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="mbr_transit")
    sim.run()
    assert net.stats.sends_by_kind["mbr"] == 1
    assert net.stats.sends_by_kind["mbr_transit"] == 2
    assert net.stats.sends[(8, "mbr")] == 1
    assert net.stats.sends[(20, "mbr_transit")] == 1
    assert net.stats.sends[(23, "mbr_transit")] == 1


def test_route_records_hops_under_base_kind():
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="mbr", payload=None, origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="mbr_transit")
    sim.run()
    assert net.stats.mean_hops("mbr") == 3.0
    assert net.stats.mean_latency("mbr") == 150.0


def test_route_local_delivery_is_free():
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="mbr", payload="own", origin=14, dest_key=13)
    overlay.route(ring.node(14), msg, transit_kind="mbr_transit")
    sim.run()
    assert apps[14].delivered == [(14, "mbr", "own")]
    assert sum(net.stats.sends.values()) == 0
    assert net.stats.mean_hops("mbr") == 0.0


def test_on_delivered_callback():
    sim, net, ring, overlay, apps = make_overlay()
    seen = []
    msg = Message(kind="query", payload=None, origin=8, dest_key=13)
    overlay.route(
        ring.node(8),
        msg,
        transit_kind="query_transit",
        on_delivered=lambda node, m: seen.append(node.node_id),
    )
    sim.run()
    assert seen == [14]


def test_send_direct_single_hop():
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="response", payload="r", origin=20, dest_key=8)
    overlay.send_direct(ring.node(20), ring.node(8), msg)
    sim.run()
    assert apps[8].delivered == [(8, "response", "r")]
    assert net.stats.sends_by_kind["response"] == 1
    assert net.stats.mean_hops("response") == 1.0


def test_send_direct_to_self_is_free():
    sim, net, ring, overlay, apps = make_overlay()
    msg = Message(kind="x", payload=None, origin=8, dest_key=8)
    overlay.send_direct(ring.node(8), ring.node(8), msg)
    sim.run()
    assert apps[8].delivered == [(8, "x", None)]
    assert sum(net.stats.sends.values()) == 0


def test_send_to_successor_and_predecessor():
    sim, net, ring, overlay, apps = make_overlay()
    msg1 = Message(kind="span", payload=1, origin=8, dest_key=0)
    assert overlay.send_to_successor(ring.node(8), msg1)
    msg2 = Message(kind="span", payload=2, origin=8, dest_key=0)
    assert overlay.send_to_predecessor(ring.node(8), msg2)
    sim.run()
    assert apps[11].delivered == [(11, "span", 1)]
    assert apps[1].delivered == [(1, "span", 2)]


def test_message_to_dead_node_is_dropped():
    sim, net, ring, overlay, apps = make_overlay()
    target = ring.node(1)
    msg = Message(kind="mbr", payload=None, origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="mbr_transit")
    # N1 dies while the message is in flight
    sim.run(until=100.0)
    target.alive = False
    sim.run()
    assert apps[1].delivered == []


def test_unregister_app():
    sim, net, ring, overlay, apps = make_overlay()
    overlay.unregister_app(ring.node(1))
    msg = Message(kind="mbr", payload=None, origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="mbr_transit")
    sim.run()
    assert apps[1].delivered == []  # no handler, silently dropped


def test_born_timestamp_set_on_first_send():
    sim, net, ring, overlay, apps = make_overlay()
    sim.schedule(500.0, lambda: None)
    sim.run()
    msg = Message(kind="mbr", payload=None, origin=8, dest_key=26)
    overlay.route(ring.node(8), msg, transit_kind="t")
    sim.run()
    assert msg.born == 500.0
