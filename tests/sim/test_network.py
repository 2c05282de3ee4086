"""Unit tests for the message network and its accounting."""

from repro.sim import DEFAULT_HOP_DELAY_MS, Message, MessageStats, Network, Simulator


def make_net(hop_delay=50.0):
    sim = Simulator()
    return sim, Network(sim, hop_delay_ms=hop_delay)


def test_hop_delivers_after_delay():
    sim, net = make_net()
    got = []
    msg = Message(kind="mbr", payload="p", origin=1, dest_key=99)
    net.hop(1, 2, msg, lambda m: got.append((sim.now, m.payload)))
    sim.run()
    assert got == [(50.0, "p")]


def test_hop_increments_hop_count():
    sim, net = make_net()
    msg = Message(kind="mbr", payload=None, origin=1, dest_key=0)
    net.hop(1, 2, msg, lambda m: None)
    sim.run()
    assert msg.hops == 1


def test_default_hop_delay_matches_paper():
    assert DEFAULT_HOP_DELAY_MS == 50.0


def test_send_and_receive_counters():
    sim, net = make_net()
    msg = Message(kind="query", payload=None, origin=3, dest_key=0)
    net.hop(3, 7, msg, lambda m: None)
    sim.run()
    assert net.stats.sends[(3, "query")] == 1
    assert net.stats.receives[(7, "query")] == 1
    assert net.stats.sends_by_kind["query"] == 1


def test_multi_hop_accumulates():
    sim, net = make_net()
    msg = Message(kind="mbr", payload=None, origin=1, dest_key=0)
    net.hop(1, 2, msg, lambda m: net.hop(2, 3, m, lambda mm: None))
    sim.run()
    assert msg.hops == 2
    assert sim.now == 100.0


def test_local_delivery_counts_nothing():
    sim, net = make_net()
    got = []
    msg = Message(kind="mbr", payload=None, origin=1, dest_key=0)
    net.local(1, msg, lambda m: got.append(sim.now))
    sim.run()
    assert got == [0.0]
    assert msg.hops == 0
    assert sum(net.stats.sends.values()) == 0


def test_derive_preserves_lineage():
    msg = Message(kind="mbr", payload={"x": 1}, origin=5, dest_key=10, hops=3, born=2.0)
    child = msg.derive("mbr_span", dest_key=11)
    assert child.kind == "mbr_span"
    assert child.payload is msg.payload
    assert child.origin == 5
    assert child.dest_key == 11
    assert child.hops == 3
    assert child.born == 2.0
    assert child.root_id == msg.msg_id
    assert child.msg_id != msg.msg_id


def test_derive_default_dest_key():
    msg = Message(kind="a", payload=None, origin=0, dest_key=42)
    assert msg.derive("b").dest_key == 42


def test_root_id_defaults_to_own_id():
    msg = Message(kind="a", payload=None, origin=0, dest_key=0)
    assert msg.root_id == msg.msg_id


def test_stats_mean_hops_and_latency():
    stats = MessageStats()
    m1 = Message(kind="mbr", payload=None, origin=0, dest_key=0, hops=2, born=0.0)
    m2 = Message(kind="mbr", payload=None, origin=0, dest_key=0, hops=4, born=100.0)
    stats.record_delivery(m1, 100.0)
    stats.record_delivery(m2, 300.0)
    assert stats.mean_hops("mbr") == 3.0
    assert stats.mean_latency("mbr") == 150.0
    assert stats.mean_hops("missing") == 0.0
    assert stats.mean_latency("missing") == 0.0


def test_load_by_node():
    stats = MessageStats()
    stats.record_send(1, "a")
    stats.record_send(1, "b")
    stats.record_receive(1, "a")
    stats.record_receive(2, "a")
    load = stats.load_by_node()
    assert load[1] == 3
    assert load[2] == 1


def test_originations_counter():
    stats = MessageStats()
    stats.record_origination("query")
    stats.record_origination("query")
    assert stats.originations["query"] == 2


def test_delivery_ratio_accounting():
    stats = MessageStats()
    assert stats.delivery_ratio() == 1.0  # nothing sent yet
    for _ in range(4):
        stats.record_reliable_send("mbr")
    for _ in range(3):
        stats.record_reliable_ack("mbr")
    stats.record_reliable_send("query")
    stats.record_reliable_ack("query")
    assert stats.delivery_ratio("mbr") == 0.75
    assert stats.delivery_ratio("query") == 1.0
    assert stats.delivery_ratio() == 0.8
    assert stats.delivery_ratio("never_sent") == 1.0


def test_eventual_delivery_ratio_excludes_unsettled():
    stats = MessageStats()
    assert stats.eventual_delivery_ratio() == 1.0
    for _ in range(10):
        stats.record_reliable_send("mbr")
    for _ in range(6):
        stats.record_reliable_ack("mbr")
    stats.record_reliable_cancelled("mbr")  # sender crashed
    # of 10 attempts: 6 acked, 1 cancelled, 2 still in flight -> 1 failed
    assert stats.eventual_delivery_ratio(in_flight=2) == 6 / 7
    # everything unsettled excluded -> perfect score
    assert stats.eventual_delivery_ratio(in_flight=3) == 1.0
    # degenerate: more exclusions than attempts
    assert stats.eventual_delivery_ratio(in_flight=100) == 1.0


def test_reliability_counters_record():
    stats = MessageStats()
    stats.record_retransmission("mbr")
    stats.record_dead_letter("mbr")
    stats.record_duplicate("query")
    stats.record_duplicate_suppressed("query")
    stats.record_unknown_payload("query")
    assert stats.retransmissions["mbr"] == 1
    assert stats.dead_letters["mbr"] == 1
    assert stats.duplicates_by_kind["query"] == 1
    assert stats.duplicates_suppressed["query"] == 1
    assert stats.unknown_payloads["query"] == 1


def test_custom_hop_delay():
    sim, net = make_net(hop_delay=10.0)
    got = []
    msg = Message(kind="x", payload=None, origin=0, dest_key=0)
    net.hop(0, 1, msg, lambda m: got.append(sim.now))
    sim.run()
    assert got == [10.0]


def test_stats_pickle_round_trip():
    """No unpicklable factories: a populated ledger survives pickling."""
    import pickle

    from repro.bench.export import stats_to_csv_string

    stats = MessageStats()
    stats.record_send(1, "mbr")
    stats.record_receive(2, "mbr")
    stats.record_origination("mbr")
    stats.record_drop("mbr", "loss")
    stats.record_reliable_send("mbr")
    stats.record_reliable_ack("mbr")
    stats.record_handoff_enqueued("handoff")
    stats.record_delivery(
        Message(kind="mbr", payload=None, origin=1, dest_key=7, hops=3, born=10.0),
        now=160.0,
    )
    stats.in_flight_at_reset = 4
    clone = pickle.loads(pickle.dumps(stats))
    assert stats_to_csv_string(clone) == stats_to_csv_string(stats)
    assert clone.hops_by_kind["mbr"] == [3, 1]
    assert clone.latency_by_kind["mbr"] == [150.0, 1]
