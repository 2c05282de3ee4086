"""Unit tests for the deterministic fault-injection layer."""

import pytest

from repro.sim import FaultInjector, Message, Network, RngRegistry, Simulator
from repro.sim.faults import DROP_DEAD_DEST, DROP_LOSS


def rng(seed=0):
    return RngRegistry(seed).get("faults")


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
def test_injector_validation():
    with pytest.raises(ValueError):
        FaultInjector(1.0, 0.0, rng())
    with pytest.raises(ValueError):
        FaultInjector(0.0, -0.1, rng())


def test_judge_global_loss_statistics():
    inj = FaultInjector(0.3, 0.0, rng())
    dropped = sum(inj.judge() == 0 for _ in range(2000))
    assert 450 <= dropped <= 750  # ~600 expected


def test_judge_duplicates_surviving_hops():
    inj = FaultInjector(0.0, 0.5, rng())
    copies = [inj.judge() for _ in range(400)]
    assert 0 not in copies
    assert 120 <= copies.count(2) <= 280


def test_judge_deterministic_under_same_seed():
    a = FaultInjector(0.2, 0.1, rng(7))
    b = FaultInjector(0.2, 0.1, rng(7))
    va = [a.judge() for _ in range(300)]
    assert va == [b.judge() for _ in range(300)]
    assert {0, 1, 2} <= set(va)


def test_judge_draw_order():
    # one draw for loss, then (for a survivor) one for duplication
    loss, dup = 0.2, 0.3
    inj = FaultInjector(loss, dup, rng(5))
    ref = rng(5)
    for _ in range(200):
        expect = 0
        if ref.random() >= loss:
            expect = 2 if ref.random() < dup else 1
        assert inj.judge() == expect


# ----------------------------------------------------------------------
# network integration
# ----------------------------------------------------------------------
def test_network_counts_injected_drops():
    sim = Simulator()
    net = Network(sim, injector=FaultInjector(0.999, 0.0, rng()))
    got = []
    msg = Message(kind="mbr", payload=None, origin=1, dest_key=0)
    net.hop(1, 2, msg, got.append)
    sim.run()
    assert got == []
    assert net.stats.drops_per_kind[("mbr", DROP_LOSS)] == 1
    assert net.stats.total_drops() == 1
    assert net.stats.drops_by_reason() == {DROP_LOSS: 1}
    # the send still happened; the loss was in flight
    assert net.stats.sends_by_kind["mbr"] == 1


def test_network_delivers_duplicate_copies():
    sim = Simulator()
    net = Network(sim, injector=FaultInjector(0.0, 0.999, rng()))
    got = []
    msg = Message(kind="q", payload="p", origin=0, dest_key=0)
    net.hop(0, 1, msg, got.append)
    sim.run()
    assert len(got) == 2
    assert got[0] is not got[1]  # independent copies
    assert all(m.payload == "p" for m in got)
    assert net.stats.duplicates_by_kind["q"] == 1


def test_constant_delay_is_constant():
    # primary and duplicate copies both take exactly the hop delay
    sim = Simulator()
    net = Network(sim, hop_delay_ms=25.0, injector=FaultInjector(0.0, 0.999, rng()))
    arrivals = []
    for i in range(5):
        msg = Message(kind="m", payload=i, origin=0, dest_key=0)
        net.hop(0, 1, msg, lambda m: arrivals.append(sim.now))
    sim.run()
    assert arrivals == [25.0] * 10


def test_default_delay_used_without_model():
    sim = Simulator()
    net = Network(sim, hop_delay_ms=12.0, injector=FaultInjector(0.5, 0.5, rng()))
    arrivals = []
    for i in range(50):
        msg = Message(kind="m", payload=i, origin=0, dest_key=0)
        net.hop(0, 1, msg, lambda m: arrivals.append(sim.now))
    sim.run()
    assert arrivals and set(arrivals) == {12.0}


def test_network_drops_at_dead_destination():
    sim = Simulator()
    net = Network(sim, liveness=lambda node: node != 2)
    got = []
    msg = Message(kind="mbr", payload=None, origin=1, dest_key=0)
    net.hop(1, 2, msg, got.append)
    net.hop(1, 3, msg.derive("mbr"), got.append)
    sim.run()
    assert len(got) == 1
    assert net.stats.drops_per_kind[("mbr", DROP_DEAD_DEST)] == 1


def test_network_faulty_runs_reproducible():
    def run(seed):
        sim = Simulator()
        net = Network(sim, injector=FaultInjector(0.2, 0.2, RngRegistry(seed).get("f")))
        arrivals = []
        for i in range(60):
            msg = Message(kind="m", payload=i, origin=0, dest_key=0)
            net.hop(0, 1, msg, lambda m: arrivals.append((sim.now, m.payload)))
        sim.run()
        return arrivals, dict(net.stats.drops_per_kind), dict(net.stats.duplicates_by_kind)

    assert run(3) == run(3)
    assert run(3) != run(4)
