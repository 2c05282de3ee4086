"""Tests for acknowledged delivery, retransmission, and receive-side dedup.

Covers the :class:`~repro.core.reliable.ReliableSender` state machine in
isolation (fake app around a real simulator) and the middleware's
delivery-id deduplication end-to-end: replaying an identical
``MbrPublish`` / ``SimilarityReport`` / ``ResponsePush`` must leave
index contents and match counts unchanged.
"""

from types import SimpleNamespace

import numpy as np

from repro.core import KIND, MBR, MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core import reliable
from repro.core.protocol import (
    MbrPublish,
    ResponsePush,
    SimilarityReport,
    SimilaritySubscribe,
    next_delivery_id,
)
from repro.core.reliable import ReliableSender
from repro.sim import Message, MessageStats, RngRegistry, Simulator


# ----------------------------------------------------------------------
# sender state machine (fake app, real simulator)
# ----------------------------------------------------------------------
class _FakeTransport:
    def __init__(self, sim, network):
        self._sim = sim
        self._network = network

    @property
    def now(self):
        return self._sim.now

    def schedule(self, delay_ms, fn, *args):
        return self._sim.schedule(delay_ms, fn, *args)

    @property
    def stats(self):
        return self._network.stats


def make_sender(monkeypatch, reliable_delivery=True, **timing):
    """A sender with timeout 100 ms, backoff 2, 3 retries and no jitter.

    ``timing`` overrides those module constants by name.
    """
    timing = {"ACK_TIMEOUT_MS": 100.0, "RETRY_MAX": 3, "RETRY_JITTER_MS": 0.0, **timing}
    for name, value in timing.items():
        monkeypatch.setattr(reliable, name, value)
    cfg = MiddlewareConfig(reliable_delivery=reliable_delivery)
    sim = Simulator()
    network = SimpleNamespace(stats=MessageStats())
    system = SimpleNamespace(
        sim=sim,
        network=network,
        rngs=RngRegistry(0),
    )
    # the sender talks to the app through the Transport seam only: a
    # clock, a timer wheel and the live stats object (a property, so
    # the reset_stats epoch swap stays observable through the seam)
    transport = _FakeTransport(sim, network)
    app = SimpleNamespace(
        cfg=cfg,
        system=system,
        transport=transport,
        node=SimpleNamespace(alive=True),
        node_id=5,
    )
    return sim, app, ReliableSender(app)


def test_track_noop_when_reliability_off(monkeypatch):
    sim, app, sender = make_sender(monkeypatch, reliable_delivery=False)
    sender.track(SimpleNamespace(delivery_id=1), "mbr", lambda: None)
    assert sender.pending_count == 0
    assert sum(app.system.network.stats.reliable_sends.values()) == 0


def test_track_noop_without_delivery_id(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    sender.track(SimpleNamespace(delivery_id=-1), "mbr", lambda: None)
    sender.track(object(), "mbr", lambda: None)  # no attribute at all
    assert sender.pending_count == 0


def test_ack_cancels_retransmission(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    resends = []
    sender.track(SimpleNamespace(delivery_id=1), "mbr", lambda: resends.append(sim.now))
    sim.schedule(50.0, sender.on_ack, 1)
    sim.run()
    assert resends == []
    assert sender.pending_count == 0
    stats = app.system.network.stats
    assert stats.reliable_sends["mbr"] == 1
    assert stats.reliable_acked["mbr"] == 1
    assert stats.delivery_ratio("mbr") == 1.0


def test_retransmits_with_exponential_backoff_then_dead_letters(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)  # timeout 100, backoff 2, max 3
    resends, gave_up = [], []
    sender.track(
        SimpleNamespace(delivery_id=1),
        "query",
        lambda: resends.append(sim.now),
        on_give_up=lambda: gave_up.append(sim.now),
    )
    sim.run()
    # timeouts at 100, then 100+200, then 300+400; give-up at 700+800
    assert resends == [100.0, 300.0, 700.0]
    assert gave_up == [1500.0]
    stats = app.system.network.stats
    assert stats.retransmissions["query"] == 3
    assert stats.dead_letters["query"] == 1
    assert sender.pending_count == 0
    assert stats.delivery_ratio("query") == 0.0


def test_settle_by_reply_equivalent_to_ack(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    sender.track(SimpleNamespace(delivery_id=9), "query", lambda: None)
    sender.settle(9)
    sim.run()
    assert app.system.network.stats.reliable_acked["query"] == 1
    assert sender.pending_count == 0


def test_duplicate_ack_counted_once(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    sender.track(SimpleNamespace(delivery_id=2), "mbr", lambda: None)
    sender.on_ack(2)
    sender.on_ack(2)  # retransmitted ack of an already-settled exchange
    sender.on_ack(99)  # ack for something never tracked
    assert app.system.network.stats.reliable_acked["mbr"] == 1


def test_dead_sender_cancels_pending_without_dead_letter(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    resends = []
    sender.track(SimpleNamespace(delivery_id=3), "mbr", lambda: resends.append(sim.now))
    app.node.alive = False
    sim.run()
    assert resends == []
    stats = app.system.network.stats
    assert stats.dead_letters["mbr"] == 0
    assert stats.reliable_cancelled["mbr"] == 1
    assert sender.pending_count == 0
    # cancelled sends don't depress the eventual-delivery view
    assert stats.eventual_delivery_ratio() == 1.0


def test_jitter_spreads_timeouts_deterministically(monkeypatch):
    def run():
        sim, app, sender = make_sender(monkeypatch, RETRY_JITTER_MS=40.0, RETRY_MAX=1)
        resends = []
        sender.track(
            SimpleNamespace(delivery_id=1), "mbr", lambda: resends.append(sim.now)
        )
        sim.run()
        return resends

    first, second = run(), run()
    assert first == second  # same RNG substream -> identical schedule
    assert 100.0 <= first[0] <= 140.0


def test_stats_epoch_pinned_across_reset(monkeypatch):
    sim, app, sender = make_sender(monkeypatch)
    warmup_stats = app.system.network.stats
    sender.track(SimpleNamespace(delivery_id=1), "mbr", lambda: None)
    # the measured interval starts: stats are swapped out (reset_stats)
    measured_stats = MessageStats()
    app.system.network.stats = measured_stats
    sender.on_ack(1)
    # the whole exchange stays in the warmup epoch ...
    assert warmup_stats.reliable_sends["mbr"] == 1
    assert warmup_stats.reliable_acked["mbr"] == 1
    # ... and never skews the measured epoch's ratio
    assert sum(measured_stats.reliable_acked.values()) == 0
    assert measured_stats.delivery_ratio() == 1.0


# ----------------------------------------------------------------------
# receive-side dedup: replaying a delivery must be a no-op.  Dedup
# bookkeeping only runs when the config has a mechanism that can replay
# a delivery at all (MiddlewareConfig.duplicates_possible), so these
# systems turn duplicate injection on.
# ----------------------------------------------------------------------
def small_system(n=8, seed=0, **cfg_kw):
    cfg_kw.setdefault("duplicate_rate", 0.01)
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


def test_replayed_mbr_publish_is_idempotent():
    system = small_system()
    app = system.app(0)
    mbr = MBR.of_point(np.array([0.5, 0.5]), stream_id="sX")
    payload = MbrPublish(
        mbr=mbr,
        source_id=system.app(1).node_id,
        low_key=app.node_id,
        high_key=app.node_id,
        lifespan_ms=10_000.0,
        delivery_id=next_delivery_id(),
    )

    def msg():
        return Message(
            kind=KIND.MBR,
            payload=payload,
            origin=system.app(1).node_id,
            dest_key=app.node_id,
        )

    app.deliver(app.node, msg())
    assert app.index.mbr_count() == 1
    app.deliver(app.node, msg())  # retransmit / injected duplicate
    assert app.index.mbr_count() == 1  # NOT double-stored
    assert system.network.stats.duplicates_suppressed[KIND.MBR] == 1

    # a genuinely new publication (fresh delivery id) still lands
    fresh = MbrPublish(
        mbr=mbr,
        source_id=system.app(1).node_id,
        low_key=app.node_id,
        high_key=app.node_id,
        lifespan_ms=10_000.0,
        delivery_id=next_delivery_id(),
    )
    app.deliver(
        app.node,
        Message(
            kind=KIND.MBR,
            payload=fresh,
            origin=system.app(1).node_id,
            dest_key=app.node_id,
        ),
    )
    assert app.index.mbr_count() == 2


def test_replayed_similarity_report_is_idempotent():
    system = small_system()
    app = system.app(0)
    client = system.app(2)
    sub = SimilaritySubscribe(
        query_id=77,
        client_id=client.node_id,
        feature=np.zeros(2),
        radius=0.5,
        low_key=app.node_id,
        high_key=app.node_id,
        middle_key=app.node_id,
        lifespan_ms=10_000.0,
        delivery_id=next_delivery_id(),
    )
    app.deliver(
        app.node,
        Message(
            kind=KIND.QUERY, payload=sub, origin=client.node_id, dest_key=app.node_id
        ),
    )
    agg = app.aggregator.aggregators[77]

    report = SimilarityReport(
        reporter_id=system.app(3).node_id,
        middle_key=app.node_id,
        matches={77: [("sA", 0.1), ("sB", 0.2)]},
        delivery_id=next_delivery_id(),
    )

    def msg():
        return Message(
            kind=KIND.NEIGHBOR_INFO,
            payload=report,
            origin=system.app(3).node_id,
            dest_key=app.node_id,
        )

    app.deliver(app.node, msg())
    assert sorted(agg.pending) == [("sA", 0.1), ("sB", 0.2)]
    app.deliver(app.node, msg())
    assert sorted(agg.pending) == [("sA", 0.1), ("sB", 0.2)]  # unchanged
    assert agg.seen == {"sA", "sB"}
    assert system.network.stats.duplicates_suppressed[KIND.NEIGHBOR_INFO] == 1


def test_replayed_response_push_is_idempotent():
    system = small_system()
    client = system.app(0)
    push = ResponsePush(
        client_id=client.node_id,
        query_id=9,
        similarity=[("sA", 0.2)],
        delivery_id=next_delivery_id(),
    )

    def msg():
        return Message(
            kind=KIND.RESPONSE,
            payload=push,
            origin=system.app(5).node_id,
            dest_key=client.node_id,
        )

    client.deliver(client.node, msg())
    assert len(client.similarity_results[9]) == 1
    client.deliver(client.node, msg())
    assert len(client.similarity_results[9]) == 1  # no duplicate match
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 1


def test_replay_suppression_works_with_reliability_off():
    """Dedup does not need acks/retries: whenever the network can
    inject a duplicate, the duplicate must not double-apply state."""
    system = small_system()
    assert not system.config.reliable_delivery
    assert system.config.duplicates_possible
    client = system.app(0)
    push = ResponsePush(
        client_id=client.node_id,
        query_id=4,
        similarity=[("sZ", 0.1)],
        delivery_id=next_delivery_id(),
    )
    for _ in range(3):
        client.deliver(
            client.node,
            Message(
                kind=KIND.RESPONSE,
                payload=push,
                origin=system.app(1).node_id,
                dest_key=client.node_id,
            ),
        )
    assert len(client.similarity_results[4]) == 1
    assert system.network.stats.duplicates_suppressed[KIND.RESPONSE] == 2


def test_duplicate_delivery_is_reacked():
    """A retransmit means the first ack may have been lost: the receiver
    must ack again, not just suppress."""
    system = small_system(reliable_delivery=True)
    app = system.app(0)
    sender_app = system.app(1)
    mbr = MBR.of_point(np.array([0.25, 0.25]), stream_id="sY")
    payload = MbrPublish(
        mbr=mbr,
        source_id=sender_app.node_id,
        low_key=app.node_id,
        high_key=app.node_id,
        lifespan_ms=5_000.0,
        delivery_id=next_delivery_id(),
    )

    def deliver_once():
        app.deliver(
            app.node,
            Message(
                kind=KIND.MBR,
                payload=payload,
                origin=sender_app.node_id,
                dest_key=app.node_id,
            ),
        )

    deliver_once()
    deliver_once()
    system.run(2_000.0)
    # two deliveries -> two acks routed back to the sender
    assert system.network.stats.sends_by_kind[KIND.ACK] >= 2


def test_dedup_tracking_is_skipped_when_duplicates_impossible():
    """With no loss/dup/retry/vnode/replica mechanism, the seen-set can
    never hit, so it is not maintained at all (scale memory: §11)."""
    system = small_system(duplicate_rate=0.0)
    assert not system.config.duplicates_possible
    app = system.app(0)
    mbr = MBR.of_point(np.array([0.5, 0.5]), stream_id="sY")
    payload = MbrPublish(
        mbr=mbr,
        source_id=system.app(1).node_id,
        low_key=app.node_id,
        high_key=app.node_id,
        lifespan_ms=10_000.0,
        delivery_id=next_delivery_id(),
    )
    app.deliver(
        app.node,
        Message(
            kind=KIND.MBR,
            payload=payload,
            origin=system.app(1).node_id,
            dest_key=app.node_id,
        ),
    )
    assert app.index.mbr_count() == 1
    assert len(app._seen_deliveries) == 0
