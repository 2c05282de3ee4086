"""Admission control (DESIGN.md §13): token buckets, shed, backpressure.

The contract under test: an overloaded holder sheds MBR publishes and
advises the source to slow down; the source queues and re-offers the
shed summary before its soft-state lifespan expires, so the *eventual*
delivery ratio of the reliable layer stays 1.0 — load shedding trades
freshness for stability, never correctness.  With the feature disabled
(the default) every path is inert.
"""

import pytest

from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core import admission
from repro.core.admission import AdmissionController, TokenBucket


def cfg(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=2,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=100.0,
            bspan_ms=8_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_starts_full_and_drains():
    bucket = TokenBucket(rate_per_s=10.0, burst=3)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(0.0)  # burst exhausted


def test_token_bucket_refills_at_rate():
    bucket = TokenBucket(rate_per_s=10.0, burst=1)
    assert bucket.try_take(0.0)
    assert not bucket.try_take(50.0)  # half a token accrued
    assert bucket.try_take(100.0)  # one full token at 100 ms


def test_token_bucket_caps_at_burst():
    bucket = TokenBucket(rate_per_s=10.0, burst=2)
    assert bucket.try_take(0.0)
    assert bucket.try_take(0.0)
    # a long idle period accrues at most `burst` tokens
    assert bucket.try_take(60_000.0)
    assert bucket.try_take(60_000.0)
    assert not bucket.try_take(60_000.0)


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=0.0, burst=1)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_s=1.0, burst=0)


# ----------------------------------------------------------------------
# AdmissionController
# ----------------------------------------------------------------------
def test_disabled_controller_admits_everything():
    ctl = AdmissionController(rate_per_s=1.0, enabled=False)
    assert all(ctl.admit(float(t)) for t in range(100))


def test_enabled_controller_enforces_rate(monkeypatch):
    monkeypatch.setattr(admission, "ADMISSION_BURST", 2.0)
    ctl = AdmissionController(rate_per_s=2.0, enabled=True)
    admitted = sum(1 for t in range(100) if ctl.admit(t * 100.0))
    # 10 s at 2/s plus the initial burst of 2
    assert admitted <= 2 + 2 * 10
    assert admitted >= 10


def test_should_advise_rate_limits_per_source():
    ctl = AdmissionController(rate_per_s=10.0, enabled=True)
    assert ctl.should_advise("src-a", 0.0)
    assert not ctl.should_advise("src-a", 1.0)  # advised just now
    assert ctl.should_advise("src-b", 1.0)  # independent per source
    assert ctl.should_advise("src-a", ctl.advise_interval_ms + 1.0)


# ----------------------------------------------------------------------
# end to end: sources slow down, nothing is lost
# ----------------------------------------------------------------------
def overload_system(**kw):
    system = StreamIndexSystem(6, cfg(**kw), seed=3)
    # every node sources one fast stream: far above 2 publishes/s/holder
    for i, app in enumerate(system.all_apps):
        system.attach_stream(app, f"s{i}", lambda: 1.0, period_ms=100.0)
    system.warmup()
    system.reset_stats()
    system.run(12_000.0)
    return system


def test_admission_sheds_and_throttles_sources(monkeypatch):
    monkeypatch.setattr(admission, "ADMISSION_BURST", 2.0)
    system = overload_system(admission_control=True, admission_rate_per_s=2.0)
    stats = system.network.stats
    assert sum(stats.publishes_shed.values()) > 0
    assert sum(stats.backpressure_signals.values()) > 0
    assert sum(stats.source_throttles.values()) > 0
    # sources queued and re-offered every shed publish: nothing reliable
    # was abandoned, so the settled delivery ratio holds at 1.0
    system.run(5_000.0)  # let the tail of the retry schedule settle
    assert system.eventual_delivery_ratio() == 1.0


def test_admission_slows_publish_rate_at_the_holder(monkeypatch):
    monkeypatch.setattr(admission, "ADMISSION_BURST", 2.0)
    throttled = overload_system(admission_control=True, admission_rate_per_s=2.0)
    free = overload_system()
    from repro.core.protocol import KIND

    def mbr_receives(system):
        return sum(
            count
            for (_node, kind), count in system.network.stats.receives.items()
            if kind == KIND.MBR
        )

    # the admitted publish volume drops against the uncontrolled run
    assert mbr_receives(throttled) < mbr_receives(free)


def test_admission_disabled_is_inert():
    system = overload_system()  # defaults: admission_control=False
    stats = system.network.stats
    assert sum(stats.publishes_shed.values()) == 0
    assert sum(stats.backpressure_signals.values()) == 0
    assert sum(stats.source_throttles.values()) == 0
