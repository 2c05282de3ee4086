"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator
from repro.sim.rng import RngRegistry


def test_initial_state():
    sim = Simulator()
    assert sim.now == 0.0
    assert sim.events_processed == 0
    assert sim.pending_events == 0


def test_single_event_fires_at_scheduled_time():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10.0]
    assert sim.now == 10.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30.0, lambda: order.append("c"))
    sim.schedule(10.0, lambda: order.append("a"))
    sim.schedule(20.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.schedule(5.0, lambda i=i: order.append(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_schedule_with_args():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, 42)
    sim.run()
    assert out == [42]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    h = sim.schedule(10.0, lambda: fired.append(1))
    h.cancel()
    sim.run()
    assert fired == []
    assert not h.pending


def test_cancel_is_idempotent():
    sim = Simulator()
    h = sim.schedule(10.0, lambda: None)
    h.cancel()
    h.cancel()
    sim.run()


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, lambda: fired.append("a"))
    sim.schedule(50.0, lambda: fired.append("b"))
    sim.run(until=25.0)
    assert fired == ["a"]
    assert sim.now == 25.0
    sim.run(until=100.0)
    assert fired == ["a", "b"]
    assert sim.now == 100.0


def test_events_scheduled_during_run_are_processed():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(sim.now)
        if depth > 0:
            sim.schedule(1.0, chain, depth - 1)

    sim.schedule(0.0, chain, 3)
    sim.run()
    assert fired == [0.0, 1.0, 2.0, 3.0]


def test_max_events_limits_processing():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.schedule(float(i), lambda: count.append(1))
    sim.run(max_events=3)
    assert len(count) == 3


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(2.0, lambda: fired.append("b"))
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_step_skips_cancelled():
    sim = Simulator()
    fired = []
    h = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    h.cancel()
    assert sim.step()
    assert fired == ["y"]


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_fires_now():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    seen = []
    sim.schedule(0.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


@pytest.mark.parametrize("seed", [7, 8])
def test_nested_scheduling_with_cancels_fires_in_time_seq_order(seed):
    """Randomised nested schedules fire in (time, seq) order.

    Callbacks schedule further events (many at equal times), every
    seventh root event is cancelled, and the run is split at t=90 ms;
    the trace must be time-ordered, free of cancelled events and
    identical to an unsplit run.
    """

    def trace(split):
        rng = RngRegistry(seed=seed).get("sched-fuzz")
        sim = Simulator()
        fired = []

        def fire(tag, depth):
            fired.append((sim.now, tag))
            if depth < 3:
                for j in range(int(rng.integers(0, 3))):
                    delay = float(round(rng.uniform(0, 40) * 8) / 8)
                    sim.schedule(delay, fire, f"{tag}.{j}", depth + 1)

        handles = [
            sim.schedule(float(round(rng.uniform(0, 120) * 8) / 8), fire, str(i), 0)
            for i in range(60)
        ]
        for i in range(0, 60, 7):
            handles[i].cancel()
        if split:
            sim.run(until=90.0)
        sim.run()
        return fired

    fired = trace(split=True)
    assert [t for t, _ in fired] == sorted(t for t, _ in fired)
    cancelled = {str(i) for i in range(0, 60, 7)}
    assert not cancelled & {tag.split(".")[0] for _, tag in fired}
    assert fired == trace(split=False)
