"""Unit tests for periodic processes and timers."""

import pytest

from repro.sim import PeriodicProcess, SimulationError, Simulator, Timer


def test_periodic_fires_every_period():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now)).start()
    sim.run(until=45.0)
    assert times == [10.0, 20.0, 30.0, 40.0]


def test_phase_controls_first_tick():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), phase=3.0).start()
    sim.run(until=25.0)
    assert times == [3.0, 13.0, 23.0]


def test_zero_phase_fires_immediately():
    sim = Simulator()
    times = []
    PeriodicProcess(sim, 10.0, lambda: times.append(sim.now), phase=0.0).start()
    sim.run(until=10.0)
    assert times[0] == 0.0


def test_stop_prevents_further_ticks():
    sim = Simulator()
    times = []
    proc = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
    proc.start()
    sim.run(until=25.0)
    proc.stop()
    assert not proc.running
    sim.run(until=100.0)
    assert times == [10.0, 20.0]


def test_stop_from_within_callback():
    sim = Simulator()
    proc = PeriodicProcess(sim, 10.0, lambda: proc.stop())
    proc.start()
    sim.run(until=100.0)
    assert proc.ticks == 1


def test_double_start_is_noop():
    sim = Simulator()
    times = []
    proc = PeriodicProcess(sim, 10.0, lambda: times.append(sim.now))
    proc.start()
    proc.start()
    sim.run(until=15.0)
    assert times == [10.0]


def test_invalid_period_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        PeriodicProcess(sim, 0.0, lambda: None)


def test_jitter_fn_perturbs_period():
    sim = Simulator()
    times = []
    jitters = iter([5.0, -3.0, 0.0])
    proc = PeriodicProcess(
        sim, 10.0, lambda: times.append(sim.now), jitter_fn=lambda: next(jitters)
    )
    proc.start()
    sim.run(until=35.0)
    # ticks at 10, 10+15=25, 25+7=32
    assert times == [10.0, 25.0, 32.0]


def test_tick_counter():
    sim = Simulator()
    proc = PeriodicProcess(sim, 1.0, lambda: None).start()
    sim.run(until=10.5)
    assert proc.ticks == 10


def test_timer_fires_once():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.arm(7.0)
    assert t.pending
    sim.run()
    assert fired == [7.0]
    assert not t.pending


def test_timer_rearm_replaces_previous():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.arm(7.0)
    t.arm(20.0)
    sim.run()
    assert fired == [20.0]


def test_timer_cancel():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(1))
    t.arm(7.0)
    t.cancel()
    sim.run()
    assert fired == []
    assert not t.pending


def test_timer_rearm_after_fire():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.arm(5.0)
    sim.run()
    t.arm(5.0)
    sim.run()
    assert fired == [5.0, 10.0]
