"""Op counters: install semantics, hot-site behavior, determinism."""

from repro.core.config import MiddlewareConfig
from repro.perf import counters as opc
from repro.perf.counters import OpCounters, counting, install, uninstall
from repro.workload.scenario import run_measured


# ------------------------------------------------------------ mechanics
def test_install_uninstall_lifecycle():
    assert opc.ACTIVE is None
    sink = install()
    assert opc.ACTIVE is sink
    sink.inc("x")
    sink.inc("x", 2)
    assert sink.get("x") == 3
    assert uninstall() is sink
    assert opc.ACTIVE is None


def test_counting_context_restores_previous_sink():
    outer = install()
    with counting() as inner:
        assert opc.ACTIVE is inner
        inner.inc("inner.only")
    assert opc.ACTIVE is outer
    assert outer.get("inner.only") == 0
    uninstall()


def test_snapshot_is_sorted_and_independent():
    c = OpCounters()
    c.inc("z.last")
    c.inc("a.first", 5)
    snap = c.snapshot()
    assert list(snap) == ["a.first", "z.last"]
    c.inc("a.first")
    assert snap["a.first"] == 5


# ------------------------------------------------------------ determinism
def _run_counted():
    with counting() as ops:
        run = run_measured(
            8,
            config=MiddlewareConfig(batch_size=1),
            seed=3,
            warmup_extra_ms=500.0,
            measure_ms=1_500.0,
        )
    return ops.snapshot(), run.system.sim.events_processed


def test_counters_identical_across_runs():
    """Op counts are a pure function of (config, seed): two runs agree."""
    first, events_a = _run_counted()
    second, events_b = _run_counted()
    assert first == second
    assert events_a == events_b
    # the hot sites actually fired
    for name in (
        "sim.scheduled",
        "sim.events",
        "net.hops",
        "route.cache_misses",
        "dispatch.delivered",
    ):
        assert first.get(name, 0) > 0, name


def test_counting_off_means_no_counts():
    """With no sink installed the simulation runs uninstrumented."""
    assert opc.ACTIVE is None
    run_measured(
        5,
        config=MiddlewareConfig(batch_size=1),
        seed=3,
        warmup_extra_ms=500.0,
        measure_ms=500.0,
    )
    assert opc.ACTIVE is None
