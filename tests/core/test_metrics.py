"""Unit tests for the figure-metric translation layer."""

import pytest

from repro.core import KIND, FigureMetrics
from repro.core.metrics import HOP_COMPONENTS, LOAD_COMPONENTS, OVERHEAD_COMPONENTS
from repro.sim import Message, MessageStats


def stats_with(sends=(), originations=(), deliveries=()):
    s = MessageStats()
    for node, kind, count in sends:
        for _ in range(count):
            s.record_send(node, kind)
    for kind, count in originations:
        for _ in range(count):
            s.record_origination(kind)
    for kind, hops, when in deliveries:
        m = Message(kind=kind, payload=None, origin=0, dest_key=0, hops=hops, born=0.0)
        s.record_delivery(m, when)
    return s


def test_component_maps_cover_all_protocol_kinds():
    load_kinds = {k for kinds in LOAD_COMPONENTS.values() for k in kinds}
    # every figure-relevant kind appears exactly once in the load map
    for kind in (
        KIND.MBR,
        KIND.MBR_SPAN,
        KIND.MBR_TRANSIT,
        KIND.QUERY,
        KIND.QUERY_SPAN,
        KIND.QUERY_TRANSIT,
        KIND.RESPONSE,
        KIND.RESPONSE_TRANSIT,
        KIND.NEIGHBOR_INFO,
    ):
        assert kind in load_kinds
    assert len(LOAD_COMPONENTS) == 7  # Fig. 6(a)'s seven components
    assert len(OVERHEAD_COMPONENTS) == 6  # Fig. 7's six series
    assert len(HOP_COMPONENTS) == 5  # Fig. 8's five series


def test_load_components_per_node_per_second():
    s = stats_with(sends=[(1, KIND.MBR, 40), (2, KIND.MBR_TRANSIT, 20)])
    m = FigureMetrics(stats=s, n_nodes=4, duration_ms=10_000.0)
    load = m.load_components()
    assert load["MBRs"] == 40 / 4 / 10.0
    assert load["MBRs in transit"] == 20 / 4 / 10.0
    assert load["Queries"] == 0.0


def test_load_requires_positive_duration():
    m = FigureMetrics(stats=MessageStats(), n_nodes=4, duration_ms=0.0)
    with pytest.raises(ValueError):
        m.load_components()


def test_queries_component_groups_three_kinds():
    s = stats_with(
        sends=[(0, KIND.QUERY, 2), (0, KIND.QUERY_SPAN, 4), (1, KIND.QUERY_TRANSIT, 6)]
    )
    m = FigureMetrics(stats=s, n_nodes=2, duration_ms=1_000.0)
    assert m.load_components()["Queries"] == 12 / 2 / 1.0


def test_overhead_per_origination():
    s = stats_with(
        sends=[(0, KIND.MBR_SPAN, 30), (0, KIND.MBR_TRANSIT, 50)],
        originations=[(KIND.MBR, 10)],
    )
    m = FigureMetrics(stats=s, n_nodes=5, duration_ms=1_000.0)
    over = m.overhead_components()
    assert over["MBR messages"] == 3.0
    assert over["MBR messages in transit"] == 5.0


def test_overhead_zero_when_no_events():
    m = FigureMetrics(stats=MessageStats(), n_nodes=5, duration_ms=1_000.0)
    assert all(v == 0.0 for v in m.overhead_components().values())


def test_hop_components():
    s = stats_with(
        deliveries=[(KIND.MBR, 3, 150.0), (KIND.MBR, 5, 250.0), (KIND.QUERY, 2, 100.0)]
    )
    m = FigureMetrics(stats=s, n_nodes=5, duration_ms=1_000.0)
    hops = m.hop_components()
    assert hops["MBR messages"] == 4.0
    assert hops["Query messages"] == 2.0
    assert hops["Response messages"] == 0.0


def test_load_distribution_sorted_per_second():
    s = MessageStats()
    for _ in range(10):
        s.record_send(1, KIND.MBR)
    for _ in range(4):
        s.record_receive(2, KIND.MBR)
    m = FigureMetrics(stats=s, n_nodes=2, duration_ms=2_000.0)
    dist = m.load_distribution()
    assert dist.tolist() == [2.0, 5.0]
