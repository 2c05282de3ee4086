"""The epoch-versioned quantile mapper (DESIGN.md §13).

:class:`AdaptiveQuantileMapper` starts as the paper's Eq. 6 linear map;
each refit installs an equi-depth mapping as a new epoch while a bounded
window of older epochs stays resolvable.  No system path refits it, so
a default system keeps the static linear mapper.
"""

import numpy as np
import pytest

from repro.chord import IdSpace
from repro.core import MiddlewareConfig, StreamIndexSystem, WorkloadConfig
from repro.core.mapping import AdaptiveQuantileMapper, LinearKeyMapper


def cfg(**kw):
    defaults = dict(
        m=16,
        window_size=16,
        k=2,
        batch_size=2,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=200.0,
            bspan_ms=8_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    defaults.update(kw)
    return MiddlewareConfig(**defaults)


# ----------------------------------------------------------------------
# AdaptiveQuantileMapper: epochs
# ----------------------------------------------------------------------
def test_epoch_zero_is_the_paper_linear_map():
    space = IdSpace(16)
    adaptive = AdaptiveQuantileMapper(space, bins=8)
    linear = LinearKeyMapper(space)
    assert adaptive.epoch == 0
    for v in np.linspace(-1.0, 1.0, 33):
        assert adaptive.key_of(v) == linear.key_of(v)


def test_refit_bumps_epoch_and_retains_history():
    mapper = AdaptiveQuantileMapper(IdSpace(16), bins=8, history=2)
    before = mapper.mapper_at(0)
    counts = np.zeros(8)
    counts[3] = 100.0  # all mass near the middle
    assert mapper.refit(counts) == 1
    assert mapper.epoch == 1
    assert mapper.mapper_at(0) is before  # old epoch still resolvable
    assert mapper.mapper_at(1) is mapper.current
    # a second refit evicts epoch 0 (history=2 keeps epochs 1 and 2)
    assert mapper.refit(counts) == 2
    assert len(mapper.mappers()) == 2
    # evicted epochs resolve to the oldest retained mapper
    assert mapper.mapper_at(0) is mapper.mapper_at(1)


def test_refit_spreads_concentrated_mass():
    space = IdSpace(16)
    mapper = AdaptiveQuantileMapper(space, bins=64)
    counts = np.zeros(64)
    counts[31] = 10_000.0  # hot band around v ≈ 0
    mapper.refit(counts)
    # under the new epoch, the hot band's image widens: points packed
    # into one linear-map bucket now spread across a large key span
    lo = mapper.key_of(-0.02)
    hi = mapper.key_of(0.02)
    linear_span = LinearKeyMapper(space).key_of(0.02) - LinearKeyMapper(
        space
    ).key_of(-0.02)
    assert hi - lo > 10 * max(1, linear_span)


def test_refit_keeps_monotonicity():
    rng = np.random.default_rng(5)
    mapper = AdaptiveQuantileMapper(IdSpace(16), bins=16)
    mapper.refit(rng.uniform(0.0, 10.0, size=16))
    values = np.linspace(-1.0, 1.0, 101)
    keys = [mapper.key_of(v) for v in values]
    assert keys == sorted(keys)  # no-false-dismissal needs monotone maps


def test_refit_validation():
    mapper = AdaptiveQuantileMapper(IdSpace(16), bins=8)
    with pytest.raises(ValueError):
        mapper.refit(np.zeros(5))  # wrong bin count
    with pytest.raises(ValueError):
        mapper.refit(np.array([-1.0] + [0.0] * 7))  # negative mass


def test_key_of_at_explicit_epoch():
    mapper = AdaptiveQuantileMapper(IdSpace(16), bins=8)
    counts = np.zeros(8)
    counts[0] = 100.0
    mapper.refit(counts)
    linear = LinearKeyMapper(mapper.space)
    # epoch 0 still answers with the linear map; default is the new one
    assert mapper.key_of(0.5, epoch=0) == linear.key_of(0.5)
    assert mapper.key_of(0.5) != linear.key_of(0.5)


def test_adaptive_disabled_keeps_static_linear_mapper():
    system = StreamIndexSystem(4, cfg(), seed=11)
    assert isinstance(system.mapper, LinearKeyMapper)
