"""Sharded ring simulation: the byte-identity contract in tier 1.

The `repro shard --check` CLI (and the CI `bench-smoke` job) verify the
full profile; these tests pin the same contract on the quick profile so
a regression in the barrier protocol or the deterministic merge fails
the ordinary test run, not just the smoke job.
"""

import pytest

from repro.perf.shards import (
    SCENARIOS,
    ShardEnvelopeError,
    run_scenario_serial,
    run_scenario_sharded,
)


def test_fig6a_sharded_matches_serial_byte_for_byte():
    serial = run_scenario_serial("fig6a", quick=True)
    sharded = run_scenario_sharded("fig6a", quick=True, jobs=2)
    assert sharded.jobs == 2
    assert sum(sharded.events) > 0
    assert sharded.csv == serial.csv
    assert sharded.digest == serial.digest


def test_lossy_scenario_is_forced_serial():
    """Loss breaks the lookahead envelope: jobs collapses to 1."""
    sharded = run_scenario_sharded("lossy_seed11", quick=True, jobs=4)
    assert sharded.jobs == 1
    assert sharded.csv == run_scenario_serial("lossy_seed11", quick=True).csv


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown shard scenario"):
        run_scenario_sharded("nope", quick=True)
    assert "fig6a" in SCENARIOS and "lossy_seed11" in SCENARIOS


def test_envelope_error_is_runtime_error():
    # the CLI maps envelope violations to exit 1 via this type
    assert issubclass(ShardEnvelopeError, RuntimeError)
