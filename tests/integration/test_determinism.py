"""Determinism regression: same seed, byte-identical accounting.

The headline guarantee (DESIGN.md §7) is that a run is a pure function
of (config, seed) — even under loss, duplication and churn.  The test
runs the lossy scenario twice with one seed and compares the *entire*
exported statistics ledger byte for byte; any hidden global RNG,
wall-clock read or hash-order iteration in the hot path would diverge
the counters.
"""

import hashlib
import itertools

import pytest

from repro.bench.export import stats_to_csv_string
from repro.core import MiddlewareConfig, SimilarityQuery, StreamIndexSystem, WorkloadConfig
from repro.core import queries
from repro.workload import ChurnWorkload, QueryWorkload

MEASURE_MS = 8_000.0


@pytest.fixture
def fresh_query_ids(monkeypatch):
    """Number queries from 1, as a fresh process does.

    Query ids come from a process-wide counter and the answer digest
    hashes them, so without this the digest would depend on how many
    queries earlier tests posted.
    """
    monkeypatch.setattr(queries, "_query_ids", itertools.count(1))


def _answer_digest(system) -> str:
    """sha256 over every match every client received, in delivery order.

    The ledger pins count messages; this one also sees *what* was
    answered, including the order of candidates within one report.
    """
    text = "".join(
        f"{a.node_id}:{qid}:{m.stream_id}:{m.distance_bound!r}:{m.reported_by}:{m.time!r};"
        for a in system.all_apps
        for qid, ms in a.similarity_results.items()
        for m in ms
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _run_lossy_once(seed: int) -> str:
    config = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=2,
        reliable_delivery=True,
        refresh_period_ms=2_000.0,
        loss_rate=0.05,
        duplicate_rate=0.01,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=150.0,
            bspan_ms=5_000.0,
            qrate_per_s=0.0,
            nper_ms=500.0,
        ),
    )
    system = StreamIndexSystem(16, config, seed=seed, with_stabilizer=True)
    system.attach_random_walk_streams()
    system.warmup()
    client = system.app(0)
    donor_app = system.app(4)
    donor = next(iter(donor_app.sources.values()))
    churn = ChurnWorkload(
        system,
        fail_rate_per_s=0.2,
        join_rate_per_s=0.2,
        protect=[client.node_id, donor_app.node_id],
    ).start()
    system.reset_stats()
    client.post_similarity_query(
        SimilarityQuery(
            pattern=donor.extractor.window.values(),
            radius=0.4,
            lifespan_ms=MEASURE_MS + 5_000.0,
        )
    )
    system.run(MEASURE_MS)
    churn.stop()
    return stats_to_csv_string(system.network.stats)


def test_lossy_scenario_statistics_are_bit_deterministic():
    first = _run_lossy_once(seed=11)
    second = _run_lossy_once(seed=11)
    assert first == second


def test_different_seeds_diverge():
    # Guards against the export accidentally ignoring the counters: a
    # different seed must actually change the ledger.
    assert _run_lossy_once(seed=11) != _run_lossy_once(seed=12)


#: sha256 of the seed-11 ledger, pinned since the reliability layer
#: landed.  Every optimisation and refactor must leave it unchanged:
#: a different digest means behaviour moved, not just speed.
LOSSY_SEED11_SHA256 = "4cc3e1c4920a6ccf2b348b62ce228de834ee4c598551add3f5905ca0b0f13c63"


def test_lossy_seed11_ledger_matches_pinned_digest():
    """The lossy seed-11 ledger is byte-identical to the recorded pin.

    Loss, duplication and churn make this the harshest scenario in the
    suite: a single reordered event cascades into different drop draws
    and a different digest.
    """
    digest = hashlib.sha256(_run_lossy_once(seed=11).encode()).hexdigest()
    assert digest == LOSSY_SEED11_SHA256


#: sha256 of the loss-free fig6a quick-profile ledger (N=50, batch 1,
#: default query workload, seed 0): the default path's literal pin.
FIG6A_QUICK_SHA256 = "2cc1083e40e9c80f36559c169ee1396d902da6b02137c95c65850efeb34f1378"
#: :func:`_answer_digest` of the same run
FIG6A_QUICK_ANSWERS_SHA256 = "3bee9a32fd0c9d40571515dbc93f99e0cc3c674bc0dd3daf845e48575fb0b7fc"


def test_loss_free_fig6a_ledger_matches_pinned_digest(fresh_query_ids):
    """The loss-free, churn-free default path is byte-identical to its pin.

    The lossy pin above exercises faults and churn; this one guards the
    plain ingest → MBR → Chord routing → query path every figure uses,
    and the answers that path delivers.
    """
    system = StreamIndexSystem(50, MiddlewareConfig(batch_size=1), seed=0)
    system.attach_random_walk_streams()
    QueryWorkload(system).start()
    system.warmup(2_000.0)
    system.reset_stats()
    system.run(4_000.0)
    ledger = stats_to_csv_string(system.network.stats)
    assert hashlib.sha256(ledger.encode()).hexdigest() == FIG6A_QUICK_SHA256
    assert _answer_digest(system) == FIG6A_QUICK_ANSWERS_SHA256


#: ledger and answer digests of the replicated lossy run below (seed 11)
REPLICATED_LEDGER_SHA256 = "b88caf939f60b09e1864e4318d6217f627854290b65d6f935dfe861a65b1ffce"
REPLICATED_ANSWERS_SHA256 = "689c25a5cc3b113ef5a406b24e6a4a365a0b4b1bb9828e101e89ae66b9244712"


def test_replicated_lossy_run_matches_pinned_digests(fresh_query_ids):
    """Replication, loss, churn and a query stream, pinned end to end.

    The only pin whose run matches replica copies against
    subscriptions (about 1,250 replica matcher calls returning some 450
    candidates), so a change to the replica side of the detect step
    shows here even when the ledger does not move.
    """
    config = MiddlewareConfig(
        m=16,
        window_size=16,
        k=2,
        batch_size=2,
        reliable_delivery=True,
        refresh_period_ms=2_000.0,
        loss_rate=0.05,
        duplicate_rate=0.01,
        replication_factor=3,
        query_radius=0.5,
        workload=WorkloadConfig(
            pmin_ms=100.0,
            pmax_ms=150.0,
            bspan_ms=5_000.0,
            qrate_per_s=2.0,
            nper_ms=500.0,
            qmin_ms=3_000.0,
            qmax_ms=6_000.0,
        ),
    )
    system = StreamIndexSystem(16, config, seed=11, with_stabilizer=True)
    system.attach_random_walk_streams()
    QueryWorkload(system).start()
    system.warmup()
    ChurnWorkload(
        system,
        fail_rate_per_s=0.2,
        join_rate_per_s=0.2,
        protect=[system.app(0).node_id],
    ).start()
    system.reset_stats()
    system.run(MEASURE_MS)
    ledger = stats_to_csv_string(system.network.stats)
    assert hashlib.sha256(ledger.encode()).hexdigest() == REPLICATED_LEDGER_SHA256
    assert _answer_digest(system) == REPLICATED_ANSWERS_SHA256
