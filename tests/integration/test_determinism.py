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
import math
import os
import pathlib
import subprocess
import sys

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
FIG6A_QUICK_ANSWERS_SHA256 = "9896f2015620119ea19c6fc657fbb7cdf443b09ee32bf3594b49669251d8f15a"


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
REPLICATED_ANSWERS_SHA256 = "2ffb87dbca0504164861e5359a0da6ae2f48cc640942d31ac13fd11820956077"


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


def _plateau_stream():
    """A deterministic stream that opens and recurs with constant runs.

    It starts flat for longer than a window plus a box, so the first
    boxes hold rows whose window has zero spread (the z-norm and
    unit-norm zero rows, and all-zero bounds); after that it alternates
    a 150-value plateau with a 250-value wiggle.
    """
    t = itertools.count()

    def next_value() -> float:
        i = next(t)
        phase = i % 400
        if phase < 150:
            return 5.0 + (i // 400)
        return 5.0 + math.sin(0.37 * i) + 0.01 * phase

    return next_value


def _published_mbr_digest(monkeypatch, normalization: str) -> str:
    """sha256 over every MBR every source published, in publish order.

    Each box contributes its stream id, ``count``, ``created`` and the
    bytes of its ``(2, d)`` bounds, so any change to a feature's last
    bit, to box boundaries or to the time a box opened shows here.
    """
    from repro.core.roles.source import SourceService

    published = []
    original = SourceService.publish_mbr

    def record(self, mbr):
        published.append(
            f"{mbr.stream_id}:{mbr.count}:{mbr.created!r}:{mbr.bounds.tobytes().hex()};"
        )
        original(self, mbr)

    monkeypatch.setattr(SourceService, "publish_mbr", record)
    config = MiddlewareConfig(
        window_size=64,
        k=4,
        batch_size=20,
        normalization=normalization,
        workload=WorkloadConfig(pmin_ms=5.0, pmax_ms=10.0, qrate_per_s=0.0),
    )
    system = StreamIndexSystem(8, config, seed=3)
    system.attach_random_walk_streams()
    system.attach_stream(system.app(0), "plateau", _plateau_stream())
    # past 4,096 rows per stream, so every stream crosses one drift refresh
    system.run(45_000.0)
    assert len(published) > 8 * 200
    return hashlib.sha256("".join(published).encode()).hexdigest()


#: :func:`_published_mbr_digest` per normalization mode
PUBLISHED_MBRS_SHA256 = {
    "z": "199fafec6e1ebca5dded69849c03fb96bc8e98284f8ae15a0049b480ae55d9cb",
    "unit": "41c7c10f2786ed5aad46cc4c4bb869787c381d6ee416f306745688dd6246718c",
}


@pytest.mark.parametrize("normalization", sorted(PUBLISHED_MBRS_SHA256))
def test_published_mbrs_match_pinned_digest(monkeypatch, normalization):
    """Every published box, bit for bit, at window 64, k 4 and batch 20.

    The ledger pins above run batch 1 and 2 at window 16; this one
    covers boxes of many rows over a longer window, constant runs
    (zero-spread rows) and the extractor's drift refresh.
    """
    digest = _published_mbr_digest(monkeypatch, normalization)
    assert digest == PUBLISHED_MBRS_SHA256[normalization]


def test_pins_hold_under_hash_seeds_1_and_2():
    """Set-order iteration must not move a digest: every test above also
    passes under ``PYTHONHASHSEED`` 1 and 2.

    Runs this file in two child interpreters at once.  A child runs with
    its hash seed pinned, which is what skips this test there, so the
    children do not spawn again.
    """
    if os.environ.get("PYTHONHASHSEED"):
        pytest.skip("the hash seed is pinned for this run")
    here = pathlib.Path(__file__).resolve()
    src = str(pathlib.Path(queries.__file__).resolve().parents[2])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(here)],
            cwd=here.parents[2],
            env=dict(env, PYTHONHASHSEED=seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for seed in ("1", "2")
    ]
    for seed, child in zip(("1", "2"), children):
        out, _ = child.communicate(timeout=600)
        assert child.returncode == 0, f"PYTHONHASHSEED={seed}:\n{out}"
