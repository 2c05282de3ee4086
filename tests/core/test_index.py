"""Unit tests for the per-data-center local index."""

import numpy as np

from repro.core import MBR, LocalIndex
from repro.core.protocol import InnerProductSubscribe, SimilaritySubscribe
from repro.core.queries import InnerProductQuery


def make_mbr(lo, hi, sid="s1"):
    return MBR(low=np.array(lo, float), high=np.array(hi, float), stream_id=sid)


def make_sub(qid=1, feature=(0.0, 0.0), radius=0.1, client=7):
    return SimilaritySubscribe(
        query_id=qid,
        client_id=client,
        feature=np.array(feature, float),
        radius=radius,
        low_key=0,
        high_key=10,
        middle_key=5,
        lifespan_ms=1000.0,
    )


def test_add_and_count_mbrs():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.1]), expires=100.0)
    idx.add_mbr(make_mbr([0.2], [0.3], sid="s2"), expires=100.0)
    assert idx.mbr_count() == 2
    assert idx.mbr_count(now=50.0) == 2
    assert idx.mbr_count(now=150.0) == 0


def test_purge_drops_expired():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.1]), expires=100.0)
    idx.add_mbr(make_mbr([0.0], [0.1], sid="s2"), expires=300.0)
    dropped = idx.purge(now=200.0)
    assert dropped == 1
    assert idx.mbr_count() == 1


def test_purge_drops_expired_subscriptions():
    idx = LocalIndex()
    idx.add_similarity_sub(make_sub(qid=1), expires=100.0)
    idx.add_similarity_sub(make_sub(qid=2), expires=500.0)
    ip = InnerProductSubscribe(
        query=InnerProductQuery("s1", np.array([0]), np.array([1.0]), 50.0),
        client_id=3,
    )
    idx.add_inner_product_sub(ip, expires=100.0)
    idx.purge(now=200.0)
    assert list(idx.similarity_subs) == [2]
    assert not idx.inner_product_subs


def test_new_candidates_matches_within_radius():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0, 0.0], [0.05, 0.05], sid="near"), expires=1e9)
    idx.add_mbr(make_mbr([0.9, 0.9], [0.95, 0.95], sid="far"), expires=1e9)
    idx.add_similarity_sub(make_sub(feature=(0.0, 0.0), radius=0.1), expires=1e9)
    ((s, cands),) = idx.new_candidates(now=0.0)
    assert s is idx.similarity_subs[1]
    assert [c[0] for c in cands] == ["near"]
    assert cands[0][1] == 0.0  # feature inside the box


def test_new_candidates_reports_each_stream_once():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.01], sid="s"), expires=1e9)
    idx.add_similarity_sub(make_sub(feature=(0.0,)), expires=1e9)
    (stored,) = idx.similarity_subs.values()
    assert len(idx.new_candidates(now=0.0)[0][1]) == 1
    assert idx.new_candidates(now=0.0) == [(stored, [])]
    # even a fresh MBR of the same stream is not re-reported
    idx.add_mbr(make_mbr([0.0], [0.02], sid="s"), expires=1e9)
    assert idx.new_candidates(now=0.0) == [(stored, [])]


def test_new_candidates_ignores_expired_mbrs():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.01], sid="s"), expires=10.0)
    idx.add_similarity_sub(make_sub(feature=(0.0,)), expires=1e9)
    (stored,) = idx.similarity_subs.values()
    assert idx.new_candidates(now=20.0) == [(stored, [])]


def test_new_candidates_picks_best_distance():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.08], [0.09], sid="s"), expires=1e9)
    idx.add_mbr(make_mbr([0.02], [0.03], sid="s"), expires=1e9)
    idx.add_similarity_sub(make_sub(feature=(0.0,)), expires=1e9)
    ((_, cands),) = idx.new_candidates(now=0.0)
    assert np.isclose(cands[0][1], 0.02)


def test_probe_has_no_memory():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.01], sid="s"), expires=1e9)
    q = np.array([0.0])
    assert len(idx.probe(q, 0.1, now=0.0)) == 1
    assert len(idx.probe(q, 0.1, now=0.0)) == 1  # unchanged on repeat


def test_probe_radius_zero_boundary():
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.1], [0.2], sid="s"), expires=1e9)
    assert idx.probe(np.array([0.3]), 0.1, now=0.0)  # exactly at radius
    assert not idx.probe(np.array([0.35]), 0.1, now=0.0)


def test_registry_roundtrip():
    idx = LocalIndex()
    idx.registry["stream-1"] = 42
    assert idx.registry.get("stream-1") == 42
    assert idx.registry.get("other") is None


def test_refresh_similarity_sub_replaces():
    idx = LocalIndex()
    idx.add_similarity_sub(make_sub(qid=9), expires=100.0)
    idx.add_similarity_sub(make_sub(qid=9), expires=500.0)
    assert len(idx.similarity_subs) == 1
    assert idx.similarity_subs[9].expires == 500.0


def test_refresh_with_a_new_feature_rescans_stored_rows():
    # delta matching tests an already-matched sub only against new rows;
    # a refresh that moves the query must be tested against all of them
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0, 0.0], [0.05, 0.05], sid="near"), expires=1e9)
    idx.add_similarity_sub(make_sub(feature=(5.0, 5.0), radius=0.1), expires=1e9)
    assert idx.new_candidates(now=0.0)[0][1] == []
    idx.add_similarity_sub(make_sub(feature=(0.0, 0.0), radius=0.1), expires=1e9)
    ((stored, cands),) = idx.new_candidates(now=0.0)
    assert cands == [("near", 0.0)]
    assert stored.reported == {"near"}


def test_candidates_come_out_in_store_order():
    # store (dict insertion) order, whatever order the rows arrived in;
    # a stream that expired and came back sorts after the others
    idx = LocalIndex()
    idx.add_mbr(make_mbr([0.0], [0.01], sid="b"), expires=10.0)
    idx.add_mbr(make_mbr([0.0], [0.01], sid="a"), expires=1e9)
    idx.add_mbr(make_mbr([0.0], [0.02], sid="b"), expires=10.0)
    idx.add_similarity_sub(make_sub(qid=1, feature=(0.0,)), expires=1e9)
    assert [sid for sid, _ in idx.new_candidates(now=0.0)[0][1]] == ["b", "a"]
    idx.purge(now=20.0)  # "b" expires entirely
    idx.add_mbr(make_mbr([0.0], [0.01], sid="b"), expires=1e9)
    idx.add_mbr(make_mbr([0.0], [0.01], sid="c"), expires=1e9)
    idx.add_similarity_sub(make_sub(qid=2, feature=(0.0,)), expires=1e9)
    got = {s.sub.query_id: [sid for sid, _ in c] for s, c in idx.new_candidates(now=20.0)}
    assert got == {1: ["c"], 2: ["a", "b", "c"]}  # sub 1 reported "b" already
