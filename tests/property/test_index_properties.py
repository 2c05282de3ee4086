"""Property-based tests for MBRs, the mapper, no-false-dismissal, and the
index's delta matching."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.chord import IdSpace
from repro.core import MBR, LinearKeyMapper, LocalIndex, MBRBatcher
from repro.core import index as index_module
from repro.core.adaptive import AdaptiveMBRBatcher
from repro.core.protocol import ReplicaPublish, SimilaritySubscribe
from repro.core.replication import ReplicationManager

coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
features = arrays(np.float64, 4, elements=coord)


@given(st.lists(features, min_size=1, max_size=20))
@settings(max_examples=80, deadline=None)
def test_mbr_contains_every_absorbed_point(points):
    m = MBR.of_point(points[0])
    for p in points[1:]:
        m.extend(p)
    for p in points:
        assert m.contains(p)
        assert m.mindist(p) == 0.0


@given(st.lists(features, min_size=1, max_size=20), features)
@settings(max_examples=80, deadline=None)
def test_mindist_lower_bounds_all_points(points, q):
    m = MBR.of_point(points[0])
    for p in points[1:]:
        m.extend(p)
    dmin = m.mindist(q)
    for p in points:
        assert dmin <= np.linalg.norm(q - p) + 1e-9


@given(st.lists(features, min_size=1, max_size=30), st.integers(min_value=1, max_value=7))
@settings(max_examples=60, deadline=None)
def test_batcher_never_loses_vectors(points, w):
    b = MBRBatcher("s", w)
    total = 0
    for p in points:
        m = b.add(p)
        if m is not None:
            total += m.count
            assert m.count == w
    tail = b.flush()
    if tail is not None:
        total += tail.count
    assert total == len(points)


@given(
    st.lists(features, min_size=1, max_size=30),
    st.integers(min_value=1, max_value=7),
    st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_batcher_never_loses_vectors_and_respects_width(points, w, width):
    b = AdaptiveMBRBatcher("s", w, width_limit=width)
    total = 0
    for p in points:
        m = b.add(p)
        if m is not None:
            total += m.count
            assert m.high[0] - m.low[0] <= width + 1e-12
    tail = b.flush()
    if tail is not None:
        total += tail.count
    assert total == len(points)


@given(coord, coord)
@settings(max_examples=120, deadline=None)
def test_mapper_monotone_pairwise(a, b):
    mapper = LinearKeyMapper(IdSpace(20))
    if a <= b:
        assert mapper.key_of(a) <= mapper.key_of(b)
    else:
        assert mapper.key_of(a) >= mapper.key_of(b)


@given(coord, st.floats(min_value=0.001, max_value=1.0))
@settings(max_examples=120, deadline=None)
def test_query_interval_contains_center_key(center, radius):
    """The key range of [v-r, v+r] always contains key(v) — queries are
    always routed to a range covering their own summary's key."""
    mapper = LinearKeyMapper(IdSpace(20))
    lo, hi = mapper.key_range(max(-1.0, center - radius), min(1.0, center + radius))
    assert lo <= mapper.key_of(center) <= hi


@given(st.lists(features, min_size=2, max_size=20), features, st.floats(min_value=0.01, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_no_false_dismissals_through_batching(points, q, radius):
    """If any absorbed feature vector is within `radius` of the query,
    the MBR containing it must be reported as a candidate."""
    b = MBRBatcher("s", 5)
    boxes = []
    for p in points:
        m = b.add(p)
        if m is not None:
            boxes.append(m)
    tail = b.flush()
    if tail is not None:
        boxes.append(tail)
    true_match = any(np.linalg.norm(q - p) <= radius for p in points)
    candidate = any(box.intersects_ball(q, radius) for box in boxes)
    if true_match:
        assert candidate


# ---------------------------------------------------------------------------
# delta matching against a full scalar rescan
# ---------------------------------------------------------------------------
# a coarse grid makes matches, ties and exact-radius boundaries common
grid = st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])
lives = st.sampled_from([0.5, 1.0, 2.0, 5.0, 20.0])
streams = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def index_scenarios(draw):
    """A dimensionality, a kernel chunk size and a run of index operations.

    ``chunk`` is the kernel's ``CHUNK_BYTES`` in (sub, row) pairs, or
    ``None`` for the default: a few pairs split both chunk loops.  An
    ``mbr`` op stores up to three copies of one box, so a stream holds
    several rows at tied distances.  A run starts with stored rows and
    ends with a tick.
    """
    dims = draw(st.sampled_from([1, 2, 4, 16]))
    point = st.one_of(
        st.lists(grid, min_size=dims, max_size=dims),
        st.lists(coord, min_size=dims, max_size=dims),
    )
    width = st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=dims, max_size=dims)
    mbr = st.tuples(st.just("mbr"), streams, point, width, lives, st.integers(1, 3))
    sub = st.tuples(
        st.just("sub"),
        st.integers(1, 3),
        point,
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        lives,
    )
    tick = st.tuples(st.just("tick"), st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    # inserts and ticks weigh double, so that most ticks have work to do
    op = st.one_of(
        mbr,
        mbr,
        st.tuples(st.just("replica"), streams, point, width, lives),
        sub,
        st.tuples(st.just("refresh"), st.integers(1, 3), lives),
        st.tuples(st.just("purge")),
        st.tuples(st.just("replica_purge")),
        st.tuples(st.just("take_streams"), st.sets(streams, max_size=2)),
        st.tuples(st.just("take_low"), grid),
        tick,
        tick,
    )
    # the kernel's temporary is 2 × dims float64s (16·dims bytes) per pair
    chunk = draw(st.sampled_from([None, 1, 2, 3, 5]))
    ops = draw(st.lists(mbr, min_size=1, max_size=6)) + draw(st.lists(op, max_size=40))
    return dims, chunk, ops + [("tick", 0.0)]


def _scalar_scan(store, feature, radius, now, skip, slack):
    """The pre-delta detect loop: every stored entry, scalar MINDIST."""
    out = []
    for stream_id, entries in store.items():
        if stream_id in skip:
            continue
        best = None
        for e in entries:
            if e.expires <= now:
                continue
            d = e.mbr.mindist(feature)
            if d <= radius + slack and (best is None or d < best):
                best = d
        if best is not None:
            out.append((stream_id, float(best)))
    return out


def _stub_holder():
    """What ReplicationManager reads of its IndexHolderService here."""
    return SimpleNamespace(
        index=LocalIndex(),
        cfg=SimpleNamespace(replication_factor=3),
        node=SimpleNamespace(node_id=1),
        transport=SimpleNamespace(now=0.0, route=lambda *args, **kw: None),
    )


def _box(stream_id, point, width):
    low = np.array(point, dtype=np.float64)
    return MBR(low=low, high=low + np.array(width), stream_id=stream_id)


@given(index_scenarios())
@settings(max_examples=200, deadline=None)
def test_delta_matching_equals_full_rescan(scenario):
    """Each tick's candidates equal a rescan of everything with the scalar
    loop: same streams, same order, bit-identical distances, and the same
    ``reported`` sets — for the primary store and the replica store, under
    any interleaving of inserts (new streams, streams re-added after
    expiring, tied copies), subscriptions and refreshes, purges and
    removals, in 1 to 16 dimensions and with the kernel's chunks cut
    down to a few (sub, row) pairs."""
    dims, chunk, ops = scenario
    chunk_bytes = index_module.CHUNK_BYTES if chunk is None else 16 * dims * chunk
    with mock.patch.object(index_module, "CHUNK_BYTES", chunk_bytes):
        _replay_against_rescan(ops)


def _replay_against_rescan(ops):
    holder = _stub_holder()
    index = holder.index
    replication = ReplicationManager(holder)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "mbr":
            _, sid, point, width, life, copies = op
            for _ in range(copies):
                index.add_mbr(_box(sid, point, width), expires=now + life)
        elif kind == "replica":
            _, sid, point, width, life = op
            replication.install_replica(
                ReplicaPublish(
                    mbr=_box(sid, point, width),
                    source_id=0,
                    low_key=0,
                    high_key=1,
                    owner_id=2,
                    expires_ms=now + life,
                )
            )
        elif kind == "sub":
            _, qid, point, radius, life = op
            sub = SimilaritySubscribe(
                query_id=qid,
                client_id=0,
                feature=np.array(point),
                radius=radius,
                low_key=0,
                high_key=1,
                middle_key=0,
                lifespan_ms=life,
            )
            index.add_similarity_sub(sub, expires=now + life)
        elif kind == "refresh":
            _, qid, life = op
            if qid in index.similarity_subs:
                index.add_similarity_sub(index.similarity_subs[qid].sub, now + life)
        elif kind == "purge":
            index.purge(now)
        elif kind == "replica_purge":
            replication.purge(now)
        elif kind == "take_streams":
            index.take_mbrs(lambda e, gone=op[1]: e.mbr.stream_id in gone)
        elif kind == "take_low":
            index.take_mbrs(lambda e, edge=op[1]: e.mbr.low[0] < edge)
        else:
            now += op[1]
            want = []
            for stored in index.similarity_subs.values():
                feature, radius = stored.sub.feature, stored.sub.radius
                reported = set(stored.reported)
                primary = _scalar_scan(index._mbrs, feature, radius, now, reported, 0.0)
                reported.update(sid for sid, _ in primary)
                replica = _scalar_scan(replication.store, feature, radius, now, reported, 1e-12)
                reported.update(sid for sid, _ in replica)
                want.append((stored.sub.query_id, primary, replica, reported))
            got = index.new_candidates(now)
            got_replica = replication.new_candidates([s for s, _ in got], now)
            assert [s for s, _ in got_replica] == [s for s, _ in got]
            assert [
                (s.sub.query_id, c, rc, s.reported)
                for (s, c), (_, rc) in zip(got, got_replica)
            ] == want
