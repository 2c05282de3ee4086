"""Unit tests for MBRs and batching."""

import numpy as np
import pytest

from repro.core import MBR, MBRBatcher


def box(lo, hi, **kw):
    return MBR(low=np.array(lo, float), high=np.array(hi, float), **kw)


def test_validation():
    with pytest.raises(ValueError):
        box([0.0, 0.0], [1.0])
    with pytest.raises(ValueError):
        box([1.0], [0.0])


def test_from_bounds_adopts_the_array_and_checks_like_the_constructor():
    bounds = np.array([[0.0, 1.0], [1.0, 1.0 + 5e-13]])
    m = MBR.from_bounds(bounds, stream_id="s", count=2, created=3.0)
    assert m.bounds is bounds and m == box([0.0, 1.0], [1.0, 1.0 + 5e-13], stream_id="s",
                                           count=2, created=3.0)
    m.extend(np.array([2.0, 0.5]))  # writes through to the adopted array
    assert bounds.tolist() == [[0.0, 0.5], [2.0, 1.0 + 5e-13]]
    # the constructor's tolerance: low may exceed high by at most 1e-12
    MBR.from_bounds(np.array([[1.0 + 5e-13], [1.0]]))
    with pytest.raises(ValueError):
        MBR.from_bounds(np.array([[1.0], [0.0]]))
    with pytest.raises(ValueError):
        MBR.from_bounds(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError):
        MBR.from_bounds(np.zeros((3, 2)))


def test_of_point_degenerate():
    m = MBR.of_point(np.array([0.3, -0.2]), stream_id="s", created=5.0)
    assert m.count == 1
    assert (m.low == m.high).all()
    assert m.stream_id == "s"
    assert m.created == 5.0
    assert m.volume() == 0.0
    assert m.margin() == 0.0


def test_extend_grows_box():
    m = MBR.of_point(np.array([0.0, 0.0]))
    m.extend(np.array([1.0, -1.0]))
    m.extend(np.array([0.5, 0.5]))
    assert m.count == 3
    assert m.low.tolist() == [0.0, -1.0]
    assert m.high.tolist() == [1.0, 0.5]


def test_extend_dim_mismatch():
    m = MBR.of_point(np.zeros(2))
    with pytest.raises(ValueError):
        m.extend(np.zeros(3))


def test_contains():
    m = box([0.0, 0.0], [1.0, 1.0])
    assert m.contains(np.array([0.5, 0.5]))
    assert m.contains(np.array([0.0, 1.0]))  # boundary inclusive
    assert not m.contains(np.array([1.5, 0.5]))


def test_mindist_inside_is_zero():
    m = box([0.0, 0.0], [1.0, 1.0])
    assert m.mindist(np.array([0.3, 0.9])) == 0.0


def test_mindist_outside():
    m = box([0.0, 0.0], [1.0, 1.0])
    assert np.isclose(m.mindist(np.array([2.0, 0.5])), 1.0)
    assert np.isclose(m.mindist(np.array([2.0, 2.0])), np.sqrt(2.0))
    assert np.isclose(m.mindist(np.array([-1.0, -1.0])), np.sqrt(2.0))


def test_mindist_lower_bounds_contained_points():
    """MINDIST(q, box) <= d(q, p) for every p the box absorbed —
    the property that guarantees no false dismissals."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 3))
    m = MBR.of_point(pts[0])
    for p in pts[1:]:
        m.extend(p)
    for _ in range(50):
        q = rng.normal(size=3)
        dmin = m.mindist(q)
        for p in pts:
            assert dmin <= np.linalg.norm(q - p) + 1e-12


def test_intersects_ball():
    m = box([0.0], [1.0])
    assert m.intersects_ball(np.array([1.5]), 0.5)
    assert not m.intersects_ball(np.array([1.6]), 0.5)
    assert m.intersects_ball(np.array([0.5]), 0.01)


def test_first_coordinate_interval():
    m = box([0.09, -1.0], [0.21, 1.0])
    assert m.first_coordinate_interval == (0.09, 0.21)


def test_volume_and_margin():
    m = box([0.0, 0.0], [2.0, 3.0])
    assert m.volume() == 6.0
    assert m.margin() == 5.0


def test_paper_figure4_example():
    """Fig. 4: MBR with low 0.09/0.12 and high 0.21/0.40-ish corners;
    its first-coordinate interval [0.09, 0.21] maps to keys K17..K19 on
    the m=5 ring (nodes N20 covers both)."""
    from repro.chord import IdSpace
    from repro.core import LinearKeyMapper

    m = box([0.09, 0.12], [0.21, 0.40])
    lo, hi = m.first_coordinate_interval
    mapper = LinearKeyMapper(IdSpace(5))
    klow, khigh = mapper.key_range(lo, hi)
    assert klow == 17
    assert khigh == 19


# ---------------------------------------------------------------- batcher
def test_batcher_emits_every_w():
    b = MBRBatcher("s", batch_size=3)
    assert b.add(np.array([0.0])) is None
    assert b.add(np.array([1.0])) is None
    m = b.add(np.array([0.5]))
    assert m is not None
    assert m.count == 3
    assert m.low[0] == 0.0 and m.high[0] == 1.0
    assert b.pending == 0
    assert b.emitted == 1


def test_batcher_batch_of_one():
    b = MBRBatcher("s", batch_size=1)
    m = b.add(np.array([0.7]), now=4.0)
    assert m is not None
    assert m.count == 1
    assert m.created == 4.0


def test_batcher_created_time_of_first_vector():
    b = MBRBatcher("s", batch_size=2)
    b.add(np.array([0.0]), now=10.0)
    m = b.add(np.array([1.0]), now=20.0)
    assert m.created == 10.0


def test_batcher_flush():
    b = MBRBatcher("s", batch_size=5)
    b.add(np.array([0.0]))
    b.add(np.array([1.0]))
    m = b.flush()
    assert m is not None and m.count == 2
    assert b.flush() is None
    assert b.emitted == 1


def test_batcher_validation():
    with pytest.raises(ValueError):
        MBRBatcher("s", batch_size=0)


def test_batcher_stream_id_propagates():
    b = MBRBatcher("stream-9", batch_size=1)
    assert b.add(np.zeros(2)).stream_id == "stream-9"


def test_of_block_bounds_equal_the_row_by_row_fold():
    rng = np.random.default_rng(11)
    block = rng.normal(size=(30, 5))
    m = MBR.of_point(block[0])
    for row in block[1:]:
        m.extend(row)
    box = MBR.of_block(block, stream_id="s", created=2.0)
    assert box.bounds.tobytes() == m.bounds.tobytes()
    assert (box.count, box.created, box.stream_id) == (30, 2.0, "s")


def test_of_block_zero_bound_keeps_the_sign_the_fold_gives():
    """A reduce may keep the other zero of a column of ±0.0 (here it
    does, for one column); the box must hold the sign folding the rows
    in order gives."""
    column = [1.0, 0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 1.0, 1.0]
    block = np.array(column)[:, None]
    m = MBR.of_point(block[0])
    for row in block[1:]:
        m.extend(row)
    assert MBR.of_block(block).bounds.tobytes() == m.bounds.tobytes()


def test_batcher_takes_whole_blocks():
    b = MBRBatcher("s", batch_size=4)
    assert b.add(np.array([[0.0, 1.0], [2.0, -1.0]]), now=3.0) is None
    assert b.pending == 2
    with pytest.raises(ValueError):
        b.add(np.zeros((3, 2)))
    m = b.add(np.array([[1.0, 5.0], [-2.0, 0.5]]), now=9.0)
    assert m.count == 4 and m.created == 3.0
    assert m.low.tolist() == [-2.0, -1.0] and m.high.tolist() == [2.0, 5.0]
