import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pacfusion import kdtree
from pacfusion.kdtree import KdTree, knn_brute, knn_query, knn_table

from conftest import random_cloud

UNSEARCHABLE = "^cannot search non-finite points or points whose span overflows float64$"


def test_ego_point_first():
    pts = np.array([[0, 0, 0], [1, 0, 0], [5, 0, 0]], dtype=float)
    res = knn_query(KdTree(pts), (0, 0, 0), k=2)
    np.testing.assert_array_equal(res.indices, [0, 1])
    np.testing.assert_allclose(res.distances, [0.0, 1.0])


def test_radius_padding_by_repetition():
    pts = np.array([[0, 0, 0], [1, 0, 0], [5, 0, 0]], dtype=float)
    res = knn_query(KdTree(pts), (0, 0, 0), k=2, d=0.5)
    np.testing.assert_array_equal(res.indices, [0, 0])
    np.testing.assert_allclose(res.distances, [0.0, 0.0])


def test_empty_build_rejected():
    """An index over zero points, or one built for a table, names the points, as knn_brute does."""
    for build in (KdTree, lambda points: knn_table(points, 3)):
        with pytest.raises(ValueError, match="^cannot search zero points$"):
            build(np.zeros((0, 3)))


def test_brute_rejects_zero_points():
    with pytest.raises(ValueError, match="zero points"):
        knn_brute(np.zeros((0, 3)), (0, 0, 0), 2)


@pytest.mark.parametrize("k", [0, -2])
def test_k_zero_rejected(k):
    tree = KdTree(np.zeros((1, 3)))
    for target in ((0, 0, 0), (1, 0, 0)):  # the tree's own point, read from a table, and another point
        for _ in range(2):  # a failed check leaves no table behind that a second query could read
            with pytest.raises(ValueError, match="^k must be >= 1$"):
                knn_query(tree, target, k)
    assert not tree._tables
    with pytest.raises(ValueError, match="^k must be >= 1$"):
        knn_brute(np.zeros((1, 3)), (0, 0, 0), k)


@pytest.mark.parametrize("d", [np.nan, -0.2, -np.inf, -1], ids=["nan", "negative", "minus_inf", "minus_one"])
def test_bad_radius_rejected(d):
    pts = np.array([[0, 0, 0], [0.1, 0, 0], [5, 0, 0]], dtype=float)
    message = f"^{re.escape(f'radius d must be >= 0, got {float(d)}')}$"
    tree = KdTree(pts)
    for target in ((0, 0, 0), (1, 0, 0)):  # the tree's own point, read from a table, and another point
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                knn_query(tree, target, 2, d)
    assert not tree._tables
    with pytest.raises(ValueError, match=message):
        knn_brute(pts, (0, 0, 0), 2, d)
    with pytest.raises(ValueError, match=message):
        knn_table(pts, 2, d)


@pytest.mark.parametrize("target", [(np.nan, 0, 0), (0, np.inf, 0), (0, 0, -np.inf)], ids=["nan", "inf", "minus_inf"])
def test_nonfinite_target_rejected(target):
    pts = np.array([[0, 0, 0], [0.1, 0, 0], [5, 0, 0]], dtype=float)
    with pytest.raises(ValueError, match="target must be finite"):
        knn_query(KdTree(pts), target, 2)
    with pytest.raises(ValueError, match="target must be finite"):
        knn_brute(pts, target, 2)
    with pytest.raises(ValueError, match="target must be finite"):
        knn_table(np.vstack([pts, target]), 2)


def _uniform(rng):
    pts = rng.uniform([0, -40, -1], [70.4, 40, 3], size=(1000, 3))
    return pts, rng.uniform([0, -40, -1], [70.4, 40, 3], size=(100, 3)), (1, 3, 5, 10), (np.inf, 2.0)


def _lattice(rng):
    # integer grid: exact distance ties at grid points, at cell centres and at d = 1
    grid = np.stack(np.meshgrid(np.arange(6.0), np.arange(6.0), np.arange(4.0), indexing="ij"), axis=-1)
    pts = grid.reshape(-1, 3)
    return pts, np.vstack([pts[::5], pts[::7] + 0.5]), (1, 3, 7, 27), (np.inf, 1.0, 1.5)


def _duplicated(rng):
    pts = np.repeat(rng.uniform(-5, 5, size=(100, 3)), 2, axis=0)
    return pts, np.vstack([pts[::9], rng.uniform(-5, 5, size=(20, 3))]), (1, 2, 5), (np.inf, 0.5)


def _k_above_n(rng):
    pts = rng.uniform(-2, 2, size=(12, 3))
    return pts, np.vstack([pts, rng.uniform(-2, 2, size=(10, 3))]), (13, 40), (2.0, np.inf)


def _radius_excludes_all(rng):
    pts = rng.uniform(-5, 5, size=(200, 3))
    return pts, rng.uniform(-6, 6, size=(30, 3)), (1, 3), (1e-6,)


def _assert_queries_match_brute(pts, targets, ks, ds):
    tree = KdTree(pts)
    for k in ks:
        for d in ds:
            for t in targets:
                got = knn_query(tree, t, k, d)
                want = knn_brute(pts, t, k, d)
                assert np.array_equal(got.indices, want.indices), (k, d, t)
                assert np.array_equal(got.distances, want.distances), (k, d, t)


_CASES = pytest.mark.parametrize(
    "make", [_uniform, _lattice, _duplicated, _k_above_n, _radius_excludes_all],
    ids=["uniform", "lattice", "duplicated", "k_above_n", "radius_excludes_all"],
)


@pytest.mark.parametrize("leaf", [1, 2, 16], ids=lambda leaf: f"leaf{leaf}")
@_CASES
def test_oracle_equivalence(rng, monkeypatch, make, leaf):
    # the Morton window plays the part of the first leaf a tree search scans: its k-th d² bounds the radius.
    # Smaller windows give looser bounds, so more candidates fall on cell edges and on ties at the bound
    monkeypatch.setattr(kdtree, "_WINDOW", leaf)
    pts, targets, ks, ds = make(rng)
    _assert_queries_match_brute(pts, np.vstack([pts[:: max(1, len(pts) // 25)], targets]), ks, ds)


@pytest.mark.parametrize("order", ["own_points_first", "off_cloud_first", "interleaved"])
@_CASES
def test_query_order_equivalence(rng, make, order):
    # own points are answered from the tree's table, other targets by one-row searches; the order decides
    # whether a table is built before, after or between the one-row searches that build the grids
    pts, targets, ks, ds = make(rng)
    targets = np.vstack([pts[:: max(1, len(pts) // 25)], targets])
    cloud = set(map(tuple, pts.tolist()))
    own = np.array([tuple(t) in cloud for t in targets.tolist()])
    rank = {"own_points_first": ~own, "off_cloud_first": own,
            "interleaved": np.where(own, np.cumsum(own), np.cumsum(~own))}[order]
    _assert_queries_match_brute(pts, targets[np.argsort(rank, kind="stable")], ks, ds)


@_CASES
def test_table_of_many_blocks_matches_brute(rng, monkeypatch, make):
    # a table is searched _BLOCK points at a time in Morton order; blocks this small split every cloud, and
    # 1,000 uniform points end in a one-point block of 3 and a six-point block of 7
    pts, _, ks, ds = make(rng)
    for k in ks:
        for d in ds:
            want = [knn_brute(pts, p, k, d) for p in pts]
            for block in (3, 7, 64):
                monkeypatch.setattr(kdtree, "_BLOCK", block)
                idx, dist = KdTree(pts).table(k, d)
                assert np.array_equal(idx, [w.indices for w in want]), (block, k, d)
                assert dist.tobytes() == np.array([w.distances for w in want]).tobytes(), (block, k, d)


@st.composite
def _knn_case(draw):
    """A cloud of 1 to ~300 points with duplicate rows and, on the lattice, exact ties; targets on and off it."""
    n = draw(st.integers(1, 300))
    lattice = draw(st.booleans())
    coord = st.integers(-3, 3).map(float) if lattice else st.floats(-10, 10, allow_subnormal=False)
    pts = draw(hnp.arrays(np.float64, (n, 3), elements=coord))
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=40))
    pts = np.vstack([pts, pts[repeats]])
    off = draw(hnp.arrays(np.float64, (draw(st.integers(0, 4)), 3), elements=st.floats(-20, 20) | coord))
    targets = np.vstack([pts[draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=4))], off])
    k = draw(st.integers(1, len(pts) + 3))
    d = draw(st.sampled_from([0.0, np.inf]) | st.floats(0.0, 8.0))
    return pts, targets, k, d


@settings(max_examples=40, deadline=None)
@given(case=_knn_case())
def test_query_and_table_match_brute(case):
    pts, targets, k, d = case
    tree = KdTree(pts)
    for t in targets:
        got, want = knn_query(tree, t, k, d), knn_brute(pts, t, k, d)
        assert np.array_equal(got.indices, want.indices), (t, k, d)
        assert got.distances.tobytes() == want.distances.tobytes(), (t, k, d)
    table = knn_table(pts, k, d)
    assert table.dtype == np.int64 and table.shape == (len(pts), k)
    for i, p in enumerate(pts):
        assert np.array_equal(table[i], knn_brute(pts, p, k, d).indices), (i, k, d)


def test_self_query_table_matches_brute(rng):
    pts = random_cloud(rng, 2000).xyz
    tree = KdTree(pts)
    got = [tree.query(p, 3) for p in pts]
    want = [knn_brute(pts, p, 3) for p in pts]
    np.testing.assert_array_equal([g.indices for g in got], [w.indices for w in want])
    np.testing.assert_array_equal([g.distances for g in got], [w.distances for w in want])


def _clustered(rng):
    """Dense Gaussian blobs of three widths in a sparse background, so neighbor radii span many cell sizes."""
    centres = rng.uniform([5, -30, -1], [65, 30, 3], size=(6, 3))
    blobs = [c + rng.normal(scale=s, size=(150, 3)) for c, s in zip(centres, (0.005, 0.005, 0.05, 0.05, 0.5, 0.5))]
    return np.vstack(blobs + [rng.uniform([0, -40, -1], [70.4, 40, 3], size=(300, 3))])


def test_clustered_self_table_matches_brute(rng):
    pts = _clustered(rng)
    kth = np.array([knn_brute(pts, p, 3).distances[-1] for p in pts])
    assert len(np.unique(np.frexp(kth)[1])) >= 4  # the k-th distances fall in at least four power-of-two cells
    tree = KdTree(pts)
    for k in (1, 3, 5):
        for d in (0.0, 0.5, np.inf):
            table = knn_table(pts, k, d)
            for i, p in enumerate(pts):
                got, want = tree.query(p, k, d), knn_brute(pts, p, k, d)
                assert np.array_equal(got.indices, want.indices) and np.array_equal(table[i], want.indices), (i, k, d)
                assert got.distances.tobytes() == want.distances.tobytes(), (i, k, d)


def test_table_rows_are_copies_and_tables_do_not_mix(rng):
    pts = _clustered(rng)
    pts = np.vstack([pts, pts[:50]])  # 50 duplicated rows
    tree = KdTree(pts)
    first = tree.query(pts[7], 3)
    first.indices[:] = -1
    first.distances[:] = np.nan
    again = tree.query(pts[7], 3)
    assert np.array_equal(again.indices, knn_brute(pts, pts[7], 3).indices)
    assert np.array_equal(again.distances, knn_brute(pts, pts[7], 3).distances)
    pairs = [(3, np.inf), (1, 0.5), (5, 0.0), (3, 0.5), (2, np.inf)]
    for i, p in enumerate(pts):
        k, d = pairs[i % len(pairs)]
        got, want = knn_query(tree, p, k, d), knn_brute(pts, p, k, d)
        assert np.array_equal(got.indices, want.indices) and np.array_equal(got.distances, want.distances), (i, k, d)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("row", [0, 40, 99])
def test_nonfinite_point_rejected_without_warnings(rng, bad, row):
    pts = rng.uniform(-5, 5, size=(100, 3))
    pts[row, row % 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="target must be finite"):
            knn_table(pts, 3)
        with pytest.raises(ValueError, match=UNSEARCHABLE):
            KdTree(pts)


_EXTREME_CLOUDS = [
    # d² overflows to inf between the far points and underflows to 0 between the two near ones
    np.array([[1e300, 0, 0], [-1e300, 0, 0], [0, 1e-300, 0], [0, 0, 0], [1e300, 1, 0]]),
    # a span past 2**1023, whose one-cell size would overflow, and one of a few subnormals
    np.array([[-0.8e308, 0, 0], [0.8e308, 0, 0], [0, 0, 0], [0, 1, 0]]),
    np.array([[0, 0, 0], [5e-324, 0, 0], [0, 1e-323, 0], [0, 0, 1.5e-323]]),
    # subnormal d²: both points of the last target's k = 2 query round to a d² whose root is below the
    # distance of one of them, which lies a cell beyond that root
    np.array([[1.75, 2, 0], [1.75, 0, 0]]) * 2.0**-537,
]


def test_extreme_coordinates_match_brute_without_warnings():
    with pytest.raises(ValueError, match=UNSEARCHABLE):
        KdTree([[-1e308, 0, 0], [1e308, 0, 0]])
    for pts in _EXTREME_CLOUDS:
        near = np.array([1.486211839459375, 0.8610027580870387, 0]) * 2.0**-537
        targets = np.vstack([pts, [(-1e308, 0, 0), (1e308, 1e308, 0), (0, 0, 5e-324), near]])
        tree = KdTree(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [knn_query(tree, t, k) for k in (1, 2, 3) for t in targets]
        with np.errstate(over="ignore", under="ignore"):
            want = [knn_brute(pts, t, k) for k in (1, 2, 3) for t in targets]
        for g, w in zip(got, want):
            assert np.array_equal(g.indices, w.indices) and np.array_equal(g.distances, w.distances), (pts, g, w)


# d² evaluations of knn_table(pts, 3) today: every answer can stay right while the search does several times the
# work, so a change may add at most _WORK_MARGIN to a cloud's count; one that adds more is a regression
_WORK_MARGIN = 0.02
_WORK_CLOUDS = {
    "uniform": (lambda: np.random.default_rng(0).uniform([0, -40, -1], [70.4, 40, 3], size=(16_384, 3)), 564_747),
    "clustered": (lambda: _clustered(np.random.default_rng(12345)), 48_017),
    "lattice": (lambda: _lattice(None)[0], 7_824),
    "extreme": (lambda: _EXTREME_CLOUDS[0], 50),
    # a Morton-bit slip costs ~26x here, against ~1.06x on the flat ROI-shaped "uniform" cloud
    "cube": (lambda: np.random.default_rng(0).uniform(0, 1, size=(16_384, 3)), 639_442),
}


@pytest.mark.parametrize("cloud", list(_WORK_CLOUDS))
def test_knn_table_work_is_pinned(monkeypatch, cloud):
    make, today = _WORK_CLOUDS[cloud]
    sqdist, evaluated = kdtree._sqdist, []

    def counting_sqdist(*args):
        d2 = sqdist(*args)
        evaluated.append(d2.size)
        return d2

    monkeypatch.setattr(kdtree, "_sqdist", counting_sqdist)
    pts = make()
    knn_table(pts, 3)
    # each point is at least its own candidate, so a search that stops calling _sqdist cannot pass
    assert len(pts) <= sum(evaluated) <= today * (1 + _WORK_MARGIN), (sum(evaluated), today)


def _lattice_5():
    """A 5x5x5 integer lattice: 125 points, so ties lie on both sides of split planes."""
    return np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def test_tie_break_lower_index():
    pts = _lattice_5()
    tree = KdTree(pts)
    # the centre (2, 2, 2) = index 62 and its six axis neighbours at distance 1
    res = knn_query(tree, (2, 2, 2), k=4)
    np.testing.assert_array_equal(res.indices, [62, 37, 57, 61])
    # a cell centre: 8 corners at equal distance, lowest indices first
    res = knn_query(tree, (1.5, 1.5, 1.5), k=3)
    np.testing.assert_array_equal(res.indices, [31, 32, 36])


def test_duplicate_points():
    pts = np.repeat(_lattice_5(), 3, axis=0)
    tree = KdTree(pts)
    for t in np.vstack([pts[::29], pts[::31] + 0.5]):
        for k in (2, 5, 9):
            got = knn_query(tree, t, k)
            want = knn_brute(pts, t, k)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.distances, want.distances)


def test_distances_monotone(rng):
    pts = rng.normal(size=(300, 3))
    tree = KdTree(pts)
    for t in rng.normal(size=(20, 3)):
        res = knn_query(tree, t, 8)
        assert np.all(np.diff(res.distances) >= 0)


def test_determinism(rng):
    pts = rng.normal(size=(200, 3))
    t = rng.normal(size=3)
    a = knn_query(KdTree(pts), t, 5)
    b = knn_query(KdTree(pts), t, 5)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.distances, b.distances)


def _same(got, want):
    return np.array_equal(got.indices, want.indices) and got.distances.tobytes() == want.distances.tobytes()


@pytest.mark.parametrize("k, d", [(3, 2), (3, 2.0), (np.int64(3), 2.0), (np.int32(3), np.float32(2)),
                                  (np.array(3), np.array(2.0)), (np.array(3), 2)],
                         ids=["ints", "int_float", "np_int", "np_32", "0d_arrays", "0d_k"])
@pytest.mark.parametrize("first", ["hit", "miss"])
def test_k_and_d_of_any_number_type_on_hit_and_miss(k, d, first):
    pts = _lattice_5()
    tree = KdTree(pts)
    targets = [pts[31], pts[31] + 0.25] if first == "hit" else [pts[31] + 0.25, pts[31]]
    for t in targets:
        assert _same(knn_query(tree, t, k, d), knn_brute(pts, t, int(k), float(d))), t
    assert np.array_equal(knn_table(pts, k, d), knn_table(pts, int(k), float(d)))


def test_equal_k_and_d_share_one_table():
    pts = _lattice_5()
    tree = KdTree(pts)
    for k, d in [(3, 5), (np.int64(3), 5.0), (3, np.float64(5)), (np.array(3), np.array(5))]:
        assert _same(knn_query(tree, pts[7], k, d), knn_brute(pts, pts[7], 3, 5.0))
    assert len(tree._tables) == 1


def test_signed_zero_target_finds_the_same_neighbors():
    # a row's key is its bytes, so -0.0 and +0.0 differ there: a mismatch takes the one-row search instead
    pts = np.array([[-0.0, 0.0, 1.0], [0.0, -0.0, 2.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [-0.0, -0.0, -0.0]])
    tree = KdTree(pts)
    for t in ([0.0, 0.0, 1.0], [-0.0, -0.0, 1.0], [-0.0, 0.0, 2.0], [0.0, -0.0, 2.0], [0.0, 0.0, -0.0], *pts):
        for k in (1, 2, 5):
            assert _same(knn_query(tree, t, k), knn_brute(pts, t, k)), (t, k)


@pytest.mark.parametrize("form", [list, lambda t: tuple(int(c) for c in t), lambda t: t.reshape(1, 3),
                                  lambda t: np.asfortranarray(np.tile(t, (4, 1)))[2]],
                         ids=["list", "int_tuple", "row_matrix", "strided_view"])
def test_target_forms_hit_the_table(form):
    pts = np.asfortranarray(_lattice_5())  # also a cloud given in column-major order
    for i in (62, 31):
        tree = KdTree(pts)
        assert _same(knn_query(tree, form(pts[i]), 4), knn_brute(pts, pts[i], 4)), i
        assert list(tree._tables) == [(4, np.inf)], i  # answered from the table, not by a one-row search


@pytest.mark.parametrize("target", [(2, 2, 2, 2), [[2.0, 2.0, 2.0, 0.0]], (2.0, 2.0), 2.0])
def test_target_of_other_than_three_coordinates_rejected(target):
    tree = KdTree(_lattice_5())
    with pytest.raises(ValueError):
        knn_query(tree, target, 3)
