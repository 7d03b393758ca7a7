import numpy as np
import pytest

from pacfusion.kdtree import KdTree, knn_brute, knn_query

from conftest import random_cloud


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
    with pytest.raises(ValueError):
        KdTree(np.zeros((0, 3)))


def test_brute_rejects_zero_points():
    with pytest.raises(ValueError, match="zero points"):
        knn_brute(np.zeros((0, 3)), (0, 0, 0), 2)


def test_k_zero_rejected():
    tree = KdTree(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        knn_query(tree, (0, 0, 0), k=0)
    with pytest.raises(ValueError):
        knn_brute(np.zeros((1, 3)), (0, 0, 0), k=0)


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


@pytest.mark.parametrize("leaf", [1, 2, 16], ids=lambda leaf: f"leaf{leaf}")
@pytest.mark.parametrize(
    "make", [_uniform, _lattice, _duplicated, _k_above_n, _radius_excludes_all],
    ids=["uniform", "lattice", "duplicated", "k_above_n", "radius_excludes_all"],
)
def test_oracle_equivalence(rng, make, leaf):
    pts, targets, ks, ds = make(rng)
    tree = KdTree(pts, leaf_size=leaf)
    for k in ks:
        for d in ds:
            for t in targets:
                got = knn_query(tree, t, k, d)
                want = knn_brute(pts, t, k, d)
                assert np.array_equal(got.indices, want.indices), (k, d, t)
                assert np.array_equal(got.distances, want.distances), (k, d, t)


def test_self_query_table_matches_brute(rng):
    pts = random_cloud(rng, 2000).xyz
    tree = KdTree(pts)
    got = [tree.query(p, 3) for p in pts]
    want = [knn_brute(pts, p, 3) for p in pts]
    np.testing.assert_array_equal([g.indices for g in got], [w.indices for w in want])
    np.testing.assert_array_equal([g.distances for g in got], [w.distances for w in want])


def test_tie_break_lower_index():
    # four points at identical distance from the origin
    pts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)
    res = knn_query(KdTree(pts, leaf_size=1), (0, 0, 0), k=2)
    np.testing.assert_array_equal(res.indices, [0, 1])


def test_duplicate_points(rng):
    pts = np.repeat(rng.uniform(-5, 5, size=(20, 3)), 3, axis=0)
    tree = KdTree(pts, leaf_size=2)
    for t in pts[::7]:
        got = knn_query(tree, t, 5)
        want = knn_brute(pts, t, 5)
        np.testing.assert_array_equal(got.indices, want.indices)


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


def test_small_leaf_sizes(rng):
    pts = rng.normal(size=(64, 3))
    want = knn_brute(pts, pts[10], 4)
    for leaf in (1, 2, 5, 64):
        got = knn_query(KdTree(pts, leaf_size=leaf), pts[10], 4)
        np.testing.assert_array_equal(got.indices, want.indices)
