"""K-nearest-neighbor search over 3D points.

A median-split k-d tree (axis cycling x -> y -> z) with an exhaustive
brute-force twin used as the test oracle. Both obey the same contract:
neighbors ordered by squared distance ascending, ties broken by lower
point index, under-filled neighborhoods padded by cycling the found
neighbors so the result always has exactly k slots, and, when the radius
d excludes every point, the overall nearest point in all k slots. The
radius is a float >= 0, inf for none; a NaN or negative d, a target with
a NaN or infinite coordinate, or k < 1 is a ValueError.

The tree is implicit in a permutation of the points. A node is a span
[lo, hi) of it, split on axis depth % 3 at mid = (lo + hi) // 2, or a
leaf of at most _LEAF points. The build stable-sorts each internal span
by its axis and records the coordinate then at mid in split[mid]: sorting
the children moves other points there. Internal mids are distinct (each
lies strictly inside its span, which its children split at it). A leaf
scan over the permuted coordinates, kept as Python floats, gives the same
bits as `knn_brute`'s numpy sum.

The search (Friedman, Bentley & Finkel 1977) walks an explicit stack,
nearer child first. It skips a subtree only when the squared distance to
its split plane is strictly greater than min(k-th d² so far, d²max): at
exactly that bound a lower index may tie the k-th distance and win.
Float subtraction, squaring and adding non-negative terms are monotone,
so the plane distance never exceeds a point's rounded d².
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import isfinite

import numpy as np

_LEAF = 16  # a span of at most this many points is scanned, not split


@dataclass(frozen=True)
class NeighborSet:
    """k neighbor slots for one target: indices plus true Euclidean distances."""

    indices: np.ndarray
    distances: np.ndarray


class KdTree:
    """Immutable balanced k-d tree over an (N, 3) point array."""

    def __init__(self, points: np.ndarray):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot build a k-d tree over zero points")
        perm = np.arange(len(points))
        self.split = [0.0] * len(points)
        spans = [(0, len(points), 0)]
        while spans:
            lo, hi, depth = spans.pop()
            if hi - lo > _LEAF:
                axis, mid = depth % 3, (lo + hi) // 2
                span = perm[lo:hi]
                span[:] = span[np.argsort(points[span, axis], kind="stable")]
                self.split[mid] = float(points[perm[mid], axis])
                spans += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
        self.perm: list[int] = perm.tolist()
        self.xs, self.ys, self.zs = points[perm].T.tolist()

    def query(self, target, k: int, d: float = np.inf) -> NeighborSet:
        return knn_query(self, target, k, d)


def _finalize(found: list, k: int) -> NeighborSet:
    """NeighborSet from a non-empty list of (d2, index) pairs in ascending order, padded cyclically to k."""
    d2s, indices = zip(*(found * k)[:k])
    return NeighborSet(indices=np.array(indices, dtype=np.int64), distances=np.sqrt(np.array(d2s)))


def _search(tree: KdTree, target: list, k: int, d2max: float) -> list:
    """Up to k smallest (d2, index) pairs with d2 <= d2max, in ascending order."""
    split, perm, xs, ys, zs = tree.split, tree.perm, tree.xs, tree.ys, tree.zs
    tx, ty, tz = target
    found: list[tuple[float, int]] = []
    bound = d2max  # min(k-th d2 found so far, d2max)
    stack = [(0, len(perm), 0, 0.0)]  # (lo, hi, depth, squared distance to the plane that separates the span)
    while stack:
        lo, hi, depth, gap = stack.pop()
        if gap > bound:
            continue
        while hi - lo > _LEAF:
            mid = (lo + hi) // 2
            delta = target[depth % 3] - split[mid]
            depth += 1
            if delta >= 0:
                if delta * delta <= bound:
                    stack.append((lo, mid, depth, delta * delta))
                lo = mid
            else:
                if delta * delta <= bound:
                    stack.append((mid, hi, depth, delta * delta))
                hi = mid
        for j in range(lo, hi):
            dx = xs[j] - tx
            dy = ys[j] - ty
            dz = zs[j] - tz
            d2 = dx * dx + dy * dy + dz * dz
            if d2 <= bound and (len(found) < k or (d2, perm[j]) < found[-1]):
                insort(found, (d2, perm[j]))
                if len(found) > k:
                    found.pop()
                if len(found) == k:
                    bound = found[-1][0]
    return found


def knn_query(tree: KdTree, target, k: int, d: float = np.inf) -> NeighborSet:
    """k nearest indexed points to target within radius d, under the contract above."""
    target = np.asarray(target, dtype=np.float64).reshape(3).tolist()
    found = _search(tree, target, k, _check_query(target, k, d)) or _search(tree, target, 1, np.inf)
    return _finalize(found, k)


def _check_query(target: list, k: int, d: float) -> float:
    """d * d, once k >= 1, the three target floats are finite and d >= 0 (inf allowed); else ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not all(map(isfinite, target)):
        raise ValueError(f"the target must be finite, got {target}")
    d = float(d)
    if not d >= 0:
        raise ValueError(f"radius d must be >= 0, got {d}")
    return d * d


def knn_table(points, k: int, d: float = np.inf) -> np.ndarray:
    """(N, k) int64 table whose row i is knn_query's indices for point i among the points."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    tree = KdTree(points)
    return np.array([knn_query(tree, p, k, d).indices for p in points], dtype=np.int64)


def knn_brute(points, target, k: int, d: float = np.inf) -> NeighborSet:
    """Exhaustive-scan oracle with the same contract as knn_query."""
    target = np.asarray(target, dtype=np.float64).reshape(3)
    d2max = _check_query(target.tolist(), k, d)
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("cannot search zero points")
    d2s = np.sum((points - target) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2s))
    within = order[d2s[order] <= d2max]
    if len(within) == 0:
        within = order[:1]  # radius excludes everything; pad with overall nearest
    return _finalize([(d2s[i], int(i)) for i in within[:k]], k)
