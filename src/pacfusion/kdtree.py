"""K-nearest-neighbor search over 3D points.

A median-split k-d tree (axis cycling x -> y -> z) with an exhaustive
brute-force twin used as the test oracle. Both obey the same contract:
neighbors ordered by squared distance ascending, ties broken by lower
point index, under-filled neighborhoods padded by cycling the found
neighbors so the result always has exactly k slots.

The tree is stored flat, as Python lists indexed by node id: split axis
(-1 for a leaf), split value, child ids, and the node's [start, end)
range in a leaf-ordered permutation of the points, whose coordinates are
kept as three lists of Python floats. A leaf scan's `dx*dx + dy*dy +
dz*dz` gives the same bits as `knn_brute`'s numpy sum.

The search (Friedman, Bentley & Finkel 1977) walks the tree with an
explicit stack, nearer child first. It skips a subtree only when the
squared distance to its split plane is strictly greater than min(k-th
d² found so far, d²max). A subtree exactly at that bound is visited: it
may hold a point at the k-th distance with a lower index, which wins the
tie. Float subtraction, squaring and adding non-negative terms are
monotone, so the plane distance never exceeds a point's rounded d².
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

DEFAULT_LEAF_SIZE = 16


@dataclass(frozen=True)
class NeighborSet:
    """k neighbor slots for one target: indices plus true Euclidean distances."""

    indices: np.ndarray
    distances: np.ndarray


class KdTree:
    """Immutable balanced k-d tree over an (N, 3) point array."""

    def __init__(self, points: np.ndarray, leaf_size: int = DEFAULT_LEAF_SIZE):
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if len(points) == 0:
            raise ValueError("cannot build a k-d tree over zero points")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.points = points
        self.leaf_size = leaf_size
        perm = np.arange(len(points))
        nodes: list[tuple] = []
        self.root = self._build(perm, 0, len(points), 0, nodes)
        self.axis, self.split, self.left, self.right, self.start, self.end = map(list, zip(*nodes))
        self.perm: list[int] = perm.tolist()
        self.xs, self.ys, self.zs = points[perm].T.tolist()

    def _build(self, perm: np.ndarray, lo: int, hi: int, depth: int, nodes: list) -> int:
        """Append the subtree over perm[lo:hi] to nodes, children first; return its id.

        Each internal node sorts its span of perm in place, so every node's
        points end up contiguous and the leaves tile perm in order.
        """
        if hi - lo <= self.leaf_size:
            nodes.append((-1, 0.0, -1, -1, lo, hi))
            return len(nodes) - 1
        axis = depth % 3
        span = perm[lo:hi]
        span[:] = span[np.argsort(self.points[span, axis], kind="stable")]
        mid = (lo + hi) // 2
        split = float(self.points[perm[mid], axis])
        left = self._build(perm, lo, mid, depth + 1, nodes)
        right = self._build(perm, mid, hi, depth + 1, nodes)
        nodes.append((axis, split, left, right, lo, hi))
        return len(nodes) - 1

    def query(self, target, k: int, d: float = np.inf) -> NeighborSet:
        return knn_query(self, target, k, d)


def _finalize(found: list, k: int) -> NeighborSet:
    """NeighborSet from (d2, index) pairs in ascending order, padded cyclically to k."""
    if not found:
        return NeighborSet(indices=np.zeros(k, dtype=np.int64), distances=np.zeros(k))
    if len(found) < k:
        found = [found[j % len(found)] for j in range(k)]
    d2s, indices = zip(*found)
    return NeighborSet(indices=np.array(indices, dtype=np.int64), distances=np.sqrt(np.array(d2s)))


def _search(tree: KdTree, target: list, k: int, d2max: float) -> list:
    """Up to k smallest (d2, index) pairs with d2 <= d2max, in ascending order."""
    axis, split, left, right = tree.axis, tree.split, tree.left, tree.right
    start, end, perm = tree.start, tree.end, tree.perm
    xs, ys, zs = tree.xs, tree.ys, tree.zs
    tx, ty, tz = target
    found: list[tuple[float, int]] = []
    bound = d2max  # min(k-th d2 found so far, d2max)
    stack = [(tree.root, 0.0)]  # (node, squared distance to the plane that separates it)
    while stack:
        node, gap = stack.pop()
        if gap > bound:
            continue
        a = axis[node]
        while a >= 0:
            delta = target[a] - split[node]
            near, far = (right[node], left[node]) if delta >= 0 else (left[node], right[node])
            if delta * delta <= bound:
                stack.append((far, delta * delta))
            node = near
            a = axis[node]
        for j in range(start[node], end[node]):
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
    """k nearest indexed points to target within radius d.

    If fewer than k points lie within d, the found neighbors are repeated
    cyclically to fill all k slots; the result is never empty because a
    tree holds at least one point (unless d excludes everything, in which
    case the overall nearest point pads all slots).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    target = np.asarray(target, dtype=np.float64).reshape(3).tolist()
    d = float(d)
    found = _search(tree, target, k, d * d if math.isfinite(d) else math.inf)
    if not found:
        found = _search(tree, target, 1, math.inf)
    return _finalize(found, k)


def knn_brute(points, target, k: int, d: float = np.inf) -> NeighborSet:
    """Exhaustive-scan oracle with the same contract as knn_query."""
    if k < 1:
        raise ValueError("k must be >= 1")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("cannot search zero points")
    target = np.asarray(target, dtype=np.float64).reshape(3)
    d2s = np.sum((points - target) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2s))
    d2max = d * d if np.isfinite(d) else np.inf
    within = order[d2s[order] <= d2max]
    if len(within) == 0:
        within = order[:1]  # radius excludes everything; pad with overall nearest
    return _finalize([(d2s[i], int(i)) for i in within[:k]], k)
