"""K-nearest-neighbor search over 3D points.

One batched grid search with an exhaustive brute-force twin used as the
test oracle. Both obey the same contract: neighbors ordered by squared
distance ascending, ties broken by lower point index, under-filled
neighborhoods padded by cycling the found neighbors so the result always
has exactly k slots, and, when the radius d excludes every point, the
overall nearest point in all k slots. The radius is a float >= 0, inf for
none; a NaN or negative d, a target with a NaN or infinite coordinate, or
k < 1 is a ValueError. The indexed points must be finite, and their span
must fit in float64.

The search bounds each target's radius before it looks for candidates.
The points are sorted by a 63-bit Morton code of their cells on the
finest grid (Connor & Kumar, IEEE TVCG 2010, build kNN graphs the same
way). r² is the k-th smallest d² among the max(_WINDOW, k) points next to
the target in that order, capped at d²: k real points lie within it, so
it is never below the true k-th d². It is infinite only when d is inf
and k exceeds the point count or d² overflows; then every point is a
candidate.

Cells are cubes whose side is a power of two, from 2**-20 of the cloud's
extent up to a single cell that holds the whole cloud. The points are
quantised once, to int64 cells on the finest grid; a coarser cell index
is the finest one shifted right by the level difference, because
floor(floor(t) / 2**m) == floor(t / 2**m) for t >= 0. Each target uses
the smallest cell at least as wide as r, so its cube [p - r, p + r]
spans at most 3 cells per axis. The grid for each cell size is built on
first use and kept as the points sorted by a (z, y, x) key whose z and y
are cells of that size and whose x is the finest cell. A cube is then at
most 3x3 runs, one per (z, y) cell, each cut to the cube's own x extent
on the finest grid and so one contiguous span of that order; all are
found for all targets with two `searchsorted` calls. r is widened
slightly for the cell bounds only, so that the rounding of d² and of its
root, or a d² that underflows to 0, can add candidates but never drop
one. The candidates' d² is `dx*dx + dy*dy + dz*dz`, the same bits as
`knn_brute`. Those with d² <= r² are ordered by (target, d², index) in
one `lexsort`, and the first k per target are kept.

Every production caller asks the tree for the neighbors of its own
points, one point at a time. So a query for a target equal to one of
the tree's points is answered from a table of all its points for that
(k, d), built by the batched search in blocks of _BLOCK points and kept
with the tree; each answer is a copy of its row. A target finds its row
by its 24 bytes, so a -0.0 where the point has +0.0 takes the one-row
search, with the same answer. k and d are checked, as an int and a
float, once per table, so a hit only looks up its row and table and
copies the row: ~4 µs, against ~0.3 ms for the one-row batch that
answers any other target on a 16,384-point frame. Only tests and demos
make such queries. The class keeps the name `KdTree`, which the package
exports and callers use, although it no longer holds a k-d tree.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import isfinite

import numpy as np

_WINDOW = 17  # Morton-order neighbors whose k-th d² bounds a target's radius (at least k of them)
_BLOCK = 2048  # self-queries per batched search while a table is built
_BITS = 20  # the finest cell is 2**-_BITS of the extent, so a cell index fits in 21 bits per axis


@dataclass(frozen=True)
class NeighborSet:
    """k neighbor slots for one target: indices plus true Euclidean distances."""

    indices: np.ndarray
    distances: np.ndarray


class KdTree:
    """Immutable neighbor index over an (N, 3) array of finite points."""

    def __init__(self, points: np.ndarray):
        points = np.array(points, dtype=np.float64, order="C").reshape(-1, 3)  # C order: a row is 24 bytes
        if len(points) == 0:
            raise ValueError("cannot search zero points")
        self.xyz = points
        self.lo = points.min(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            extent = np.max(points.max(axis=0) - self.lo)
        if not np.isfinite(extent):
            raise ValueError("cannot search non-finite points or points whose span overflows float64")
        exponent = int(np.frexp(extent)[1])  # 2**exponent > extent
        # cell size exponents, the finest (kept to a nonzero float) and the one that holds the cloud (never a float)
        self.levels = (max(exponent - _BITS, -1074), exponent + 1)
        self.cells = _cells(points, self.lo, self.levels[0])
        self.most = self.cells.max(axis=0)  # the largest finest cell per axis, where a cube is clipped
        codes = _morton(self.cells)
        self.morton_order = np.argsort(codes, kind="stable")
        self.codes = codes[self.morton_order]
        self.columns = points.T.copy()
        self.rows = dict(zip(points.view("V24").ravel().tolist(), range(len(points))))
        self._grids: dict[int, tuple] = {}
        self._tables: dict[tuple[int, float], tuple] = {}

    def query(self, target, k: int, d: float = np.inf) -> NeighborSet:
        return knn_query(self, target, k, d)

    def grid(self, level: int) -> tuple[np.ndarray, np.ndarray]:
        """(points in cell-key order, their sorted keys): z and y cells at 2**level, x cells on the finest grid."""
        if level not in self._grids:
            shift = level - self.levels[0]
            keys = _key(self.cells[:, 2] >> shift, self.cells[:, 1] >> shift, self.cells[:, 0])
            order = np.argsort(keys)
            self._grids[level] = (order, keys[order])
        return self._grids[level]

    def table(self, k: int, d: float) -> tuple[np.ndarray, np.ndarray]:
        """(N, k) indices and distances of every point's own query, searched and checked once per (k, d)."""
        try:
            return self._tables[operator.index(k), float(d)]
        except (KeyError, TypeError):  # a new (k, d), or a k that is not an integer, which the check names
            pass
        k, d2max = _check_query(k, d)
        idx, d2 = np.empty((len(self.xyz), k), dtype=np.int64), np.empty((len(self.xyz), k))
        for start in range(0, len(self.xyz), _BLOCK):
            rows = self.morton_order[start:start + _BLOCK]
            idx[rows], d2[rows] = _search(self, self.xyz[rows], k, d2max)
        table = self._tables[k, float(d)] = idx, np.sqrt(d2)
        return table


def _cells(xyz: np.ndarray, lo: np.ndarray, level: int, top=2**_BITS) -> np.ndarray:
    """int64 cell indices of (M, 3) coordinates at cell size 2**level, clipped to [0, top] per axis."""
    return np.clip(np.floor((xyz - lo) / np.ldexp(1.0, level)), 0, top).astype(np.int64)


def _key(z: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (z << 42) | (y << 21) | x


def _morton(cells: np.ndarray) -> np.ndarray:
    """63-bit Morton codes of (M, 3) 21-bit cell indices: bit b of axis a lands at bit 3b + a."""
    spread = cells.copy()
    for shift, mask in ((32, 0x1F00000000FFFF), (16, 0x1F0000FF0000FF), (8, 0x100F00F00F00F00F),
                        (4, 0x10C30C30C30C30C3), (2, 0x1249249249249249)):
        spread = (spread | (spread << shift)) & mask
    return spread[:, 0] | (spread[:, 1] << 1) | (spread[:, 2] << 2)


def _runs(starts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner and position of every element of the runs [starts[i], starts[i] + lengths[i])."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths - starts, lengths)


def _sqdist(columns: np.ndarray, i: np.ndarray, targets: np.ndarray, q: np.ndarray) -> np.ndarray:
    """d² of points i to targets q, both given as (3, ·) axis rows, as dx*dx + dy*dy + dz*dz: knn_brute's bits."""
    dx, dy, dz = (c[i] - t[q] for c, t in zip(columns, targets))
    return dx * dx + dy * dy + dz * dz


@np.errstate(over="ignore")  # a far target's d² or cube bound overflows to inf, which still orders and clips right
def _search(tree: KdTree, targets: np.ndarray, k: int, d2max: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, k) indices and d² of the k nearest points within d2max of each (M, 3) target, padded cyclically."""
    n = len(tree.xyz)
    fine, top = tree.levels
    width = min(max(_WINDOW, k), n)
    pos = np.searchsorted(tree.codes, _morton(_cells(targets, tree.lo, fine)))
    window = tree.morton_order[np.clip(pos - width // 2, 0, n - width)[:, None] + np.arange(width)]
    r2 = np.full(len(targets), d2max)
    if k <= width:
        d2 = _sqdist(tree.columns, window, targets.T, np.arange(len(targets))[:, None])
        r2 = np.minimum(np.partition(d2, k - 1)[:, k - 1], r2)
    # widened past every point whose rounded d² is <= r2: 1e-9 covers the rounding of d² and its root, 2**-500 a d²
    # that underflows; p ± reach then rounds to nearest, which cannot cross a point that p ± reach lies beyond
    reach = np.sqrt(r2) * (1 + 1e-9) + 2.0**-500
    level_of = np.where(np.isinf(reach), top, np.clip(np.frexp(reach)[1], fine, top))
    # the cube's corner cells on the finest grid; at a coarser level, z and y are these shifted right
    lo = _cells(targets - reach[:, None], tree.lo, fine, tree.most)
    hi = _cells(targets + reach[:, None], tree.lo, fine, tree.most)
    owners, candidates = [], []
    for level in np.unique(level_of):
        qs = np.nonzero(level_of == level)[0]
        order, keys = tree.grid(level)
        shift = level - fine
        z, y = lo[qs, 2] >> shift, lo[qs, 1] >> shift
        nz, ny = (hi[qs, 2] >> shift) - z + 1, (hi[qs, 1] >> shift) - y + 1
        pair, j = _runs(np.zeros(len(qs), dtype=np.int64), nz * ny)
        base, q = _key(z[pair] + j // ny[pair], y[pair] + j % ny[pair], 0), qs[pair]
        first = np.searchsorted(keys, base | lo[q, 0])
        run, at = _runs(first, np.searchsorted(keys, base | hi[q, 0], side="right") - first)
        owners.append(q[run])
        candidates.append(order[at])
    cq, ci = np.concatenate(owners), np.concatenate(candidates)
    d2 = _sqdist(tree.columns, ci, targets.T, cq)
    keep = d2 <= r2[cq]
    cq, ci, d2 = cq[keep], ci[keep], d2[keep]
    order = np.lexsort((ci.astype(np.min_scalar_type(n)), d2, cq.astype(np.min_scalar_type(len(targets)))))
    count = np.bincount(cq, minlength=len(targets))
    found = count > 0
    slots = (np.cumsum(count) - count)[found, None] + np.arange(k) % count[found, None]
    idx, dist2 = np.empty((len(targets), k), dtype=np.int64), np.empty((len(targets), k))
    idx[found], dist2[found] = ci[order[slots]], d2[order[slots]]
    if not found.all():  # the radius excludes every point: the overall nearest fills all k slots
        idx[~found], dist2[~found] = _search(tree, targets[~found], 1, np.inf)
    return idx, dist2


def knn_query(tree: KdTree, target, k: int, d: float = np.inf) -> NeighborSet:
    """k nearest indexed points to target within radius d, under the contract above."""
    target = np.asarray(target, dtype=np.float64)
    row = tree.rows.get(target.tobytes())  # only three floats make a row's 24 bytes
    if row is not None:
        idx, dist = tree.table(k, d)
        return NeighborSet(idx[row].copy(), dist[row].copy())
    target = target.reshape(3)
    k, d2max = _check_query(k, d, target.tolist())
    idx, d2 = _search(tree, target[None], k, d2max)
    return NeighborSet(indices=idx[0], distances=np.sqrt(d2[0]))


def _check_query(k: int, d: float, target: list = ()) -> tuple[int, float]:
    """(k, d * d) once k >= 1, the target floats are finite and d >= 0 (inf allowed); else ValueError."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not all(map(isfinite, target)):
        raise ValueError(f"the target must be finite, got {target}")
    d = float(d)
    if not d >= 0:
        raise ValueError(f"radius d must be >= 0, got {d}")
    return operator.index(k), d * d


def knn_table(points, k: int, d: float = np.inf) -> np.ndarray:
    """(N, k) int64 table whose row i is knn_query's indices for point i among the points."""
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    for p in points[~np.isfinite(points).all(axis=1)][:1]:
        _check_query(k, d, p.tolist())  # every point is a target, so a non-finite one fails as a target
    tree = KdTree(points)
    return np.array([knn_query(tree, p, k, d).indices for p in points], dtype=np.int64)


def knn_brute(points, target, k: int, d: float = np.inf) -> NeighborSet:
    """Exhaustive-scan oracle with the same contract as knn_query."""
    target = np.asarray(target, dtype=np.float64).reshape(3)
    k, d2max = _check_query(k, d, target.tolist())
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise ValueError("cannot search zero points")
    d2s = np.sum((points - target) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2s))
    within = order[d2s[order] <= d2max][:k]
    if len(within) == 0:
        within = order[:1]  # radius excludes everything; pad with overall nearest
    pick = within[np.arange(k) % len(within)]
    return NeighborSet(indices=pick.astype(np.int64), distances=np.sqrt(d2s[pick]))
