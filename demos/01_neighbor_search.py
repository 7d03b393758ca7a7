#!/usr/bin/env python3
"""Nearest-neighbor search over a synthetic LIDAR scene.

Indexes random points in the default region of concern with `KdTree`
(a batched grid search under the historical name), queries a few targets,
and cross-checks against the brute-force scan.
"""

import numpy as np

from pacfusion import KdTree, knn_brute, knn_query

rng = np.random.default_rng(0)
points = rng.uniform([0, -40, -1], [70.4, 40, 3], size=(5000, 3))

tree = KdTree(points)

target = points[42]
res = knn_query(tree, target, k=3)
print("target is point 42; neighbors:", res.indices, "distances:", np.round(res.distances, 3))
assert res.indices[0] == 42 and res.distances[0] == 0.0  # ego point comes first

# a tight radius forces padding by repetition
res_tight = knn_query(tree, target, k=3, d=0.05)
print("with d=0.05 m:", res_tight.indices, "(under-filled slots repeat)")

# the index agrees with the exhaustive oracle everywhere
for t in rng.uniform([0, -40, -1], [70.4, 40, 3], size=(50, 3)):
    a = knn_query(tree, t, k=5)
    b = knn_brute(points, t, k=5)
    assert np.array_equal(a.indices, b.indices)
print("50 random queries match the brute-force oracle")
