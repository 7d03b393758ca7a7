"""Per-layer spans for the traced run, recorded from outside the program.

`Tracer.installed()` replaces each traced public function with a timing
wrapper in every `pacfusion` namespace that binds it (so `fusion`'s own
`project_points` is timed as well as `geometry.project_points`), and
puts the originals back on exit. The program's files are not touched.

A span's self time is its duration minus the durations of the traced
calls inside it. `knn_query` runs once per point, so it is aggregated
(count and time) instead of producing one span per call. Spans are kept
in memory and written out once, by `write_spans`.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import oracle

# layer -> public functions traced, by the name the program calls them through
TRACED = {
    "kitti": ("read_velodyne", "read_calib", "read_labels", "read_feature_map",
              "write_feature_map", "write_pgm"),
    "geometry": ("filter_region", "project_points", "subsample"),
    "kdtree": ("knn_query",),
    "fusion": ("fuse_cloud", "retrieve_features", "assemble_neighbors", "pacf_forward",
               "pacf_backward"),
    "losses": ("label_points", "make_sparse_mask", "focal_loss"),
    "cli": ("main",),
}
AGGREGATED = {"kdtree.knn_query"}


def _mlp_flops(params, n_rows: int) -> int:
    """Multiply-adds of one MLP pass over n_rows rows, counted as 2 flops each."""
    widths = params.spec.widths
    return 2 * n_rows * sum(a * b for a, b in zip(widths[:-1], widths[1:]))


def _count(counts, name, args, result) -> None:
    """Counters taken at the layer boundary from arguments and results."""
    if name.startswith("kitti.read_"):
        counts["kitti.bytes_read"] += os.path.getsize(args[0])
    elif name.startswith("kitti.write_"):
        counts["kitti.bytes_written"] += os.path.getsize(args[1])
    elif name == "geometry.filter_region":
        counts["geometry.points_raw"] += len(args[0])
        counts["geometry.points_after_roi"] += len(result[1])
    elif name == "geometry.subsample":
        idx = result[1]
        counts["geometry.points_after_frustum"] += len(args[0])
        counts["geometry.sample_duplicates"] += len(idx) - len(np.unique(idx))
    elif name == "kdtree.knn_query":
        # an under-filled neighbourhood is padded by repeating found indices
        indices = result.indices.tolist()
        if len(set(indices)) < len(indices):
            counts["kdtree.padded_rows"] += 1
    elif name == "fusion.retrieve_features":
        counts["fusion.lookups"] += len(result[1])
        counts["fusion.lookups_valid"] += int(result[1].sum())
    elif name == "fusion.assemble_neighbors":
        counts["fusion.rows_bytes"] += result.rows.nbytes
        counts["fusion.lookups"] += result.valid.size
        counts["fusion.lookups_valid"] += int(result.valid.sum())
    elif name == "fusion.pacf_forward":
        n, k, _ = args[0].rows.shape
        counts["fusion.mlp_flops"] += _mlp_flops(args[1], n * k)
    elif name == "fusion.pacf_backward":
        n, k, _ = args[0].rows.shape
        # weight gradients plus input gradients: two products per forward product
        counts["fusion.mlp_flops"] += 2 * _mlp_flops(args[1], n * k)
    elif name == "losses.make_sparse_mask":
        counts["losses.supervised_pixels"] += int(result.supervised.sum())
        # denominator of losses.mask_stamp_ratio, from the benchmark's own projection
        counts["losses.projected_points"] += int(oracle.project(args[0].xyz)[3].sum())


class Tracer:
    """Spans and counters of the traced calls, grouped by iteration."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self._stack: list[list] = []  # [span index, seconds spent in traced children]
        self._counts: dict[str, float] = defaultdict(float)  # cleared, never replaced
        self._iteration = 0

    def _wrap(self, name, fn):
        self_key, calls_key = f"{name}.self_s", f"{name}.calls"
        counts = self._counts
        if name in AGGREGATED:
            def aggregated(*args, **kwargs):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                t1 = time.perf_counter()
                counts[self_key] += t1 - t0
                counts[calls_key] += 1
                _count(counts, name, args, result)
                if self._stack:
                    self._stack[-1][1] += time.perf_counter() - t0
                return result

            return aggregated

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append([index, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = self._stack.pop()[1]
                counts[self_key] += t1 - t0 - child
                counts[calls_key] += 1
                self.spans[index] = {
                    "iteration": self._iteration, "name": name, "start": t0, "end": t1,
                    "self_s": t1 - t0 - child,
                    "parent": self._stack[-1][0] if self._stack else None,
                }
            _count(counts, name, args, result)
            t2 = time.perf_counter()
            counts["trace.count_s"] += t2 - t1
            if self._stack:
                # the caller's self time excludes this call and its counting
                self._stack[-1][1] += t2 - t0
            return result

        return traced

    @contextmanager
    def installed(self):
        """Trace the TRACED functions (and `KdTree` construction) while the block runs."""
        import pacfusion
        from pacfusion import cli, fusion, geometry, kdtree, kitti, losses

        modules = {"kitti": kitti, "geometry": geometry, "kdtree": kdtree, "fusion": fusion,
                   "losses": losses, "cli": cli}
        namespaces = [pacfusion, *modules.values()]
        patched = []
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                bindings = [(ns, attr) for ns in namespaces
                            for attr, value in vars(ns).items() if value is original]
                for ns, attr in bindings:
                    setattr(ns, attr, wrapper)
                    patched.append((ns, attr, original))
        init = kdtree.KdTree.__init__
        kdtree.KdTree.__init__ = self._wrap("kdtree.build", init)
        try:
            yield self
        finally:
            kdtree.KdTree.__init__ = init
            for ns, attr, original in patched:
                setattr(ns, attr, original)

    def finish_iteration(self) -> dict[str, float]:
        """Counters of the iteration that just ended; starts the next one."""
        counts = dict(self._counts)
        self._counts.clear()  # wrappers hold this dict
        self._iteration += 1
        return counts

    def write_spans(self, path) -> None:
        """Write every span recorded so far, one JSON object per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
