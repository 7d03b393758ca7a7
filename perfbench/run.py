"""PACF fusion benchmark: one workload per run, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fuse-v1 --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen): fuse-v1, v2-maskgen,
train-step; `--workload all` runs each in turn, in its own process. With
--trace 0 a run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced iterations and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The last stdout line of a run is one JSON object: {"correct",
"attempted", "failed", "metrics"}. The line before it, {"detail": ...},
holds the quartiles, sample counts, frame counts and reference numbers.
The exit code is 0 when every output passed its oracle check, 1 when one
failed and 2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("fuse-v1", "v2-maskgen", "train-step")
SETUP_REPEATS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("frame_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("kitti.read_velodyne.self_s", "s"),
    ("kitti.read_feature_map.self_s", "s"),
    ("kitti.read_calib.self_s", "s"),
    ("kitti.read_labels.self_s", "s"),
    ("kitti.write_feature_map.self_s", "s"),
    ("kitti.write_pgm.self_s", "s"),
    ("kitti.bytes_read", "B"),
    ("kitti.bytes_written", "B"),
    ("geometry.filter_region.self_s", "s"),
    ("geometry.project_points.self_s", "s"),
    ("geometry.project_points.calls", "count"),
    ("geometry.subsample.self_s", "s"),
    ("geometry.points_raw", "count"),
    ("geometry.points_after_roi", "count"),
    ("geometry.points_after_frustum", "count"),
    ("geometry.sample_duplicates", "count"),
    ("kdtree.build.self_s", "s"),
    ("kdtree.knn_query.self_s", "s"),
    ("kdtree.knn_query.calls", "count"),
    ("kdtree.query_us", "us"),
    ("kdtree.padded_rows", "count"),
    ("fusion.fuse_cloud.self_s", "s"),
    ("fusion.retrieve_features.self_s", "s"),
    ("fusion.assemble_neighbors.self_s", "s"),
    ("fusion.pacf_forward.self_s", "s"),
    ("fusion.pacf_backward.self_s", "s"),
    ("fusion.mlp_flops", "flop"),
    ("fusion.rows_bytes", "B"),
    ("fusion.semantic_valid_frac", "ratio"),
    ("losses.label_points.self_s", "s"),
    ("losses.make_sparse_mask.self_s", "s"),
    ("losses.focal_loss.self_s", "s"),
    ("losses.supervised_pixels", "count"),
    ("losses.mask_stamp_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("cli.main.calls", "count"),
    ("setup.kdtree.build.self_s", "s"),
    ("setup.kdtree.knn_query.self_s", "s"),
    ("setup.kdtree.knn_query.calls", "count"),
    ("setup.kdtree.query_us", "us"),
    ("trace.frame_s", "s"),
    ("trace.untraced_frame_s", "s"),
    ("trace.overhead_s", "s"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(c: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its counters."""
    knn_calls = c.get("kdtree.knn_query.calls", 0.0)
    passes = c.get("geometry.filter_region.calls", 0.0)
    draws = c.get("geometry.subsample.calls", 0.0)
    derived = {
        "kdtree.query_us": 1e6 * _ratio(c.get("kdtree.knn_query.self_s", 0.0), knn_calls),
        # frame-shape counts are per pipeline pass, so two CLI calls on one frame count once
        "geometry.points_raw": _ratio(c.get("geometry.points_raw", 0.0), passes),
        "geometry.points_after_roi": _ratio(c.get("geometry.points_after_roi", 0.0), passes),
        "geometry.points_after_frustum": _ratio(c.get("geometry.points_after_frustum", 0.0), draws),
        "fusion.semantic_valid_frac": _ratio(c.get("fusion.lookups_valid", 0.0), c.get("fusion.lookups", 0.0)),
        "losses.mask_stamp_ratio": _ratio(c.get("losses.supervised_pixels", 0.0),
                                          c.get("losses.projected_points", 0.0)),
    }
    return {name: derived.get(name, c.get(name, 0.0)) for name, _ in PER_LAYER}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _src_lines(root: Path) -> int:
    """`wc -l` over the program's Python sources."""
    return sum(p.read_bytes().count(b"\n") for p in sorted((root / "src").rglob("*.py")))


def _ckdtree_seconds(xyz, k: int) -> float:
    """scipy cKDTree build plus the same k-NN queries, median of five (reference only)."""
    try:
        from scipy.spatial import cKDTree
    except ImportError:
        return 0.0
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        cKDTree(xyz).query(xyz, k=k)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_seconds(root: Path) -> float:
    """Time `import pacfusion.cli` (numpy with it) in a fresh interpreter, as a user's first call pays it."""
    code = "import time; t = time.perf_counter(); import pacfusion.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, traced: bool, tracer) -> dict:
    """Closed loop with one client: prepare, time one call, check, repeat."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    cpus: dict[bool, list[float]] = {False: [], True: []}
    per_iter: list[dict[str, float]] = []
    frame_counts: list[dict[str, float]] = []
    failures: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    # a traced run needs at least one untraced and one traced iteration
    while attempted < 1 + traced or time.perf_counter() - start < seconds:
        trace_this = traced and attempted % 2 == 1
        inputs = workload.prepare(attempted)
        problems = []
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if trace_this:
                with tracer.installed():
                    result = workload.run(inputs)
            else:
                result = workload.run(inputs)
        except Exception:  # a crash in the program counts as a failed iteration
            problems = [traceback.format_exc()]
        w1, c1 = time.perf_counter(), time.process_time()
        if trace_this:
            per_iter.append(tracer.finish_iteration())
        attempted += 1
        walls[trace_this].append(w1 - w0)
        cpus[trace_this].append(c1 - c0)
        if not problems:
            try:
                problems, counts = workload.check(inputs, result)
                frame_counts.append(counts)
            except Exception:  # a missing or unreadable output file
                problems = [traceback.format_exc()]
        if problems:
            failed += 1
            failures.extend(f"iteration {attempted - 1}: {p}" for p in problems[:3])
            for p in problems[:3]:
                print(f"check failed, iteration {attempted - 1}: {p}", file=sys.stderr)
        # the harness holds no output while the next iteration runs, so peak_rss_mb is the program's
        inputs = result = None
    return {"walls": walls, "cpus": cpus, "per_iter": per_iter, "frame_counts": frame_counts,
            "failures": failures, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"),
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOAD_NAMES
        ]
        return max(codes)

    root = Path.cwd()
    package = root / "src" / "pacfusion"
    if not (package / "__init__.py").is_file():
        print(f"error: no program to measure: {package} not found; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:  # before numpy loads: the run uses at most nproc threads
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(root / "src"), str(HERE)]

    import pacfusion.cli  # noqa: F401  (numpy comes with it)
    if Path(pacfusion.__file__).resolve().parent != package.resolve():
        print(f"error: imported pacfusion from {pacfusion.__file__}, not {package}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = tracing.Tracer()
        import_times, setup_times = [], []
        # a set-up is a fresh import plus the workload's set-up; a traced run traces its one set-up
        for _ in range(1 if args.trace else SETUP_REPEATS):
            import_times.append(import_seconds(root))
            t = time.perf_counter()
            with tracer.installed() if args.trace else contextlib.nullcontext():
                workload.setup()
            setup_times.append(time.perf_counter() - t)
        setup_layers = layer_values(tracer.finish_iteration())
        setup_problems = workload.setup_failures()

        run = measure(workload, args.seconds, bool(args.trace), tracer)
        if args.trace:
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write_spans(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted, failed = run["attempted"], run["failed"]
    if setup_problems:
        failed = attempted  # every iteration reads what set-up built
        for p in setup_problems:
            print(f"set-up check failed: {p}", file=sys.stderr)
    frame_counts = {
        name: statistics.median(c[name] for c in run["frame_counts"])
        for name in (run["frame_counts"][0] if run["frame_counts"] else {})
    }
    untraced = run["walls"][False]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "iterations": attempted, "failed_frac": failed / attempted,
        "failures": (setup_problems + run["failures"])[:10],
        "frame_s_quartiles": quartiles(untraced), "frame_s_samples": len(untraced),
        "cpu_s_quartiles": quartiles(run["cpus"][False]),
        "import_runs_s": import_times, "setup_runs_s": setup_times,
        "frame_counts": frame_counts,
        "git_revision": _git_revision(root), "src_lines": _src_lines(root),
        "nproc": nproc, "blas_threads": int(os.environ[BLAS_ENV[0]]),
    }
    if args.trace:
        traced_s = statistics.median(run["walls"][True])
        values = {name: statistics.median(layer_values(c)[name] for c in run["per_iter"])
                  for name, _ in PER_LAYER}
        values |= {f"setup.{name}": setup_layers[name] for name in
                   ("kdtree.build.self_s", "kdtree.knn_query.self_s", "kdtree.knn_query.calls",
                    "kdtree.query_us")}
        values |= {
            "trace.frame_s": traced_s,
            "trace.untraced_frame_s": statistics.median(untraced),
            "trace.overhead_s": traced_s - statistics.median(untraced),
        }
        detail |= {
            "trace_count_s": statistics.median(c.get("trace.count_s", 0.0) for c in run["per_iter"]),
            "ckdtree_s": _ckdtree_seconds(workload.last_sample.xyz, workloads.K),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(i + s for i, s in zip(import_times, setup_times)),
            "frame_s": statistics.median(untraced),
            "cpu_s": statistics.median(run["cpus"][False]),
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
