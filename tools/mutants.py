"""Mutation audit: every one-line mutant of src/ must fail the tests mapped to it.

Each mutant is (file, old text, new text, tests, reason); the tests are
test files or pytest node ids. For each, the audit copies src/ and tests/
to a temporary directory, replaces the old text, which must occur exactly
once, and runs pytest on the mapped tests there, so the checkout is only
read. The mutants run concurrently, one per usable CPU, and are reported
in list order. A mutant whose tests pass has survived. A mutant with a
reason is marked equivalent: it must survive, and the reason says why no
test can tell it apart. Any other mutant must be killed.

Usage: python tools/mutants.py
Exits 0 when every mutant ends as the list expects, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CLI, FUSION, GEOMETRY, GRADCHECK, KDTREE, KITTI, LOSSES, TYPES = (f"src/pacfusion/{name}.py" for name in (
    "cli", "fusion", "geometry", "gradcheck", "kdtree", "kitti", "losses", "types"))
PARAMS_IO, REFERENCE_BITS = (f"tests/test_fusion.py::{cls}" for cls in ("TestParamsIO", "TestReferenceBits"))
ORACLE = "tests/test_kdtree.py::test_oracle_equivalence"
CUT_LAYOUT = "tests/test_geometry.py::test_cuts_return_contiguous_arrays"
DECODE_LAYOUT = "tests/test_kitti_io.py::TestVelodyne::test_decode_widens_into_contiguous_arrays"
WORK = "tests/test_kdtree.py::test_knn_table_work_is_pinned[uniform]"
ORACLE_CASES = ("uniform", "lattice", "duplicated", "k_above_n", "radius_excludes_all")

MUTANTS = [
    # the image's right and bottom edges are open
    (GEOMETRY, "(u < width)", "(u <= width)", ["tests/test_geometry.py"], None),
    # a point on a box face is inside
    (GEOMETRY, "(np.abs(lx) <= box.l / 2)", "(np.abs(lx) < box.l / 2)", ["tests/test_geometry.py"], None),
    (KITTI, "_ORTHO_TOL = 1e-3", "_ORTHO_TOL = 1e-1", ["tests/test_kitti_io.py"], None),
    (CLI, "mismatches += 1", "mismatches += 0", ["tests/test_cli.py"], None),
    (CLI, "0.5 < span / BEV_RESOLUTION", "0.4 < span / BEV_RESOLUTION", ["tests/test_cli.py"], None),
    (CLI, "BEV_RESOLUTION).astype(int), 0, h - 1)", "BEV_RESOLUTION).astype(int), 0, h)", ["tests/test_cli.py"], None),
    (CLI, "values.max() > 0", "values.max() >= 0", ["tests/test_cli.py"], None),
    # n of n points is a seeded permutation, not the identity
    (GEOMETRY, "if count >= n:", "if count > n:", ["tests/test_geometry.py"], None),
    (KITTI, ".max() > _MAX_ABS:", ".max() >= 2 * _MAX_ABS:", ["tests/test_kitti_io.py"], None),
    (KITTI, "if len(fields) < 15:", "if len(fields) < 14:", ["tests/test_kitti_io.py"], None),
    (GRADCHECK, "abs(numeric), 1e-8)", "abs(numeric), 1e-2)", ["tests/test_gradcheck.py"], None),
    # a probe is excused only within half the one-sided gap plus rounding, and an array needs a judged probe
    (GRADCHECK, "+ f_minus) / 2 +", "+ f_minus) / 4 +", ["tests/test_gradcheck.py"], None),
    (GRADCHECK, "ROUNDING = 8 *", "ROUNDING = 0 *", ["tests/test_gradcheck.py"], None),
    (GRADCHECK, "worst = np.inf", "worst = max(worst, 0.0)", ["tests/test_gradcheck.py"], None),
    # the PACF instances have K = 3, and the kink seeds are seeds of those draws
    (GRADCHECK, "dims.d_o), 3,", "dims.d_o), 4,",
     ["tests/test_gradcheck.py::test_correct_gradients_pass_across_kinks_and_rounding[24]"], None),
    # the windows of 1 and 2 points are the cases that search with k > _WINDOW
    (KDTREE, "width = min(max(_WINDOW, k), n)", "width = min(_WINDOW, n)",
     [f"{ORACLE}[{case}-leaf{leaf}]" for case in ORACLE_CASES for leaf in (1, 2)],
     "for k > _WINDOW no radius bound is taken, so the search is slower, the table the same"),
    # every block of a table is searched; the cube reaches r past the target; a level's z and y cells are the
    # finest cells shifted right by the level, clipped to the finest maximum; each run starts at the cube's x
    (KDTREE, "rows = self.morton_order[start:start + _BLOCK]", "rows = self.morton_order[:_BLOCK]",
     ["tests/test_kdtree.py"], None),
    (KDTREE, "_cells(targets + reach[:, None],", "_cells(targets + reach[:, None] / 2,", ["tests/test_kdtree.py"], None),
    (KDTREE, "shift = level - fine", "shift = level - fine + 1", ["tests/test_kdtree.py"], None),
    (KDTREE, "self.most = self.cells.max(axis=0)", "self.most = self.cells.max(axis=0) - 1", ["tests/test_kdtree.py"],
     None),
    (KDTREE, "first = np.searchsorted(keys, base | lo[q, 0])", "first = np.searchsorted(keys, base | lo[q, 0] + 1)",
     ["tests/test_kdtree.py"], None),
    # each mutant leaves every table the same and makes the search evaluate more d²: a wider cube, a Morton code
    # whose y bits collide with z's, an extra z cell per cube
    (KDTREE, "np.sqrt(r2) * (1 + 1e-9)", "np.sqrt(r2) * (2 + 1e-9)", [WORK], None),
    (KDTREE, "(spread[:, 1] << 1)", "(spread[:, 1] << 2)", [WORK], None),
    (KDTREE, "(hi[qs, 2] >> shift) - z + 1", "(hi[qs, 2] >> shift) - z + 2", [WORK], None),
    # k and d are checked once per table, before it is built
    (KDTREE, "k, d2max = _check_query(k, d)\n", "k, d2max = operator.index(k), float(d) ** 2\n",
     ["tests/test_kdtree.py"], None),
    # a DontCare box with a corner exactly on the near plane still clears its extent
    (LOSSES, "(hom[:, 2] >= NEAR_DEPTH)", "(hom[:, 2] > NEAR_DEPTH)",
     ["tests/test_geometry.py::test_box_with_a_corner_before_the_near_plane_has_no_extent"], None),
    # a PACF header fault is named exactly: a short header, extra payload bytes
    (KITTI, "if len(raw) < 18 or", "if len(raw) < 17 or", ["tests/test_kitti_io.py"], None),
    (KITTI, "if len(raw) - 18 != expected:", "if len(raw) - 18 < expected:", ["tests/test_kitti_io.py"], None),
    (LOSSES, "return loss, grad, False", "return loss, grad, count < 0", ["tests/test_losses.py"],
     "count is at least 1 on that line, so the flag is False either way"),
    # the mask's grey levels are 0, 128 and 255, and a state outside {0, 1, 2} is rejected
    (LOSSES, "state * np.uint8(127)", "state * np.uint8(126)", ["tests/test_losses.py"], None),
    (LOSSES, 'kind not in "biu":', 'kind not in "biuf":', ["tests/test_losses.py"], None),
    (LOSSES, "value <= FOREGROUND:", "value <= FOREGROUND + 1:", ["tests/test_losses.py"], None),
    (LOSSES, "if not UNSUPERVISED <= value", "if not UNSUPERVISED - 1 <= value", ["tests/test_losses.py"], None),
    # within a pixel the points stay in index order, so the lower index wins a depth tie
    (LOSSES, 'np.argsort(keys, kind="stable")', "np.argsort(keys)", ["tests/test_losses.py"], None),
    # a checkpoint is written as version 1, and a header-only file is a payload fault
    (FUSION, "PARAMS_VERSION = 1", "PARAMS_VERSION = 2", [PARAMS_IO], None),
    (FUSION, "if len(raw) < pos:", "if len(raw) <= pos:", [f"{PARAMS_IO}::test_malformed_container"], None),
    # 257 slots need a uint16 argmax; a tail shorter than a block joins the block before it
    (FUSION, "np.min_scalar_type(k - 1)", "np.min_scalar_type(k - 2)",
     [f"{REFERENCE_BITS}::test_slot_256_at_k257_matches_references"], None),
    (FUSION, "range(0, n - _BLOCK + 1, _BLOCK) or [0]", "range(0, n, _BLOCK)",
     [f"{REFERENCE_BITS}::test_block_partition"], None),
    (FUSION, "n - _BLOCK + 1, _BLOCK)", "n - _BLOCK + 2, _BLOCK)", [f"{REFERENCE_BITS}::test_block_partition"], None),
    # a Car box of zero height or width is rejected; a yaw of exactly +-pi and a reflectance of exactly 1.0 are valid
    (TYPES, "self.h <= 0", "self.h < 0", ["tests/test_types.py"], None),
    (TYPES, "self.w <= 0", "self.w < 0", ["tests/test_types.py"], None),
    (TYPES, "(-np.pi <= self.ry", "(-np.pi < self.ry", ["tests/test_types.py::TestBox3D::test_bad_yaw"], None),
    (TYPES, "self.ry <= np.pi)", "self.ry < np.pi)", ["tests/test_types.py::TestBox3D::test_bad_yaw"], None),
    (TYPES, "self.reflectance.max() <= 1.0", "self.reflectance.max() < 1.0", ["tests/test_types.py"], None),
    # the documented exit codes 2 and 3; a seed of 0 and a count of 1 are valid; gradcheck checks 20 instances
    (CLI, "EXIT_FORMAT = 2", "EXIT_FORMAT = 3", ["tests/test_cli.py::test_format_error_exit_code"], None),
    (CLI, "EXIT_VERIFY = 3", "EXIT_VERIFY = 4", ["tests/test_cli.py::test_knn_verify"], None),
    (CLI, "if value < 0:", "if value < 1:", ["tests/test_cli.py::test_seed_zero_is_the_default"], None),
    (CLI, "if not 1 <= value", "if not 2 <= value", ["tests/test_cli.py::test_count_flag_of_one_runs"], None),
    (CLI, "default=20)", "default=21)", ["tests/test_cli.py::test_gradcheck_checks_20_instances_by_default"], None),
    # a checkpoint sets its own K, so --k with --params is rejected; a checkpoint of another row width is rejected
    (CLI, "and args.k is not None:", "and args.k is None:",
     ["tests/test_cli.py::test_fuse_takes_k_from_the_checkpoint",
      "tests/test_cli.py::test_fuse_rejects_k_with_params"], None),
    (CLI, ".spec.d_i != d_i:", ".spec.d_i < d_i:", ["tests/test_cli.py::test_fuse_checkpoint_mismatch_before_knn"], None),
    # an empty scan is named at the ROI crop, not at the frustum filter
    (CLI, "if len(cloud) == 0:\n        raise ValueError(f\"{args.velodyne}: 0 points after",
     "if len(cloud) == 1:\n        raise ValueError(f\"{args.velodyne}: 0 points after",
     ["tests/test_cli.py::test_empty_scan_exit_code"], None),
    # a point within one pixel of the ROI's upper x or y bound lands in row or column 0
    (CLI, "astype(int), 0, h - 1)", "astype(int), 1, h - 1)",
     ["tests/test_cli.py::test_bev_render_clips_points_on_the_roi_bounds[upper]"], None),
    (CLI, "astype(int), 0, w - 1)", "astype(int), 1, w - 1)",
     ["tests/test_cli.py::test_bev_render_clips_points_on_the_roi_bounds[upper]"], None),
    # one point is a sample; an ROI axis of equal bounds is empty; alpha = 1 is no focal weight, gamma = 0 is one and
    # an infinite gamma is not; a result file's score after the 15 label fields is ignored
    (GEOMETRY, "if n < 1:", "if n <= 1:", ["tests/test_geometry.py::TestSubsample::test_one_point"], None),
    *((GEOMETRY, f"self.{axis}_min < self.{axis}_max", f"self.{axis}_min <= self.{axis}_max",
       [f"tests/test_geometry.py::TestFilterRegion::test_equal_bounds_rejected[{axis}]"], None) for axis in "xyz"),
    (LOSSES, "0.0 < alpha < 1.0", "0.0 < alpha <= 1.0",
     ["tests/test_losses.py::TestFocalLoss::test_config_validation"], None),
    (LOSSES, "0.0 <= gamma", "0.0 < gamma", ["tests/test_losses.py::TestFocalLoss::test_gamma_zero_is_accepted"], None),
    (LOSSES, "gamma < np.inf", "gamma <= np.inf", ["tests/test_losses.py::TestFocalLoss::test_config_validation"],
     None),
    (KITTI, "fields[8:15]", "fields[8:16]", ["tests/test_kitti_io.py::TestLabels::test_result_score_is_ignored"], None),
    # an input is mapped read-only; a pipe is read, not mapped; an empty file is not mapped
    (KITTI, "access=mmap.ACCESS_READ", "access=mmap.ACCESS_COPY",
     ["tests/test_kitti_io.py::TestFeatureMapContainer::test_read_map_is_read_only"], None),
    (KITTI, "if not stat.S_ISREG(info.st_mode):", "if stat.S_ISREG(info.st_mode):",
     ["tests/test_cli.py::test_scan_through_a_fifo"], None),
    (KITTI, "if info.st_size == 0:", "if info.st_size < 0:",
     ["tests/test_cli.py::test_empty_scan_exit_code", "tests/test_kitti_io.py::TestVelodyne::test_empty_file",
      "tests/test_kitti_io.py::TestFeatureMapContainer::test_header_rejected[empty]"], None),
    # an output file is cut to its new length after it is written, unless it is a device
    (KITTI, "f.truncate()", "f.flush()", ["tests/test_cli.py::test_output_over_its_own_feature_map"], None),
    (KITTI, "if stat.S_ISREG(os.fstat(f.fileno()).st_mode):", "if True:",
     ["tests/test_cli.py::test_outputs_to_a_device"], None),
    # fields 1-7 of a label line must be finite numbers
    (KITTI, "if not _finite(fields[i]):", "if False:",
     ["tests/test_kitti_io.py::TestLabels::test_bad_unread_field_names_line_and_field"], None),
    # a cloud's coordinates are column-major: decoded, built from C-ordered rows, cut, and mapped to the camera frame
    (KITTI, 'np.empty((len(data), 3), order="F")', 'np.empty((len(data), 3), order="C")', [DECODE_LAYOUT], None),
    (TYPES, "np.asfortranarray(", "np.ascontiguousarray(", [CUT_LAYOUT], None),
    (GEOMETRY, "cloud.xyz.T.take(idx, axis=1).T", "cloud.xyz.take(idx, axis=0)", [CUT_LAYOUT], None),
    (GEOMETRY, 'np.empty((len(rows), 3), order="F")', 'np.empty((len(rows), 3), order="C")', [CUT_LAYOUT], None),
    # a one-point cloud is sampled, not rejected as empty; an output file is created with mode 0o666 less the umask
    (GEOMETRY, "if len(cloud) == 0:", "if len(cloud) == 1:",
     ["tests/test_geometry.py::TestSubsample::test_one_point_cloud"], None),
    (KITTI, "0o666", "0o667",
     ["tests/test_kitti_io.py::TestFeatureMapContainer::test_new_file_takes_the_default_mode"], None),
    # the ROI's bounds are closed on every axis
    *((GEOMETRY, f"{axis} {op} roi.{axis}_{end}\n", f"{axis} {op[0]} roi.{axis}_{end}\n",
       ["tests/test_geometry.py::TestFilterRegion::test_closed_bounds"], None)
      for axis in "xyz" for op, end in ((">=", "min"), ("<=", "max"))),
]


def run_mutant(path: str, old: str, new: str, tests: list[str]) -> tuple[str, str]:
    """('killed' | 'survived' | 'error', pytest's output tail) of one mutant, run in a scratch copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        source = (work / path).read_text()
        if source.count(old) != 1:
            return "error", f"{old!r} occurs {source.count(old)} times in {path}, not once"
        (work / path).write_text(source.replace(old, new))
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-W", "error::RuntimeWarning",
               *tests]
        try:
            proc = subprocess.run(cmd, cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                                  capture_output=True, text=True, timeout=300)
        except subprocess.TimeoutExpired:
            return "error", "pytest ran past 300 s"
    tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error"), tail


def timed_run(mutant: tuple) -> tuple[str, str, float]:
    """run_mutant's outcome and tail for one MUTANTS entry, and the seconds it took."""
    t0 = time.perf_counter()
    return *run_mutant(*mutant[:4]), time.perf_counter() - t0


def main() -> int:
    failed = 0
    start = time.perf_counter()
    # each worker only waits on its own pytest subprocess, so threads run the mutants in parallel
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(timed_run, MUTANTS))
    for (path, old, new, tests, reason), (outcome, tail, seconds) in zip(MUTANTS, results):
        expected = "survived" if reason else "killed"
        ok = outcome == expected
        failed += not ok
        note = f" (equivalent: {reason})" if reason else ""
        print(f"{'ok  ' if ok else 'FAIL'} {outcome:8} {seconds:5.1f}s  {path}: {old!r} -> {new!r}{note}")
        if not ok:
            print("     " + tail.replace("\n", "\n     "))
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants as expected in {time.perf_counter() - start:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
