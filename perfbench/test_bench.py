"""The benchmark's own tests: clean outputs pass, every kind of corrupted output fails.

Run from the repository root: python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import frames
import oracle
import run
import tracing
import workloads

N = 512  # sampled points per frame: small, so each test runs in well under a second
HERE = Path(__file__).resolve().parent


def _rewrite_pacf(path: Path, edit) -> None:
    raw = path.read_bytes()
    values = oracle.parse_pacf(raw).copy()
    edit(values)
    path.write_bytes(raw[:18] + values.astype("<f4").tobytes())


@pytest.fixture
def fuse_v1(tmp_path):
    w = workloads.FuseV1(seed=3, workdir=tmp_path, n_sample=N)
    inp = w.prepare(0)
    return w, inp, w.run(inp)


@pytest.fixture
def v2_maskgen(tmp_path):
    w = workloads.V2Maskgen(seed=3, workdir=tmp_path, n_sample=N)
    inp = w.prepare(0)
    return w, inp, w.run(inp)


@pytest.fixture(scope="module")
def train_step():
    w = workloads.TrainStep(seed=3, workdir=None, n_sample=1024)
    w.setup()
    assert w.setup_failures() == []
    inp = w.prepare(0)
    return w, inp, w.run(inp)


def test_frames_are_deterministic_and_kitti_sized(tmp_path):
    a, b = frames.make_frame([5, 0]), frames.make_frame([5, 0])
    assert np.array_equal(a.xyz, b.xyz) and np.array_equal(a.fmap, b.fmap) and a.boxes == b.boxes
    assert not np.array_equal(a.xyz, frames.make_frame([5, 1]).xyz)
    counts = oracle.sample_frame(a, 0, workloads.N_SAMPLE).counts
    assert counts["raw"] == 120_000
    assert 44_000 < counts["roi"] < 54_000
    assert workloads.N_SAMPLE < counts["frustum"] < 22_000
    assert sum(b.label == "Car" for b in a.boxes) == 12
    assert sum(b.label == "DontCare" for b in a.boxes) == 1
    from pacfusion import kitti

    paths = frames.write_frame(a, tmp_path)
    calib = kitti.read_calib(paths["calib"])  # the oracle projects with the same matrices
    assert np.array_equal(calib.P2, frames.P2) and np.array_equal(calib.R0_rect, frames.R0_RECT)
    assert np.array_equal(calib.Tr_velo_to_cam, frames.TR_VELO_TO_CAM)
    assert [(b.label, b.x, b.ry) for b in kitti.read_labels(paths["labels"])] == [
        (b.label, b.x, b.ry) for b in a.boxes
    ]


def test_fuse_v1_clean_output_passes(fuse_v1):
    w, inp, codes = fuse_v1
    failures, counts = w.check(inp, codes)
    assert failures == []
    assert counts["frame.points_raw"] == 120_000


def test_fuse_v1_corrupted_row_fails(fuse_v1):
    w, inp, codes = fuse_v1
    target = w.probe(inp.index)[0]

    def nudge(values):
        values[target, 0, 0] *= 1.0 + 1e-5

    _rewrite_pacf(w.workdir / "fused.pacf", nudge)
    failures, _ = w.check(inp, codes)
    assert any("naive forward" in f for f in failures)


def test_fuse_v1_wrong_neighbor_fails(fuse_v1, monkeypatch):
    from pacfusion import kdtree

    w, inp, codes = fuse_v1
    query = kdtree.KdTree.query

    def swapped(self, target, k, d=np.inf):
        result = query(self, target, k, d)
        return kdtree.NeighborSet(indices=result.indices[::-1].copy(), distances=result.distances)

    monkeypatch.setattr(kdtree.KdTree, "query", swapped)
    failures, _ = w.check(inp, codes)
    assert any("knn_brute" in f for f in failures)


def test_fuse_v1_nonzero_exit_fails(fuse_v1):
    w, inp, _ = fuse_v1
    failures, _ = w.check(inp, [1])
    assert failures


def test_v2_maskgen_clean_output_passes(v2_maskgen):
    w, inp, codes = v2_maskgen
    assert w.check(inp, codes)[0] == []


def test_v2_corrupted_semantics_fail(v2_maskgen):
    w, inp, codes = v2_maskgen

    def nudge(values):
        values[N // 2, 0, 1] = np.nextafter(values[N // 2, 0, 1], np.float32(2.0))

    _rewrite_pacf(w.workdir / "fused.pacf", nudge)
    assert any("v2 rows" in f for f in w.check(inp, codes)[0])


def _mask_pixels(path: Path) -> tuple[bytes, np.ndarray]:
    raw = path.read_bytes()
    header = raw[: -frames.HEIGHT * frames.WIDTH]
    return header, np.frombuffer(raw[len(header):], dtype=np.uint8).reshape(frames.HEIGHT, frames.WIDTH).copy()


@pytest.mark.parametrize("new_level", [0, 128, 255])
def test_mask_corrupted_pixel_fails(v2_maskgen, new_level):
    w, inp, codes = v2_maskgen
    path = w.workdir / "mask.pgm"
    header, grid = _mask_pixels(path)
    r, c = np.argwhere(grid != new_level)[0] if new_level else np.argwhere(grid > 0)[0]
    grid[r, c] = new_level
    path.write_bytes(header + grid.tobytes())
    assert any("mask PGM" in f for f in w.check(inp, codes)[0])


def test_mask_with_dontcare_cleared_passes_and_partial_clear_fails(v2_maskgen):
    w, inp, codes = v2_maskgen
    path = w.workdir / "mask.pgm"
    header, grid = _mask_pixels(path)
    dontcare = next(b for b in inp.frame.boxes if b.label == "DontCare")
    r0, r1, c0, c1 = oracle.box_extent(dontcare)
    grid[r0:r1, c0:c1] = 0
    path.write_bytes(header + grid.tobytes())
    assert w.check(inp, codes)[0] == []
    grid[r0 - 1, c0] = 0 if grid[r0 - 1, c0] else 128
    path.write_bytes(header + grid.tobytes())
    assert any("mask PGM" in f for f in w.check(inp, codes)[0])


def test_label_csv_flipped_flag_fails(v2_maskgen):
    w, inp, codes = v2_maskgen
    path = w.workdir / "labels.csv"
    lines = path.read_text().splitlines()
    lines[5] = lines[5][:-1] + ("0" if lines[5].endswith("1") else "1")
    path.write_text("\n".join(lines) + "\n")
    assert any("label CSV" in f for f in w.check(inp, codes)[0])


def test_train_step_clean_output_passes(train_step):
    w, inp, step = train_step
    assert w.check(inp, step)[0] == []


@pytest.mark.parametrize(
    "field, corrupt",
    [
        ("out", lambda s: s.out * (1.0 + 1e-9)),
        ("grad_rows", lambda s: s.grad_rows * (1.0 + 1e-4)),
        ("grad_w", lambda s: [s.grad_w[0] * (1.0 + 1e-4), *s.grad_w[1:]]),
        ("grad_b", lambda s: [*s.grad_b[:-1], s.grad_b[-1] * (1.0 + 1e-3)]),
        ("grad_aggr", lambda s: s.grad_aggr * (1.0 + 1e-3)),
        ("loss", lambda s: s.loss * (1.0 + 1e-9)),
        ("grad_pred", lambda s: s.grad_pred * (1.0 + 1e-4)),
    ],
)
def test_train_step_corrupted_output_fails(train_step, field, corrupt):
    w, inp, step = train_step
    assert w.check(inp, replace(step, **{field: corrupt(step)}))[0]


def test_row_gradient_difference_at_a_pooling_tie():
    from pacfusion import fusion
    from pacfusion.types import FusionDims

    rng = np.random.default_rng(0)
    dims = FusionDims(c_seg=4, c_lidar=0, d_o=5)
    params = fusion.init_params(fusion.MlpSpec(widths=(dims.d_i, 9, 5)), 3, seed=1)
    params.aggr_weights = rng.normal(size=3)
    rows = rng.normal(size=(1, 3, dims.d_i))
    rows[0, 2, :4] = rows[0, 1, :4] = rows[0, :, :4].max(axis=0)  # two neighbours on one pixel
    grad_out = rng.normal(size=(1, 2 * dims.d_o + dims.d_i))
    nf = fusion.NeighborFeatures(rows=rows, valid=np.ones((1, 3), dtype=bool), dims=dims)
    grad_rows = fusion.pacf_backward(fusion.pacf_forward(nf, params)[1], params, grad_out)[3]
    for j in np.ndindex(rows.shape[1:]):
        numeric = oracle.row_gradient_fd(rows[0], params.weights, params.biases, params.aggr_weights,
                                         grad_out[0], j)
        assert numeric == pytest.approx(grad_rows[0][j], rel=1e-6, abs=1e-7)


def test_directional_check_tolerates_cancellation():
    # terms of opposite sign cancel to 1e-9; rounding of the difference stays near 1e-11
    derivative, scale = oracle._directional([np.array([1.0, -1.0 + 1e-9])], [np.ones(2)])
    assert oracle._close(derivative, derivative + 1e-11, oracle.FD_TOL, scale)
    assert not oracle._close(derivative, derivative + 1e-5, oracle.FD_TOL, scale)


def test_train_step_corrupted_setup_fails(train_step):
    w, _, _ = train_step
    nbr, state = w.nbr.copy(), w.mask.state.copy()
    try:
        w.nbr[:, [1, 2]] = w.nbr[:, [2, 1]]
        assert any("knn_brute" in f for f in w.setup_failures())
        w.nbr[:] = nbr
        w.mask.state[np.argwhere(state > 0)[0][0], np.argwhere(state > 0)[0][1]] = 0
        assert any("sparse mask" in f for f in w.setup_failures())
    finally:
        w.nbr[:] = nbr
        w.mask.state[:] = state
        assert w.setup_failures() == []


class _Failing:
    """A workload whose check reports a failure, whose run crashes, or whose output is missing."""

    def __init__(self, mode: str):
        self.mode = mode

    def prepare(self, i):
        return i

    def run(self, inputs):
        if self.mode == "crash":
            raise IndexError("program crashed")
        return inputs

    def check(self, inputs, result):
        if self.mode == "missing":
            raise FileNotFoundError("fused.pacf")
        return ["wrong output"], {}


@pytest.mark.parametrize("mode", ["wrong", "crash", "missing"])
def test_failed_checks_and_crashes_are_counted(mode):
    result = run.measure(_Failing(mode), 0.05, False, tracing.Tracer())
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


class _Tracked:
    """A workload that records whether the previous iteration's output is still alive at prepare."""

    def __init__(self):
        self.last = None
        self.alive_at_prepare = []

    def prepare(self, i):
        self.alive_at_prepare.append(self.last is not None and self.last() is not None)
        return np.zeros(1)

    def run(self, inputs):
        out = np.zeros(1)
        self.last = weakref.ref(out)
        return out

    def check(self, inputs, result):
        return [], {}


def test_harness_holds_no_output_into_the_next_iteration():
    w = _Tracked()
    run.measure(w, 0.05, False, tracing.Tracer())
    assert len(w.alive_at_prepare) >= 2
    assert not any(w.alive_at_prepare)


def test_import_is_timed_in_a_fresh_interpreter():
    assert 0 < run.import_seconds(HERE.parent) < 60


def test_traced_run_separates_layers_and_restores_program(tmp_path):
    from pacfusion import cli, fusion, geometry, kdtree

    originals = (cli.main, fusion.project_points, geometry.project_points, kdtree.knn_query,
                 kdtree.KdTree.__init__)
    tracer = tracing.Tracer()
    v1 = workloads.FuseV1(seed=4, workdir=tmp_path, n_sample=N)
    inp = v1.prepare(0)
    with tracer.installed():
        assert v1.run(inp) == [0]
    c1 = run.layer_values(tracer.finish_iteration())
    v2 = workloads.V2Maskgen(seed=4, workdir=tmp_path, n_sample=N)
    with tracer.installed():
        assert v2.run(v2.prepare(1)) == [0, 0]
    c2 = run.layer_values(tracer.finish_iteration())
    assert originals == (cli.main, fusion.project_points, geometry.project_points, kdtree.knn_query,
                         kdtree.KdTree.__init__)

    assert c1["kdtree.knn_query.calls"] == N and c1["cli.main.calls"] == 1
    assert c1["geometry.project_points.calls"] == 2  # frustum filter, then fusion's own
    assert c1["geometry.points_raw"] == 120_000
    assert c2["kdtree.knn_query.calls"] == 0 and c2["cli.main.calls"] == 2
    assert c2["geometry.project_points.calls"] == 4
    assert c2["kitti.bytes_written"] > frames.HEIGHT * frames.WIDTH
    assert all(v >= 0 for k, v in c1.items() if k.endswith("self_s"))
    spans = [s for s in tracer.spans if s["iteration"] == 0]
    main = next(s for s in spans if s["name"] == "cli.main")
    assert sum(s["self_s"] for s in spans) <= main["end"] - main["start"] + 1e-6


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    # fuse-v1 stays runnable but is not gated: see README.md, "Why fuse-v1 is not gated"
    assert [w["name"] for w in spec["workloads"]] == ["v2-maskgen", "train-step"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_checkout_without_program_exits_nonzero_silently(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fuse-v1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
