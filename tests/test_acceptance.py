"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL."""

import time

import numpy as np
import pytest

from pacfusion import cli, fusion, geometry, kdtree, kitti, losses
from pacfusion.gradcheck import check_focal_gradients, check_pacf_gradients, random_neighbors
from pacfusion.types import FeatureMap, FusionDims, PointCloud

from conftest import make_calib
from test_fusion import naive_forward


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok


def test_criterion_1_knn_oracle_equivalence():
    rng = np.random.default_rng(101)
    pts = rng.uniform([0, -40, -1], [70.4, 40, 3], size=(1000, 3))
    targets = rng.uniform([0, -40, -1], [70.4, 40, 3], size=(100, 3))
    tree = kdtree.KdTree(pts)
    start = time.monotonic()
    ok = True
    for k in (1, 3, 5, 10):
        for d in (np.inf, 2.0):
            for t in np.vstack([targets, pts]):  # off-cloud targets are searched, own points read from a table
                got = kdtree.knn_query(tree, t, k, d)
                want = kdtree.knn_brute(pts, t, k, d)
                ok &= np.array_equal(got.indices, want.indices)
                ok &= np.array_equal(got.distances, want.distances)
    elapsed = time.monotonic() - start
    ok &= elapsed < 5.0
    report(f"criterion 1: knn oracle equivalence ({elapsed:.2f}s)", ok)


def test_criterion_2_forward_oracle():
    rng = np.random.default_rng(202)
    ok = True
    count = 0
    grids = [(d_o, c_seg, c_lidar) for d_o in (8, 64) for c_seg in (1, 4) for c_lidar in (0, 128)]
    while count < 50:
        d_o, c_seg, c_lidar = grids[count % len(grids)]
        dims = FusionDims(c_seg=c_seg, c_lidar=c_lidar, d_o=d_o)
        nf = random_neighbors(rng, n=2, k=3, dims=dims)
        params = fusion.init_params(
            fusion.MlpSpec.default(dims.d_i, d_o), 3, seed=int(rng.integers(1 << 30))
        )
        params.aggr_weights = rng.normal(size=3)
        out, _ = fusion.pacf_forward(nf, params)
        want = naive_forward(nf.rows, params.weights, params.biases, params.aggr_weights)
        ok &= np.allclose(out.values, want, rtol=0, atol=1e-12)
        count += 1
    # identity-MLP case: output is the row repeated three times, exactly
    dims = FusionDims(c_seg=1, c_lidar=0, d_o=4)
    row = np.array([[[0.9, -0.2, 0.4, 0.0]]])
    nf = fusion.NeighborFeatures(rows=row, valid=np.ones((1, 1), bool), dims=dims)
    params = fusion.PacfParams(
        weights=[np.eye(4)], biases=[np.zeros(4)], aggr_weights=np.array([1.0])
    )
    out, _ = fusion.pacf_forward(nf, params)
    ok &= np.array_equal(out.values[0], np.concatenate([row[0, 0]] * 3))
    report("criterion 2: forward matches naive oracle (50 instances, 1e-12)", ok)


def test_criterion_3_gradient_checks():
    start = time.monotonic()
    pacf_err = max(error for error, _ in check_pacf_gradients(n_instances=100, seed=303))
    focal_err = max(error for error, _ in check_focal_gradients(n_instances=100, seed=303))
    elapsed = time.monotonic() - start
    ok = pacf_err < 1e-4 and focal_err < 1e-4 and elapsed < 30.0
    report(
        f"criterion 3: gradients vs finite differences "
        f"(pacf {pacf_err:.1e}, focal {focal_err:.1e}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_algebraic_reductions():
    rng = np.random.default_rng(404)
    ok = True
    # all w_k = 1 collapses attentive aggregation onto the plain sum
    dims = FusionDims(c_seg=2, c_lidar=3, d_o=7)
    nf = random_neighbors(rng, n=6, k=4, dims=dims)
    params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 4, seed=1)
    params.aggr_weights = np.ones(4)
    out, _ = fusion.pacf_forward(nf, params)
    ok &= np.allclose(out.values[:, dims.d_o : 2 * dims.d_o], out.values[:, : dims.d_o], rtol=0, atol=1e-10)
    # gamma=0, alpha=0.5 halves binary cross-entropy on supervised pixels
    state = rng.integers(0, 3, size=(6, 6)).astype(np.uint8)
    state[0, 0] = losses.FOREGROUND
    mask = losses.SparseMask(state=state)
    preds = rng.uniform(0.05, 0.95, size=(6, 6))
    loss, _, _ = losses.focal_loss(preds, mask, alpha=0.5, gamma=0.0)
    sup = state != losses.UNSUPERVISED
    fg = state == losses.FOREGROUND
    bce = np.where(fg, -np.log(preds), -np.log(1 - preds))
    ok &= abs(loss - 0.5 * bce[sup].mean()) < 1e-10
    report("criterion 4: algebraic reductions (w_k=1 and gamma=0/alpha=0.5)", ok)


def test_criterion_5_focal_point_values():
    fg_mask = losses.SparseMask(state=np.array([[losses.FOREGROUND]], dtype=np.uint8))
    bg_mask = losses.SparseMask(state=np.array([[losses.BACKGROUND]], dtype=np.uint8))
    half = np.array([[0.5]])
    fg_loss, _, _ = losses.focal_loss(half, fg_mask)
    bg_loss, _, _ = losses.focal_loss(half, bg_mask)
    ok = abs(fg_loss - 0.043322) < 1e-5 and abs(bg_loss - 0.129966) < 1e-5
    report(f"criterion 5: focal point values (fg {fg_loss:.6f}, bg {bg_loss:.6f})", ok)


def test_criterion_6_permutation_properties():
    rng = np.random.default_rng(606)
    dims = FusionDims(c_seg=2, c_lidar=2, d_o=5)
    k = 4
    nf = random_neighbors(rng, n=5, k=k, dims=dims)
    params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), k, seed=6)
    params.aggr_weights = rng.normal(size=k)
    base, _ = fusion.pacf_forward(nf, params)
    d_o = dims.d_o
    ok = True
    for _ in range(100):
        perm = rng.permutation(k)
        nf2 = fusion.NeighborFeatures(rows=nf.rows[:, perm], valid=nf.valid[:, perm], dims=dims)
        out, _ = fusion.pacf_forward(nf2, params)
        ok &= np.array_equal(out.values[:, :d_o], base.values[:, :d_o])  # y_cc bit-identical
        ok &= np.array_equal(out.values[:, 2 * d_o :], base.values[:, 2 * d_o :])  # y_pool
    # direction check: a constructed unequal-w_k case must change y_a
    params.aggr_weights = np.array([10.0, 1.0, 0.1, 0.01])
    a, _ = fusion.pacf_forward(nf, params)
    nf_rev = fusion.NeighborFeatures(rows=nf.rows[:, ::-1], valid=nf.valid[:, ::-1], dims=dims)
    b, _ = fusion.pacf_forward(nf_rev, params)
    ok &= not np.allclose(a.values[:, d_o : 2 * d_o], b.values[:, d_o : 2 * d_o], rtol=1e-5)
    report("criterion 6: permutation properties (100 permutations)", ok)


def test_criterion_7_dimension_contract():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(30):
        c_seg = int(rng.integers(1, 9))
        c_lidar = int(rng.integers(0, 9))
        d_o = int(rng.integers(1, 9))
        dims = FusionDims(c_seg, c_lidar, d_o)
        ok &= dims.d_i == c_seg + c_lidar + 3
        for k in (1, 2, 3, 5):
            nf = random_neighbors(rng, n=2, k=k, dims=dims)
            params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, d_o), k, seed=0)
            out, _ = fusion.pacf_forward(nf, params)
            ok &= out.values.shape[1] == 2 * d_o + dims.d_i
    report("criterion 7: fused width = 2*D_o + D_i for all K", ok)


def test_criterion_8_format_roundtrips(tmp_path):
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        n = int(rng.integers(0, 30))
        xyz = rng.uniform(-80, 80, size=(n, 3)).astype(np.float32)
        refl = rng.uniform(0, 1, size=n).astype(np.float32)
        raw = np.hstack([xyz, refl[:, None]]).astype("<f4").tobytes()
        ok &= kitti.encode_velodyne(kitti.decode_velodyne(raw)) == raw
    for i in range(100):
        h, w, c = (int(rng.integers(1, 17)) for _ in range(3))
        data = rng.normal(size=(h, w, c)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(FeatureMap(data=data), path)
        first = path.read_bytes()
        kitti.write_feature_map(kitti.read_feature_map(path), path)
        ok &= path.read_bytes() == first
    for i in range(100):
        widths = tuple(int(rng.integers(1, 9)) for _ in range(int(rng.integers(2, 5))))
        k = int(rng.integers(1, 8))
        params = fusion.init_params(fusion.MlpSpec(widths=widths), k, seed=i)
        params.aggr_weights = rng.normal(size=k)
        path = tmp_path / "p.pacw"
        fusion.save_params(params, path)
        first = path.read_bytes()
        fusion.save_params(fusion.load_params(path), path)
        ok &= path.read_bytes() == first
    report("criterion 8: format round-trips (100 instances each)", ok)


def test_criterion_9_end_to_end_smoke(synthetic_frame):
    f = synthetic_frame
    d = f["dir"]
    start = time.monotonic()

    common = ["--n-sample", "1024", "--seed", "42"]
    code_m = cli.main(
        [
            "maskgen", str(f["velodyne"]), str(f["calib_path"]), str(f["labels_path"]),
            "--height", "64", "--width", "192",
            "--out-mask", str(d / "mask.pgm"), "--out-labels", str(d / "pts.csv"),
            *common,
        ]
    )
    code_f = cli.main(
        [
            "fuse", str(f["velodyne"]), str(f["calib_path"]), str(f["featuremap_path"]),
            "--mode", "v1", "--out", str(d / "fused_v1.pacf"), *common,
        ]
    )
    code_b = cli.main(
        [
            "bev-render", str(f["velodyne"]), str(f["calib_path"]),
            str(f["featuremap_path"]), "--out", str(d / "bev.ppm"),
        ]
    )
    elapsed = time.monotonic() - start
    ok = code_m == 0 and code_f == 0 and code_b == 0 and elapsed < 2.0

    # determinism: repeat fuse with the same seed, outputs byte-identical
    cli.main(
        [
            "fuse", str(f["velodyne"]), str(f["calib_path"]), str(f["featuremap_path"]),
            "--mode", "v1", "--out", str(d / "fused_v1_b.pacf"), *common,
        ]
    )
    ok &= (d / "fused_v1.pacf").read_bytes() == (d / "fused_v1_b.pacf").read_bytes()

    # V2 property: foreground points inside the frustum pick up nonzero
    # semantics from the box-consistent map. maskgen and fuse prepare the
    # cloud identically under the same seed, so rows align by index.
    code_v2 = cli.main(
        [
            "fuse", str(f["velodyne"]), str(f["calib_path"]), str(f["featuremap_path"]),
            "--mode", "v2", "--out", str(d / "fused_v2.pacf"), *common,
        ]
    )
    ok &= code_v2 == 0
    v2 = kitti.read_feature_map(d / "fused_v2.pacf").data[:, 0, :]
    rows = [line.split(",") for line in (d / "pts.csv").read_text().strip().splitlines()[1:]]
    xyz = np.array([[float(v) for v in r[1:4]] for r in rows])
    fg = np.array([r[4] == "1" for r in rows])
    pixels = geometry.project_points(
        PointCloud(xyz=xyz, reflectance=np.zeros(len(xyz))), f["calib"], f["image_size"]
    )
    checked = fg & pixels.valid
    ok &= checked.any()
    ok &= bool(np.all(v2[checked, 0] != 0.0))
    report(f"criterion 9: end-to-end smoke ({elapsed:.2f}s)", ok)
