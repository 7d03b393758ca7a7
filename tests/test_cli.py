import contextlib
import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pacfusion import cli, fusion, geometry, kdtree, kitti, losses
from pacfusion.types import PointCloud

from conftest import read_p5, run_cli


def run(argv, capsys=None):
    code = cli.main([str(a) for a in argv])
    if capsys is not None:
        return code, capsys.readouterr()
    return code


def test_usage_error_exit_code():
    assert cli.main(["knn"]) == cli.EXIT_USAGE
    assert cli.main(["nonsense"]) == cli.EXIT_USAGE


def test_format_error_exit_code(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\x00" * 10)
    assert cli.main(["knn", str(bad)]) == 2  # the documented code, so a changed cli.EXIT_FORMAT fails here


def _project_csv_loop(pixels) -> str:
    """Reference: `project`'s CSV as the per-row f-string loop prints it."""
    want = ["index,u,v,depth,valid\n"]
    for i in range(len(pixels)):
        want.append(f"{i},{pixels.u[i]:.6f},{pixels.v[i]:.6f},{pixels.depth[i]:.6f},{int(pixels.valid[i])}\n")
    return "".join(want)


def test_project_csv_matches_loop(capsys, synthetic_frame):
    f = synthetic_frame
    code, out = run(["project", f["velodyne"], f["calib_path"], "--height", 64, "--width", 192], capsys)
    assert code == cli.EXIT_OK
    pixels = geometry.project_points(kitti.read_velodyne(f["velodyne"]), f["calib"], (64, 192))
    assert not pixels.valid.all() and pixels.valid.any()
    assert out.out == _project_csv_loop(pixels)


def test_project_csv_camera_plane_matches_loop(capsys, synthetic_frame):
    f = synthetic_frame
    scan = kitti.read_velodyne(f["velodyne"])
    # LIDAR x is the camera depth w: a point on the camera plane (u = inf), one just in
    # front of it (|u| ~ 1e22) and one just behind it (u ~ 3e9, past int32)
    xyz = np.vstack((scan.xyz, [(0.0, 1.0, 0.5), (1e-20, 1.0, 0.5), (-1e-7, 3.0, 0.0), (1e-3, 2.0, -1.0)]))
    kitti.write_velodyne(PointCloud(xyz=xyz, reflectance=np.resize(scan.reflectance, len(xyz))), f["velodyne"])
    code, out = run(["project", f["velodyne"], f["calib_path"], "--height", 64, "--width", 192], capsys)
    assert code == cli.EXIT_OK
    pixels = geometry.project_points(kitti.read_velodyne(f["velodyne"]), f["calib"], (64, 192))
    assert np.isinf(pixels.u).any() and (np.abs(pixels.u) >= 2.0**52 / 1e6).sum() >= 2
    assert out.out == _project_csv_loop(pixels)


_F6_LIMIT = 2.0**52 / 1e6
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan, 1e20, -1e300,
    np.nextafter(_F6_LIMIT, 0), _F6_LIMIT, np.nextafter(_F6_LIMIT, np.inf), -np.nextafter(_F6_LIMIT, 0),
    0.5e-6, 2.5e-6, -1e-7, 0.9999995, 9.99999949,
]
_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(-2**45, 2**45).map(lambda k: (2 * k + 1) / 128),  # exact ties of x * 1e6
    st.integers(0, 2**42).map(lambda k: (2 * k + 1) / 2e6),  # ties of the decimal value, not of the double
)


def _table(n):
    """Equal-length int64, float and bool columns of n rows, the float cells drawn from the edge values."""
    return st.tuples(
        hnp.arrays(np.int64, (n, 2), elements=st.integers(-2**63, 2**63 - 1)),
        hnp.arrays(np.float64, (n, 3), elements=_CSV_FLOATS),
        hnp.arrays(np.bool_, n),
    )


@settings(max_examples=60, deadline=None)
@given(table=st.integers(0, 12).flatmap(_table))
@example(table=(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 3)), np.zeros(2, dtype=bool)))
def test_csv_rows_matches_percent(table):
    """Every cell as % prints it: int64 (int64 min too) and bool cells as %d, float edge values as %.6f."""
    ints, floats, flags = table
    assert cli._csv_rows(*ints.T) == "".join("%d,%d\n" % tuple(row) for row in ints.tolist()).encode()
    got = cli._csv_rows(ints[:, 0], *floats.T, flags, ints[:, 1])
    rows = zip(ints[:, 0].tolist(), floats.tolist(), flags.tolist(), ints[:, 1].tolist())
    assert got == "".join("%d,%.6f,%.6f,%.6f,%d,%d\n" % (i, *xyz, f, j) for i, xyz, f, j in rows).encode()


def test_csv_rows_matches_fstring_loop():
    xyz = np.array(
        [[-0.0, 0.0, 1e6], [-1234567.891234, 2.5e7, -0.0000004], [3.1415926535, -9.99999949, 123456789012.5]]
    )
    fg = np.array([True, False, True])
    want = "".join(f"{i},{x:.6f},{y:.6f},{z:.6f},{int(fg[i])}\n" for i, (x, y, z) in enumerate(xyz))
    assert cli._csv_rows(np.arange(3), *xyz.T, fg) == want.encode()
    assert want.startswith("0,-0.000000,0.000000,1000000.000000,1\n1,")
    assert cli._csv_rows(np.zeros(0, dtype=np.int64), np.zeros(0)) == b""


def test_knn_verify(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    pts = PointCloud(xyz=rng.uniform(0, 10, size=(80, 3)), reflectance=rng.uniform(0, 1, 80))
    path = tmp_path / "s.bin"
    kitti.write_velodyne(pts, path)
    code, out = run(["knn", path, "--k", 4, "--verify"], capsys)
    assert code == cli.EXIT_OK
    assert "verified" in out.err

    def one_wrong_row(*args):
        table = knn_table(*args)
        table[5] = table[6]
        return table

    knn_table = kdtree.knn_table
    monkeypatch.setattr(kdtree, "knn_table", one_wrong_row)
    code, out = run(["knn", path, "--k", 4, "--verify"], capsys)
    assert code == 3  # the documented code, so a changed cli.EXIT_VERIFY fails here
    assert out.err.startswith("MISMATCH at 5: ") and out.err.count("\n") == 1


def test_fuse_v1_row_shape(tmp_path, capsys, synthetic_frame):
    f = synthetic_frame
    out_path = f["dir"] / "fused.pacf"
    code, out = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--out", out_path, "--mode", "v1",
            "--n-sample", 512, "--seed", 7,
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    fused = kitti.read_feature_map(out_path)
    d_i = 1 + 0 + 3  # c_seg=1, no point features, offset 3
    assert fused.data.shape == (512, 1, 2 * 8 + d_i)  # the default operator's D_o is 8


@pytest.mark.parametrize("mode", ["v1", "v2"])
def test_fuse_writes_fuse_cloud_rows(synthetic_frame, capsys, monkeypatch, mode):
    """The file holds the fused rows cast to float32, one per sampled point, and stdout reports their shape.

    v1's rows are fuse_cloud's; v2's are the retrieved semantics of the sampled points.
    """
    f = synthetic_frame
    returned, sampled = [], []

    def recording_fuse_cloud(*args, **kwargs):
        returned.append(fuse_cloud(*args, **kwargs))
        return returned[-1]

    def recording_subsample(*args, **kwargs):
        sampled.append(subsample(*args, **kwargs))
        return sampled[-1]

    fuse_cloud, subsample = fusion.fuse_cloud, geometry.subsample
    monkeypatch.setattr(fusion, "fuse_cloud", recording_fuse_cloud)
    monkeypatch.setattr(geometry, "subsample", recording_subsample)
    code, out = run(PREPARE_ARGV["fuse"](f) + ["--mode", mode, "--n-sample", 256, "--seed", 5], capsys)
    assert code == cli.EXIT_OK and len(sampled) == 1
    if mode == "v1":
        assert len(returned) == 1
        rows = returned[0]
    else:
        assert not returned
        fmap = kitti.read_feature_map(f["featuremap_path"])
        pixels = geometry.project_points(sampled[0][0], f["calib"], (fmap.height, fmap.width))
        rows = fusion.retrieve_features(pixels, fmap)[0]
        assert 0 < np.count_nonzero(rows) < len(rows)
    assert rows.dtype == np.float64 and rows.shape == ((256, 2 * 8 + 4) if mode == "v1" else (256, 1))
    written = kitti.read_feature_map(f["dir"] / "o.pacf").data
    assert written.dtype == np.float32 and written.tobytes() == rows.astype(np.float32).tobytes()
    assert out.out == f"wrote 256 rows of width {rows.shape[1]} to {f['dir'] / 'o.pacf'}\n"


def test_fuse_with_checkpoint(tmp_path, synthetic_frame):
    f = synthetic_frame
    params = fusion.init_params(fusion.MlpSpec(widths=(4, 6, 3)), k=3, seed=5)
    ckpt = f["dir"] / "params.pacw"
    fusion.save_params(params, ckpt)
    out_path = f["dir"] / "fused3.pacf"
    code = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--params", ckpt, "--out", out_path, "--n-sample", 256, "--seed", 1,
        ]
    )
    assert code == cli.EXIT_OK
    assert kitti.read_feature_map(out_path).data.shape[2] == 2 * 3 + 4


@pytest.mark.parametrize(
    "widths, k_ckpt, k_flag, message",
    [
        ((4, 6, 3), 3, 5, "the parameters have k=3 but the rows have K=5 (--k is 5;"),
        ((6, 6, 3), 3, 3, "the parameters take rows of width 6 but the rows have width 4 (--k is 3;"
                          " the frame gives rows of width 4 = 1 semantic + 0 point channels + 3)"),
    ],
    ids=["k", "width"],
)
def test_fuse_checkpoint_mismatch_before_knn(synthetic_frame, capsys, monkeypatch, widths, k_ckpt, k_flag, message):
    f = synthetic_frame
    ckpt = f["dir"] / "params.pacw"
    fusion.save_params(fusion.init_params(fusion.MlpSpec(widths=widths), k=k_ckpt, seed=5), ckpt)

    def no_knn(*args, **kwargs):
        raise AssertionError("the kNN ran before the checkpoint was checked")

    monkeypatch.setattr(fusion, "knn_table", no_knn)
    code, out = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--params", ckpt, "--k", k_flag, "--out", f["dir"] / "o.pacf", "--n-sample", 64,
        ],
        capsys,
    )
    assert code == cli.EXIT_USAGE
    assert f"checkpoint {ckpt}: {message}" in out.err


def test_fuse_truncated_checkpoint_exit_code(tmp_path, synthetic_frame):
    f = synthetic_frame
    ckpt = f["dir"] / "params.pacw"
    fusion.save_params(fusion.init_params(fusion.MlpSpec(widths=(4, 6, 3)), k=3, seed=5), ckpt)
    raw = ckpt.read_bytes()
    for cut in (20, 100):  # inside the widths, inside the first weight matrix
        ckpt.write_bytes(raw[:cut])
        code = run(
            [
                "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
                "--params", ckpt, "--out", f["dir"] / "fused4.pacf", "--n-sample", 64,
            ]
        )
        assert code == cli.EXIT_FORMAT


@pytest.mark.parametrize(
    "widths, message",
    [((), "at least one layer"), ((4,), "at least one layer"), ((4, 0, 3), "widths must be positive")],
    ids=["no_widths", "one_width", "zero_width"],
)
def test_fuse_malformed_checkpoint_exit_code(synthetic_frame, capsys, widths, message):
    f = synthetic_frame
    n_values = sum(a * b + b for a, b in zip(widths[:-1], widths[1:])) + 3
    ckpt = f["dir"] / "params.pacw"
    ckpt.write_bytes(fusion.PARAMS_MAGIC + struct.pack(f"<HII{len(widths)}I", fusion.PARAMS_VERSION, 3, len(widths),
                                                       *widths) + b"\x00" * 8 * n_values)
    code, out = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--params", ckpt, "--out", f["dir"] / "o.pacf", "--n-sample", 64,
        ],
        capsys,
    )
    assert code == cli.EXIT_FORMAT
    assert out.err.startswith("format error: parameter container:") and message in out.err


def test_fuse_checkpoint_k_zero_is_format_error(synthetic_frame, capsys):
    f = synthetic_frame
    ckpt = f["dir"] / "params.pacw"
    # widths 4, 6, 3 and k=0: 4*6 + 6 + 6*3 + 3 payload values, no aggregation weight
    head = fusion.PARAMS_MAGIC + struct.pack("<HII3I", fusion.PARAMS_VERSION, 0, 3, 4, 6, 3)
    ckpt.write_bytes(head + b"\x00" * 8 * 51)
    code, out = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--params", ckpt, "--out", f["dir"] / "o.pacf", "--n-sample", 64,
        ],
        capsys,
    )
    assert code == cli.EXIT_FORMAT
    assert "k=0" in out.err and "--k" not in out.err


NAN_CALIB = (
    b"P2: 100 0 96 0 0 100 32 0 0 0 1 0\n"
    b"R0_rect: 1 0 0 0 1 0 0 0 1\n"
    b"Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"
)


@pytest.mark.parametrize(
    "bad_file, contents",
    [
        ("calib_path", b"P2: 721.5 abc 0 0 0 1 0 0 0 0 1 0\n"),
        ("featuremap_path", kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, 2, 2, 0)),
        ("velodyne", struct.pack("<4f", 10, 0, 0, 0.5) + struct.pack("<4f", 12, 0, 0, 1.5)),
        ("calib_path", NAN_CALIB.replace(b"P2: 100", b"P2: nan")),
        ("calib_path", NAN_CALIB.replace(b"R0_rect: 1", b"R0_rect: nan")),
        ("featuremap_path", kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, 0, 5, 4)),
        ("featuremap_path", kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, 5, 0, 4)),
        ("calib_path", NAN_CALIB.replace(b"nan", b"1") + b"calib_time: \xff\n"),
        ("calib_path", NAN_CALIB.replace(b"Tr_velo_to_cam: 0 -1 0 0", b"Tr_velo_to_cam: 0 -1 0 1e308")),
        ("featuremap_path", kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, 0, 2**31, 2**31)),
    ],
    ids=["calib_non_numeric", "pacf_zero_channels", "velodyne_reflectance", "calib_nan_p2", "calib_nan_r0",
         "pacf_zero_height", "pacf_zero_width", "calib_not_utf8", "calib_huge_translation", "pacf_zero_by_huge"],
)
def test_fuse_malformed_input_exit_code(synthetic_frame, capsys, bad_file, contents):
    f = synthetic_frame
    f[bad_file].write_bytes(contents)
    code, out = run(
        ["fuse", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out", f["dir"] / "o.pacf"],
        capsys,
    )
    assert code == cli.EXIT_FORMAT
    assert out.err.startswith("format error:")


def test_pgm_feature_map_is_format_error(synthetic_frame, capsys):
    """A well-formed P5 PGM, as `maskgen` writes it, is no feature map: PACF is the only format."""
    f = synthetic_frame
    pgm = f["dir"] / "mask.pgm"
    kitti.write_pgm(np.full((64, 192), 255, dtype=np.uint8), pgm)
    for argv in (["fuse", f["velodyne"], f["calib_path"], pgm, "--out", f["dir"] / "o.pacf"],
                 ["bev-render", f["velodyne"], f["calib_path"], pgm, "--out", f["dir"] / "o.ppm"]):
        code, out = run(argv, capsys)
        assert (code, out.err) == (cli.EXIT_FORMAT, "format error: feature-map container: bad magic\n")
    assert not (f["dir"] / "o.pacf").exists() and not (f["dir"] / "o.ppm").exists()


PREPARE_ARGV = {
    "fuse": lambda f: ["fuse", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out", f["dir"] / "o.pacf"],
    "maskgen": lambda f: _maskgen_argv(f, f["labels_path"], "m"),
}


@pytest.mark.parametrize("command", sorted(PREPARE_ARGV))
def test_no_point_in_frustum_exit_code(synthetic_frame, capsys, command):
    f = synthetic_frame
    # 5-10 m ahead and 12-15 m to the left: ~50 degrees off axis, outside the 192-px image
    code, out = run(PREPARE_ARGV[command](f) + ["--roi", "5,10,12,15,-1,2"], capsys)
    assert code == cli.EXIT_USAGE
    assert "no point in the camera frustum" in out.err
    assert "0 points after the ROI crop" not in out.err


@pytest.mark.parametrize("command", sorted(PREPARE_ARGV))
def test_empty_scan_exit_code(synthetic_frame, capsys, command):
    f = synthetic_frame
    f["velodyne"].write_bytes(b"")
    code, out = run(PREPARE_ARGV[command](f), capsys)
    assert code == cli.EXIT_USAGE
    # the whole line: the frustum stage's message also ends in "(0 points after the ROI crop)"
    assert out.err == f"error: {f['velodyne']}: 0 points after the ROI crop\n"


@pytest.mark.parametrize("verify", [False, True], ids=["table", "verify"])
def test_knn_empty_scan_exit_code(synthetic_frame, capsys, verify):
    """A 0-record scan is a usage error naming the file, so --verify cannot pass on zero rows."""
    f = synthetic_frame
    f["velodyne"].write_bytes(b"")
    code, out = run(["knn", f["velodyne"], *(["--verify"] if verify else [])], capsys)
    assert code == cli.EXIT_USAGE
    assert out.err == f"error: {f['velodyne']}: 0 points\n" and out.out == ""
    assert "k-d tree" not in out.err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--roi", "1,2,3"], "--roi"),
        (lambda f: ["bev-render", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out",
                    f["dir"] / "b.ppm", "--roi", "5,1,-1,1,-1,1"], "--roi"),
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--k", 0], "--k"),
        (lambda f: ["knn", f["velodyne"], "--k", -2], "--k"),
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--dist", -0.5], "--dist"),
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--dist", "nan"], "--dist"),
        (lambda f: PREPARE_ARGV["maskgen"](f) + ["--n-sample", 0], "--n-sample"),
        (lambda f: ["project", f["velodyne"], f["calib_path"], "--height", -1, "--width", 192], "--height"),
        (lambda f: ["project", f["velodyne"], f["calib_path"], "--height", 64, "--width", 0], "--width"),
        (lambda f: PREPARE_ARGV["maskgen"](f) + ["--height", 0], "--height"),
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--seed", -1], "--seed"),
        (lambda f: PREPARE_ARGV["maskgen"](f) + ["--seed", -3], "--seed"),
        (lambda f: ["gradcheck", "--seed", -1], "--seed"),
        (lambda f: _missing_inputs_bev(f) + ["--roi", "0,0.04,-40,40,-1,3"], "--roi"),
        (lambda f: _missing_inputs_bev(f) + ["--roi", "0,0.045,-40,40,-1,3"], "--roi"),  # 0.45 px rounds to none
        (lambda f: _missing_inputs_bev(f) + ["--roi", "0,70,-40,inf,-1,3"], "--roi"),
        # a count flag of 2**63 or more is past numpy's int64 sizes and indices
        (lambda f: PREPARE_ARGV["fuse"](f) + ["--mode", "v2", "--n-sample", 10**30], "--n-sample"),
        (lambda f: PREPARE_ARGV["maskgen"](f) + ["--n-sample", 2**63], "--n-sample"),
        (lambda f: ["knn", f["velodyne"], "--k", 2**63], "--k"),
        (lambda f: ["project", f["velodyne"], f["calib_path"], "--height", 2**63, "--width", 5], "--height"),
        (lambda f: ["gradcheck", "--instances", 2**63], "--instances"),
    ],
    ids=["roi_count", "roi_reversed", "k_zero", "knn_k_negative", "dist_negative", "dist_nan", "n_sample_zero",
         "height_negative", "width_zero", "maskgen_height_zero", "fuse_seed_negative", "maskgen_seed_negative",
         "gradcheck_seed_negative", "bev_roi_thin", "bev_roi_under_half_pixel", "bev_roi_infinite", "fuse_n_sample",
         "maskgen_n_sample_2_63", "knn_k_2_63", "height_2_63", "instances_2_63"],
)
def test_bad_flag_value_exit_code(synthetic_frame, capsys, argv, flag):
    code, out = run(argv(synthetic_frame), capsys)
    assert code == cli.EXIT_USAGE
    assert f"argument {flag}:" in out.err


def _missing_inputs_fuse(f):
    """`fuse` on input paths that do not exist: a flag rejected by argparse exits before any file is read."""
    return ["fuse", f["dir"] / "no.bin", f["dir"] / "no.txt", f["dir"] / "no.pacf", "--out", f["dir"] / "o.pacf"]


def _missing_inputs_bev(f):
    """`bev-render` on input paths that do not exist, as `_missing_inputs_fuse`."""
    return ["bev-render", f["dir"] / "no.bin", f["dir"] / "no.txt", f["dir"] / "no.pacf", "--out", f["dir"] / "o.ppm"]


# Each MemoryError case's first large array takes between 2**59 and 2**63 bytes: more than any machine can
# map, and less than numpy's size limit, past which numpy raises ValueError instead.
@pytest.mark.parametrize(
    "argv",
    [
        lambda f: PREPARE_ARGV["fuse"](f) + ["--k", 2**56],  # 2**56 float64 aggregation weights
        lambda f: _maskgen_argv(f, f["labels_path"], "m") + ["--height", 2**30, "--width", 2**31],  # uint8 mask
        lambda f: ["knn", f["velodyne"], "--k", 2**58 // len(f["cloud"])],  # an (N, k) int64 table
        lambda f: ["bev-render", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out", f["dir"] / "o.ppm",
                   "--roi", "0,1e8,-5e7,5e7,-1,3"],  # a (1e9, 1e9, 3) uint8 image
    ],
    ids=["fuse_k", "maskgen_height_width", "knn_k", "bev_roi"],
)
def test_oversized_flag_exit_code(synthetic_frame, capsys, argv):
    code, out = run(argv(synthetic_frame), capsys)
    assert code == cli.EXIT_USAGE
    assert out.err.startswith("error:") and "Traceback" not in out.err


def test_largest_count_flag_runs(synthetic_frame, capsys):
    f = synthetic_frame
    code, out = run(["project", f["velodyne"], f["calib_path"], "--height", 2**63 - 1, "--width", 5], capsys)
    assert code == cli.EXIT_OK and out.out.startswith("index,u,v,depth,valid\n")


COUNT_ONE = {
    "project": lambda f: ["project", f["velodyne"], f["calib_path"], "--height", 1, "--width", 1],
    "knn": lambda f: ["knn", f["velodyne"], "--k", 1],
    "fuse": lambda f: PREPARE_ARGV["fuse"](f) + ["--n-sample", 1, "--k", 1],
    "maskgen": lambda f: PREPARE_ARGV["maskgen"](f) + ["--n-sample", 1],
    "gradcheck": lambda f: ["gradcheck", "--instances", 1],
}


@pytest.mark.parametrize("command", sorted(COUNT_ONE))
def test_count_flag_of_one_runs(synthetic_frame, capsys, command):
    """1 is the smallest count a count flag takes, and each command runs on it."""
    f = synthetic_frame
    code, out = run(COUNT_ONE[command](f), capsys)
    assert (code, out.err) == (cli.EXIT_OK, "")
    if command == "project":
        pixels = geometry.project_points(kitti.read_velodyne(f["velodyne"]), f["calib"], (1, 1))
        assert out.out == _project_csv_loop(pixels)
    elif command == "knn":  # each point is its own nearest neighbour
        assert out.out == "index,n0\n" + "".join(f"{i},{i}\n" for i in range(len(f["cloud"])))
    elif command == "fuse":  # 2 * 8 + 1 semantic + 0 point channels + 3
        assert out.out == f"wrote 1 rows of width 20 to {f['dir'] / 'o.pacf'}\n"
    elif command == "maskgen":
        assert len((f["dir"] / "m.csv").read_text().splitlines()) == 2
    else:
        assert out.out.endswith("PASS\n")


def test_seed_zero_is_the_default(synthetic_frame, capsys):
    f = synthetic_frame
    outputs = []
    for extra in ([], ["--seed", 0]):
        assert run(PREPARE_ARGV["fuse"](f) + ["--mode", "v2", "--n-sample", 64] + extra) == cli.EXIT_OK
        outputs.append((f["dir"] / "o.pacf").read_bytes())
    assert outputs[0] == outputs[1]


def test_gradcheck_checks_20_instances_by_default():
    assert cli.build_parser().parse_args(["gradcheck"]).instances == 20


def test_dist_accepts_zero_and_inf():
    parser = cli.build_parser()
    for text, want in (("0", 0.0), ("inf", np.inf), ("2.5", 2.5)):
        assert parser.parse_args(["knn", "scan.bin", "--dist", text]).dist == want


def test_fuse_v2_builds_no_operator(synthetic_frame, capsys, monkeypatch):
    f = synthetic_frame
    argv = PREPARE_ARGV["fuse"](f) + ["--mode", "v2", "--n-sample", 128]
    code, want = run(argv, capsys)
    assert code == cli.EXIT_OK
    want_bytes = (f["dir"] / "o.pacf").read_bytes()

    def no_params(*args, **kwargs):
        raise AssertionError("fuse --mode v2 built operator parameters")

    def no_operator(*args, **kwargs):
        raise AssertionError("fuse --mode v2 ran the operator or the kNN")

    monkeypatch.setattr(fusion, "load_params", no_params)
    monkeypatch.setattr(fusion, "init_params", no_params)
    for module, name in ((fusion, "fuse_cloud"), (fusion, "pacf_forward"), (fusion, "knn_table"),
                         (kdtree, "knn_table")):
        monkeypatch.setattr(module, name, no_operator)
    (f["dir"] / "o.pacf").unlink()
    code, out = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert (out.out, out.err) == (want.out, want.err)
    assert (f["dir"] / "o.pacf").read_bytes() == want_bytes


@pytest.mark.parametrize("flag, value", [("--params", "/nonexistent.pacw"), ("--k", "3"), ("--dist", "inf")],
                         ids=["params", "k", "dist"])
def test_fuse_v2_rejects_the_operator_flags(synthetic_frame, capsys, flag, value):
    """v2 runs no operator and no kNN, so their flags are a usage error, even at v1's default values."""
    f = synthetic_frame
    code, out = run(PREPARE_ARGV["fuse"](f) + ["--mode", "v2", flag, value], capsys)
    assert code == cli.EXIT_USAGE
    assert out.err == f"error: {flag} applies to --mode v1 only\n"
    assert not (f["dir"] / "o.pacf").exists()


@pytest.mark.parametrize(
    "line",
    ["Car 0.0 0 0.0 0 0 10 10 -1 1 1 0 0 5 0", "Car 0.0 0 0.0 0 0 10 10 1 1 1 0 0 5 4",
     "Car 0.00 0 -1.58 nan 170.0 600.0 190.0 1 1 1 0 0 5 0", "Car nan 0 inf 500.0 170.0 600.0 190.0 1 1 1 0 0 5 0",
     "Car 0.00 zero -1.58 587 173 614 200 1 1 1 0 0 5 0"],
    ids=["negative_height", "ry_outside_pi", "box_left_nan", "truncation_nan", "occlusion_text"],
)
def test_maskgen_bad_box_exit_code(synthetic_frame, capsys, line):
    f = synthetic_frame
    labels = f["dir"] / "bad_labels.txt"
    labels.write_text(line + "\n")
    code, out = run(_maskgen_argv(f, labels, "bad"), capsys)
    assert code == cli.EXIT_FORMAT
    assert out.err.startswith("format error: label line 1:")


def test_maskgen_huge_dontcare_exit_code(synthetic_frame, capsys):
    """A DontCare box 1e300 m wide is out of range; its image extent would be NaN."""
    f = synthetic_frame
    labels = f["dir"] / "huge_labels.txt"
    labels.write_text("DontCare -1 -1 -10 0 0 20 20 1.6 1e300 3.9 -1.0 1.0 15.0 0.3\n")
    code, out = run(_maskgen_argv(f, labels, "huge"), capsys)
    assert code == cli.EXIT_FORMAT
    assert out.err.startswith("format error: label line 1: box fields must be finite and within +-1e+06")


def test_maskgen_non_utf8_labels_exit_code(synthetic_frame, capsys):
    f = synthetic_frame
    labels = f["dir"] / "latin1_labels.txt"
    labels.write_bytes(f["labels_path"].read_bytes() + b"# \xe9\n")
    code, out = run(_maskgen_argv(f, labels, "latin1"), capsys)
    assert code == cli.EXIT_FORMAT
    assert out.err.startswith(f"format error: {labels}: not UTF-8 text")


@pytest.mark.parametrize("source", ["checkpoint", "featuremap"])
def test_fuse_output_overflow_exit_code(synthetic_frame, capsys, source):
    """Weights or map values that overflow the float32 output are a usage error naming the operator, not a warning."""
    f = synthetic_frame
    argv = PREPARE_ARGV["fuse"](f) + ["--n-sample", 64]
    if source == "checkpoint":
        params = fusion.init_params(fusion.MlpSpec(widths=(4, 6, 3)), k=3, seed=5)
        params.weights[0][:] = 1e300
        fusion.save_params(params, f["dir"] / "huge.pacw")
        argv += ["--params", f["dir"] / "huge.pacw"]
    else:
        kitti.write_feature_map(kitti.FeatureMap(data=np.full((64, 192, 1), 3e38, dtype=np.float32)),
                                f["featuremap_path"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert "error: the PACF operator's output overflows float32" in out.err
    assert not (f["dir"] / "o.pacf").exists()


def test_fuse_default_mlp_is_d_i_8_8(synthetic_frame, capsys):
    """Without --params the operator is init_params(MlpSpec.default(D_i, 8), --k, --seed): here D_i is 4."""
    f = synthetic_frame
    ckpt = f["dir"] / "default.pacw"
    fusion.save_params(fusion.init_params(fusion.MlpSpec.default(4, 8), 3, seed=0), ckpt)
    outputs = []
    for extra in ([], ["--params", ckpt]):
        code, out = run(PREPARE_ARGV["fuse"](f) + ["--n-sample", 64] + extra, capsys)
        assert code == cli.EXIT_OK and "rows of width 20 " in out.out  # 2 * 8 + 1 semantic + 0 point channels + 3
        outputs.append((f["dir"] / "o.pacf").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", [["--dout", "8"], ["--mlp", "4,8,8"]], ids=["dout", "mlp"])
def test_fuse_has_no_dout_flag(synthetic_frame, capsys, flag):
    """D_o and the widths come from the operator, not from flags."""
    code, out = run(PREPARE_ARGV["fuse"](synthetic_frame) + flag, capsys)
    assert code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in out.err


def _maskgen_argv(f, labels_path, tag):
    return [
        "maskgen", f["velodyne"], f["calib_path"], labels_path, "--height", 64, "--width", 192,
        "--out-mask", f["dir"] / f"{tag}.pgm", "--out-labels", f["dir"] / f"{tag}.csv",
        "--n-sample", 900, "--seed", 3,
    ]


def test_maskgen_matches_loop(synthetic_frame):
    f = synthetic_frame
    argv = [str(a) for a in _maskgen_argv(f, f["labels_path"], "m")]
    assert cli.main(argv) == cli.EXIT_OK
    cloud = cli._prepare_cloud(cli.build_parser().parse_args(argv), f["calib"], (64, 192))
    fg = losses.label_points(cloud, f["boxes"], f["calib"])
    assert fg.any() and not fg.all()
    want = ["index,x,y,z,foreground\n"]
    for i in range(len(cloud)):
        x, y, z = cloud.xyz[i]
        want.append(f"{i},{x:.6f},{y:.6f},{z:.6f},{int(fg[i])}\n")
    assert (f["dir"] / "m.csv").read_text() == "".join(want)
    levels = np.array([0, 128, 255], dtype=np.uint8)
    state = losses.make_sparse_mask(cloud, fg, f["calib"], (64, 192)).state
    assert (f["dir"] / "m.pgm").read_bytes() == b"P5\n192 64\n255\n" + levels[state].tobytes()


def test_maskgen_clears_dontcare_extent(synthetic_frame):
    f = synthetic_frame
    b = f["boxes"][0]
    dc_path = f["dir"] / "labels_dc.txt"
    dc_path.write_text(
        f["labels_path"].read_text()
        + f"DontCare -1 -1 -10 0 0 10 10 {b.h} {b.w} {b.l} {b.x} {b.y} {b.z} {b.ry}\n"
    )
    assert run(_maskgen_argv(f, f["labels_path"], "plain")) == cli.EXIT_OK
    assert run(_maskgen_argv(f, dc_path, "dc")) == cli.EXIT_OK
    plain = read_p5(f["dir"] / "plain.pgm", 64, 192)
    cleared = read_p5(f["dir"] / "dc.pgm", 64, 192)
    dc_box = kitti.read_labels(dc_path)[-1]
    assert dc_box.dontcare
    r0, r1, c0, c1 = losses._box_image_extent(dc_box, f["calib"], (64, 192))
    inside = np.zeros(plain.shape, dtype=bool)
    inside[r0:r1, c0:c1] = True
    assert plain[inside].any()  # the box's extent holds stamped pixels without DontCare
    assert not cleared[inside].any()
    np.testing.assert_array_equal(cleared[~inside], plain[~inside])
    # labels come from the non-DontCare boxes only, so the CSV does not change
    assert (f["dir"] / "dc.csv").read_bytes() == (f["dir"] / "plain.csv").read_bytes()


def test_maskgen_dontcare_reaching_behind_the_camera_clears_nothing(synthetic_frame):
    f = synthetic_frame
    # camera frame x in [2, 4] m, y in [-1, 1] m and z in [-3, 7] m: the box reaches behind the camera
    dc_path = f["dir"] / "labels_near.txt"
    dc_path.write_text(f["labels_path"].read_text() + "DontCare -1 -1 -10 0 0 10 10 2 10 2 3 1 2 0\n")
    assert run(_maskgen_argv(f, f["labels_path"], "plain")) == cli.EXIT_OK
    assert run(_maskgen_argv(f, dc_path, "near")) == cli.EXIT_OK
    # the part in front of the camera spans u from 96 + 100 * 2 / 7 (its far inner edge) past the right image
    # edge, where the mask holds stamped pixels, yet a box with a corner behind NEAR_DEPTH clears none of them
    assert read_p5(f["dir"] / "plain.pgm", 64, 192)[:, int(np.floor(96 + 100 * 2 / 7)):].any()
    assert (f["dir"] / "near.pgm").read_bytes() == (f["dir"] / "plain.pgm").read_bytes()
    assert (f["dir"] / "near.csv").read_bytes() == (f["dir"] / "plain.csv").read_bytes()


def test_gradcheck_pass(capsys):
    code, out = run(["gradcheck", "--instances", 3, "--seed", 2], capsys)
    assert code == cli.EXIT_OK
    assert "PASS" in out.out


def test_gradcheck_rejects_no_instances():
    for n in (0, -1):
        assert run(["gradcheck", "--instances", n]) == cli.EXIT_USAGE


def test_bev_render_matches_loop(synthetic_frame):
    f = synthetic_frame
    # a map with a distinct value per pixel, so points sharing a BEV cell differ in colour
    fmap = kitti.FeatureMap(data=np.random.default_rng(1).uniform(0.1, 1.0, size=(64, 192, 1)))
    fmap_path = f["dir"] / "random.pacf"
    kitti.write_feature_map(fmap, fmap_path)
    out_path = f["dir"] / "bev.ppm"
    assert run(["bev-render", f["velodyne"], f["calib_path"], fmap_path, "--out", out_path]) == cli.EXIT_OK
    roi = geometry.RegionOfInterest()
    cloud, _ = geometry.filter_region(kitti.read_velodyne(f["velodyne"]), roi)
    pixels = geometry.project_points(cloud, f["calib"], (64, 192))
    values = fusion.retrieve_features(pixels, kitti.read_feature_map(fmap_path))[0][:, 0]
    h, w = 704, 800
    rows = np.clip(((roi.x_max - cloud.xyz[:, 0]) / cli.BEV_RESOLUTION).astype(int), 0, h - 1)
    cols = np.clip(((roi.y_max - cloud.xyz[:, 1]) / cli.BEV_RESOLUTION).astype(int), 0, w - 1)
    shade = np.clip(values / values.max(), 0.0, 1.0)

    def render(order):
        img = np.zeros((h, w, 3), dtype=np.uint8)
        for i in order:
            img[rows[i], cols[i]] = (int(255 * shade[i]), 64, int(255 * (1 - shade[i])))
        return f"P6\n{w} {h}\n255\n".encode() + img.tobytes()

    # reference: the per-point loop in index order, so the highest index wins a cell
    want = render(range(len(cloud)))
    assert want != render(reversed(range(len(cloud))))  # the frame has cells where the winner matters
    assert out_path.read_bytes() == want


def _bev_render_default_roi(f) -> np.ndarray:
    """`bev-render`'s (704, 800, 3) image of the frame over the default ROI."""
    out_path = f["dir"] / "bev.ppm"
    assert run(["bev-render", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out", out_path]) == cli.EXIT_OK
    header = b"P6\n800 704\n255\n"
    raw = out_path.read_bytes()
    assert raw.startswith(header)
    return np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(704, 800, 3)


# the float32 nearest 70.4 lies above it, outside the crop; 70.4 - 1e-5 rounds to one below it
@pytest.mark.parametrize("points, row, col", [([(0.0, 5.0, 0.5), (20.0, -40.0, 0.5)], 703, 799),
                                              ([(70.4 - 1e-5, 5.0, 0.5), (20.0, 40.0, 0.5)], 0, 0)],
                         ids=["lower", "upper"])
def test_bev_render_clips_points_on_the_roi_bounds(synthetic_frame, points, row, col):
    """Points on the ROI's closed lower x and y bounds land in the last row and column, points within one pixel
    of its upper bounds in the first: x = 0 is row 704 before the clip, y = -40 column 800."""
    f = synthetic_frame
    scan = kitti.read_velodyne(f["velodyne"])
    xyz = np.vstack((scan.xyz, points))
    kitti.write_velodyne(PointCloud(xyz=xyz, reflectance=np.resize(scan.reflectance, len(xyz))), f["velodyne"])
    img = _bev_render_default_roi(f)
    # a stamped pixel has green 64
    assert np.flatnonzero(img[row, :, 1]).tolist() == [350]
    assert np.flatnonzero(img[:, col, 1]).tolist() == [504]


def test_bev_render_all_zero_map(synthetic_frame):
    """On an all-zero map every stamped pixel takes the zero colour, with no 0/0."""
    f = synthetic_frame
    kitti.write_feature_map(kitti.FeatureMap(data=np.zeros((64, 192, 1), dtype=np.float32)), f["featuremap_path"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pixels = _bev_render_default_roi(f).reshape(-1, 3)
    stamped = pixels[pixels[:, 1] == 64]
    assert len(stamped) > 100
    assert (stamped == (0, 64, 255)).all()
    assert not pixels[pixels[:, 1] != 64].any()


@contextlib.contextmanager
def _fed_through_fifo(path, data: bytes):
    """A FIFO at path, fed `data` by a writer thread once a reader opens it."""
    os.mkfifo(path)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(path, "wb") as fifo:
            fifo.write(data)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield path
    finally:
        if writer.is_alive():  # a reader that never came: open one, so that the writer's open returns
            os.close(os.open(path, os.O_RDONLY | os.O_NONBLOCK))
        writer.join()


SCAN_ARGV = {"knn": lambda f: ["knn", f["velodyne"]], "fuse": lambda f: PREPARE_ARGV["fuse"](f) + ["--n-sample", 256]}


@pytest.mark.parametrize("command", sorted(SCAN_ARGV))
def test_scan_through_a_fifo(synthetic_frame, capsys, command):
    """A scan fed through a FIFO, which cannot be mapped, gives what the same scan in a file gives."""
    f = synthetic_frame

    def outputs(frame):
        code, out = run(SCAN_ARGV[command](frame), capsys)
        return code, out, (f["dir"] / "o.pacf").read_bytes() if command == "fuse" else None

    want = outputs(f)
    with _fed_through_fifo(f["dir"] / "scan.fifo", f["velodyne"].read_bytes()) as fifo:
        got = outputs(dict(f, velodyne=fifo))
    assert want[0] == cli.EXIT_OK and got == want


@pytest.mark.parametrize("command", [["fuse", "--mode", "v1", "--n-sample", 256], ["fuse", "--mode", "v2"],
                                     ["bev-render"]], ids=["fuse_v1", "fuse_v2", "bev_render"])
def test_output_over_its_own_feature_map(synthetic_frame, command):
    """--out naming the command's own feature map writes what another --out path gets: the mapped map is not
    read once the output file is written. Each run is a child process, where reading a file cut under its map
    ends in SIGBUS instead of ending the test session."""
    f = synthetic_frame
    name, *flags = command

    def run_onto(fmap, out):
        code, _, err = run_cli([name, f["velodyne"], f["calib_path"], fmap, "--out", out, *flags], f["dir"])
        assert code == cli.EXIT_OK, err.decode()
        return out.read_bytes()

    own = f["dir"] / "own.pacf"
    own.write_bytes(f["featuremap_path"].read_bytes())
    assert run_onto(own, own) == run_onto(f["featuremap_path"], f["dir"] / "apart")


def test_outputs_to_a_device(synthetic_frame, capsys):
    """A device such as /dev/null takes the outputs as before: a file that cannot be cut is not cut."""
    f = synthetic_frame
    argv = ["maskgen", f["velodyne"], f["calib_path"], f["labels_path"], "--height", 64, "--width", 192,
            "--out-mask", os.devnull, "--out-labels", os.devnull]
    code, out = run(argv, capsys)
    assert code == cli.EXIT_OK, out.err


def test_main_is_reentrant(synthetic_frame, capsys):
    """A second round of commands in one process prints and writes what the first did, with one parser built."""
    f = synthetic_frame
    sequence = [
        (PREPARE_ARGV["fuse"](f) + ["--mode", "v2"], ["o.pacf"]),
        (PREPARE_ARGV["maskgen"](f), ["m.pgm", "m.csv"]),
        (["project", f["velodyne"], f["calib_path"], "--height", 64, "--width", 192], []),
        (PREPARE_ARGV["maskgen"](f) + ["--n-sample", 0], []),
        (["maskgen", "--help"], []),
        (["nonsense"], []),
    ]
    cli.build_parser.cache_clear()
    rounds = []
    for _ in range(2):
        results = []
        for argv, outputs in sequence:
            for name in outputs:
                (f["dir"] / name).unlink(missing_ok=True)
            code, out = run(argv, capsys)
            results.append((code, out.out, out.err, [(f["dir"] / name).read_bytes() for name in outputs]))
        rounds.append(results)
    assert [r[0] for r in rounds[0]] == [cli.EXIT_OK] * 3 + [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_USAGE]
    assert "--n-sample: must be from 1" in rounds[0][3][2] and rounds[0][4][1].startswith("usage: pacfusion maskgen")
    assert rounds[1] == rounds[0]
    assert cli.build_parser.cache_info().misses == 1  # build_parser ran once across both rounds
