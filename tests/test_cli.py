import struct

import numpy as np
import pytest

from pacfusion import cli, fusion, kitti


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
    assert cli.main(["knn", str(bad)]) == cli.EXIT_FORMAT


def test_project_csv(tmp_path, capsys, synthetic_frame):
    f = synthetic_frame
    code, out = run(
        ["project", f["velodyne"], f["calib_path"], "--height", 64, "--width", 192],
        capsys,
    )
    assert code == cli.EXIT_OK
    lines = out.out.strip().splitlines()
    assert lines[0] == "index,u,v,depth,valid"
    assert len(lines) == len(f["cloud"]) + 1


def test_knn_verify(tmp_path, capsys):
    from pacfusion.types import PointCloud

    rng = np.random.default_rng(3)
    pts = PointCloud(xyz=rng.uniform(0, 10, size=(80, 3)), reflectance=rng.uniform(0, 1, 80))
    path = tmp_path / "s.bin"
    kitti.write_velodyne(pts, path)
    code, out = run(["knn", path, "--k", 4, "--verify"], capsys)
    assert code == cli.EXIT_OK
    assert "verified" in out.err


def test_fuse_v1_row_shape(tmp_path, capsys, synthetic_frame):
    f = synthetic_frame
    out_path = f["dir"] / "fused.pacf"
    code, out = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--out", out_path, "--mode", "v1", "--dout", "4",
            "--n-sample", 512, "--seed", 7,
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    fused = kitti.read_feature_map(out_path)
    d_i = 1 + 0 + 3  # c_seg=1, no point features, offset 3
    assert fused.data.shape == (512, 1, 2 * 4 + d_i)


def test_fuse_v2_row_shape(tmp_path, synthetic_frame):
    f = synthetic_frame
    out_path = f["dir"] / "fused2.pacf"
    code = run(
        [
            "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
            "--out", out_path, "--mode", "v2", "--n-sample", 512, "--seed", 7,
        ]
    )
    assert code == cli.EXIT_OK
    fused = kitti.read_feature_map(out_path)
    assert fused.data.shape == (512, 1, 1)  # c_seg only, no point features


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
    "bad_file, contents",
    [
        ("featuremap_path", b"P5\n12"),  # PGM header cut inside the width
        ("featuremap_path", b"P5\n-1 -1\n255\n\x00"),
        ("calib_path", b"P2: 721.5 abc 0 0 0 1 0 0 0 0 1 0\n"),
        ("featuremap_path", kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, 2, 2, 0)),
    ],
    ids=["pgm_truncated_header", "pgm_negative_size", "calib_non_numeric", "pacf_zero_channels"],
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


def test_maskgen_outputs(tmp_path, capsys, synthetic_frame):
    f = synthetic_frame
    out_mask = f["dir"] / "mask.pgm"
    out_labels = f["dir"] / "labels.csv"
    code, out = run(
        [
            "maskgen", f["velodyne"], f["calib_path"], f["labels_path"],
            "--height", 64, "--width", 192,
            "--out-mask", out_mask, "--out-labels", out_labels,
            "--n-sample", 512, "--seed", 7,
        ],
        capsys,
    )
    assert code == cli.EXIT_OK
    mask = kitti.read_pgm_mask(out_mask)
    assert mask.data.shape == (64, 192, 1)
    lines = out_labels.read_text().strip().splitlines()
    assert lines[0] == "index,x,y,z,foreground"
    assert len(lines) == 513


def test_gradcheck_pass(capsys):
    code, out = run(["gradcheck", "--instances", 3, "--seed", 2], capsys)
    assert code == cli.EXIT_OK
    assert "PASS" in out.out


def test_gradcheck_rejects_no_instances():
    for n in (0, -1):
        assert run(["gradcheck", "--instances", n]) == cli.EXIT_USAGE


def test_bev_render(tmp_path, capsys, synthetic_frame):
    f = synthetic_frame
    out_path = f["dir"] / "bev.ppm"
    code, out = run(
        ["bev-render", f["velodyne"], f["calib_path"], f["featuremap_path"], "--out", out_path],
        capsys,
    )
    assert code == cli.EXIT_OK
    raw = out_path.read_bytes()
    assert raw.startswith(b"P6\n800 704\n255\n")
    assert len(raw) == len(b"P6\n800 704\n255\n") + 800 * 704 * 3


def test_seed_determinism(tmp_path, synthetic_frame):
    f = synthetic_frame
    a, b = f["dir"] / "a.pacf", f["dir"] / "b.pacf"
    common = [
        "fuse", f["velodyne"], f["calib_path"], f["featuremap_path"],
        "--mode", "v1", "--n-sample", 256, "--seed", 99,
    ]
    assert run(common + ["--out", a]) == cli.EXIT_OK
    assert run(common + ["--out", b]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
