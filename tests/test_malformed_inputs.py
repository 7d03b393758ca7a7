"""Every mutated input file ends in FormatError, a usage error naming its stage, or a valid result.

One hypothesis strategy per reader makes mutated bytes of its format:
truncations and byte flips, bad magic and headers, non-finite and
out-of-range fields, and huge declared sizes. Each case runs through the
reader and through `cli.main`, with the command's other inputs valid:
`fuse` for the scan, calibration, feature map and checkpoint, `maskgen`
for the labels.
"""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pacfusion import cli, fusion, kitti
from pacfusion.types import Box3D, FeatureMap, PointCloud

# a 16 x 48 image: f = 20 px, principal point at its centre
H, W = 16, 48
CALIB_KEYS = {
    "P2": [20, 0, 24, 0, 0, 20, 8, 0, 0, 0, 1, 0],
    "R0_rect": [1, 0, 0, 0, 1, 0, 0, 0, 1],
    "Tr_velo_to_cam": [0, -1, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0],  # LIDAR x forward is camera z
}
CALIB = "".join(f"{key}: {' '.join(map(str, vals))}\n" for key, vals in CALIB_KEYS.items()).encode()
# fields 8-14: h w l x y z ry, camera frame
LABELS = (b"Car 0.00 0 0.0 0 0 10 10 1.6 1.7 3.9 -1.0 1.0 15.0 0.3\n"
          b"DontCare -1 -1 -10 0 0 20 20 -1 -1 -1 -1000 -1000 -1000 -10\n")
_rng = np.random.default_rng(3)
SCAN = kitti.encode_velodyne(PointCloud(_rng.uniform([5, -10, -1], [40, 10, 2], (200, 3)), _rng.uniform(0, 1, 200)))
FMAP = FeatureMap(_rng.uniform(0, 1, (H, W, 2)).astype(np.float32))
PACF = kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, H, W, 2) + FMAP.data.astype("<f4").tobytes()
# rows of the frame: 2 semantic + 0 point channels + 3 = 5
PACW_WIDTHS, PACW_K = (5, 6, 4), 3

STAGES = ("0 points after the ROI crop", "no point in the camera frustum", "PACF operator's output overflows")
BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "-1e300", "1e300", "abc", "", "0x10", "1_0", "-0", "3.2", "-7"]
HUGE = [0, 1, 2**31, 2**32 - 1]


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    """Valid inputs of `fuse` and `maskgen` for the 16 x 48 image, in one directory."""
    d = tmp_path_factory.mktemp("frame")
    for name, raw in (("scan.bin", SCAN), ("calib.txt", CALIB), ("labels.txt", LABELS), ("map.pacf", PACF)):
        (d / name).write_bytes(raw)
    fusion.save_params(fusion.init_params(fusion.MlpSpec(PACW_WIDTHS), PACW_K, seed=0), d / "params.pacw")
    return d


def _fuse(d, **paths):
    files = {"velodyne": d / "scan.bin", "calib": d / "calib.txt", "featuremap": d / "map.pacf", **paths}
    argv = ["fuse", files["velodyne"], files["calib"], files["featuremap"], "--out", d / "out.pacf", "--n-sample", 48]
    return argv + (["--params", paths["params"]] if "params" in paths else [])


def _maskgen(d, labels):
    return ["maskgen", d / "scan.bin", d / "calib.txt", labels, "--height", H, "--width", W,
            "--out-mask", d / "mask.pgm", "--out-labels", d / "labels.csv", "--n-sample", 48]


def _check_cli(argv, usage=STAGES):
    """`cli.main` exits 0, 2 with a format error, or 1 with a message naming one of `usage`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code == cli.EXIT_FORMAT:
        assert err.getvalue().startswith("format error:")
    elif code == cli.EXIT_USAGE:
        assert any(name in err.getvalue() for name in usage), err.getvalue()
    else:
        assert code == cli.EXIT_OK, err.getvalue()


@st.composite
def _mutate(draw, raw: bytes, header: int):
    """raw with up to three bytes XOR-flipped, the first `header` bytes drawn as often as the rest, then maybe cut."""
    if not raw:
        return raw
    raw = bytearray(raw)
    where = st.integers(0, len(raw) - 1)
    if header:
        where = st.integers(0, min(header, len(raw)) - 1) | where
    for pos, mask in draw(st.lists(st.tuples(where, st.integers(1, 255)), max_size=3)):
        raw[pos] ^= mask
    return bytes(raw[: draw(st.just(len(raw)) | st.integers(0, len(raw)))])


def _fields(draw, values, n_bad):
    """The values as text, up to n_bad of them replaced by a bad or out-of-range number, one maybe dropped or added."""
    fields = [str(v) for v in values]
    for _ in range(draw(st.integers(0, n_bad))):
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
    change = draw(st.sampled_from(["none"] * 6 + ["drop", "add"]))
    if change == "drop":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif change == "add":
        fields.append("0")
    return " ".join(fields)


@st.composite
def velodyne_bytes(draw):
    """The valid scan with some records' fields set to edge floats (NaN, inf, huge, reflectance outside [0, 1])."""
    data = np.frombuffer(SCAN, dtype="<f4").reshape(-1, 4).copy()
    edge = st.sampled_from([np.nan, np.inf, -np.inf, 3e38, -3e38, -0.5, 1.5, 1.0, 0.0, -1e-45])
    cells = st.tuples(st.integers(0, len(data) - 1), st.integers(0, 3), edge)
    for row, col, value in draw(st.lists(cells, max_size=3)):
        data[row, col] = value
    keep = draw(st.just(len(data)) | st.integers(0, len(data)))
    return draw(_mutate(data[:keep].tobytes(), 0))


@st.composite
def calib_bytes(draw):
    """Calibration text with bad, non-finite or huge values, missing, repeated or unknown keys, CRLF lines."""
    lines = [f"{key}: {_fields(draw, vals, 2)}" for key, vals in CALIB_KEYS.items()]
    lines = draw(st.permutations(lines + ["P0: 1 0 0 0 0 1 0 0 0 0 1 0", "calib_time: x"]))
    lines = lines[: draw(st.integers(len(lines) - 2, len(lines)))]
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines).encode()
    return draw(_mutate(text, 0))


@st.composite
def labels_bytes(draw):
    """Label lines with bad, non-finite or out-of-range fields, short lines, DontCare and blank lines."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["Car", "Pedestrian", "DontCare"]))
        # fields 1-7: truncation, occlusion, alpha and the 2D box; 8-14: the 3D box h w l x y z ry
        values = ["0.00", 0, 0.0, 0, 0, 10, 10, 1.6, 1.7, 3.9, -1.0, 1.0, 15.0, 0.3]
        lines.append(f"{kind} {_fields(draw, values, 3)}")
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "   ", "Car 1 2 3"])))
    return draw(_mutate("\n".join(lines).encode(), 0))


@st.composite
def pacf_bytes(draw):
    """A PACF container: the valid map, or a drawn header with huge, zero or mismatched sizes and edge floats."""
    if draw(st.booleans()):
        return draw(_mutate(PACF, 18))
    magic = draw(st.sampled_from([kitti.FEATUREMAP_MAGIC] * 3 + [b"PACW", b"PAC", b""]))
    version = draw(st.sampled_from([1, 1, 1, 0, 2, 65535]))
    h, w, c = (draw(st.integers(1, 3) | st.sampled_from(HUGE)) for _ in range(3))
    n = max(min(h * w * c, 64) + draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
    values = draw(st.lists(st.floats(width=32) | st.sampled_from([np.nan, np.inf]), min_size=n, max_size=n))
    raw = magic + struct.pack("<HIII", version, h, w, c) + np.array(values, dtype="<f4").tobytes()
    return draw(_mutate(raw, 18))


def _check_cloud(cloud):
    assert np.isfinite(cloud.xyz).all() and ((cloud.reflectance >= 0) & (cloud.reflectance <= 1)).all()


def _check_calib(calib):
    for m in (calib.P2, calib.R0_rect, calib.Tr_velo_to_cam):
        assert (np.abs(m) <= 1e6).all()
    for rot in (calib.R0_rect, calib.Tr_velo_to_cam[:, :3]):
        np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-3)


def _check_boxes(boxes):
    assert all(isinstance(box, Box3D) for box in boxes)


def _check_map(fmap):
    assert min(fmap.data.shape) >= 1 and np.isfinite(fmap.data).all()


CASES = {
    # reader, its strategy, the check of a valid result, the CLI command on the mutated file
    "velodyne": (kitti.read_velodyne, velodyne_bytes(), _check_cloud, lambda d, p: _fuse(d, velodyne=p)),
    "calib": (kitti.read_calib, calib_bytes(), _check_calib, lambda d, p: _fuse(d, calib=p)),
    "labels": (kitti.read_labels, labels_bytes(), _check_boxes, _maskgen),
    "pacf": (kitti.read_feature_map, pacf_bytes(), _check_map, lambda d, p: _fuse(d, featuremap=p)),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_input_rejected_or_valid(frame, name, data):
    reader, strategy, check, argv = CASES[name]
    path = frame / f"mutated_{name}"
    path.write_bytes(data.draw(strategy))
    with contextlib.suppress(kitti.FormatError):
        check(reader(path))
    _check_cli(argv(frame, path))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_through_fuse(frame, data):
    """A mutated PACW checkpoint: exit 2, exit 0, or exit 1 naming --k when its k or width does not fit the frame
    or naming the PACF operator when its weights make the output overflow float32."""
    raw = (frame / "params.pacw").read_bytes()
    path = frame / "mutated.pacw"
    path.write_bytes(data.draw(_mutate(raw, 14 + 4 * len(PACW_WIDTHS))))
    _check_cli(_fuse(frame, params=path), usage=("--k is", "PACF operator's output overflows"))
