import os
import re
import stat
import struct
import warnings

import numpy as np
import pytest

from pacfusion import fusion, kitti
from pacfusion.types import FeatureMap


def _pacf(h, w, c, payload=None, version=kitti.FEATUREMAP_VERSION) -> bytes:
    """A PACF container built by hand: the header, then `payload` (zeros by default) as float32 LE."""
    values = np.zeros(h * w * c) if payload is None else payload
    return kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", version, h, w, c) + np.asarray(values, "<f4").tobytes()


class TestVelodyne:
    def test_direct_decode(self, tmp_path):
        records = [(1, 2, 3, 0.5), (4, 5, 6, 0.0)]
        raw = b"".join(struct.pack("<4f", *r) for r in records)
        path = tmp_path / "scan.bin"
        path.write_bytes(raw)
        cloud = kitti.read_velodyne(path)
        assert len(cloud) == 2
        np.testing.assert_allclose(cloud.xyz, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_allclose(cloud.reflectance, [0.5, 0.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        assert len(kitti.read_velodyne(path)) == 0

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(kitti.FormatError, match="offset 16"):
            kitti.read_velodyne(path)

    def test_nan_record_index(self):
        raw = struct.pack("<4f", 1, 2, 3, 0.5) + struct.pack("<4f", np.nan, 0, 0, 0)
        with pytest.raises(kitti.FormatError, match="index 1"):
            kitti.decode_velodyne(raw)

    def test_signalling_nan_record_index(self):
        raw = struct.pack("<4f", 1, 2, 3, 0.5) + b"\x01\x00\x80\x7f" + struct.pack("<3f", 5, 6, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(kitti.FormatError, match="non-finite velodyne record at index 1"):
                kitti.decode_velodyne(raw)

    def test_reflectance_out_of_range(self):
        raw = struct.pack("<4f", 1, 2, 3, 0.5) + struct.pack("<4f", 4, 5, 6, -0.25)
        with pytest.raises(kitti.FormatError, match="reflectance"):
            kitti.decode_velodyne(raw)

    def test_reflectance_bounds_accepted(self):
        raw = struct.pack("<4f", 1, 2, 3, 1.0) + struct.pack("<4f", 4, 5, 6, 0.0)
        assert kitti.decode_velodyne(raw).reflectance.tolist() == [1.0, 0.0]

    def test_cloud_shares_no_memory_with_its_file(self, tmp_path, rng):
        """The scan is mapped only while it is decoded: rewriting the file leaves a cloud read from it unchanged."""
        records = np.hstack([rng.uniform(-100, 100, size=(300, 3)), rng.uniform(0, 1, size=(300, 1))]).astype("<f4")
        path = tmp_path / "scan.bin"
        path.write_bytes(records.tobytes())
        cloud = kitti.read_velodyne(path)
        path.write_bytes(np.ones_like(records).tobytes())  # same length, other values
        np.testing.assert_array_equal(cloud.xyz, records[:, :3])
        np.testing.assert_array_equal(cloud.reflectance, records[:, 3])

    def test_decode_widens_into_contiguous_arrays(self, rng):
        records = np.hstack([rng.uniform(-100, 100, size=(300, 3)), rng.uniform(0, 1, size=(300, 1))]).astype("<f4")
        raw = bytearray(records.tobytes())
        cloud = kitti.decode_velodyne(raw)
        assert cloud.xyz.flags.f_contiguous and cloud.reflectance.flags.contiguous  # column-major, as every cloud
        for a in (cloud.xyz, cloud.reflectance):
            assert a.dtype == np.float64 and not np.shares_memory(a, np.frombuffer(raw, dtype=np.uint8))
        np.testing.assert_array_equal(cloud.xyz, records[:, :3])
        np.testing.assert_array_equal(cloud.reflectance, records[:, 3])


class TestCalib:
    def test_identity(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(
            "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
            "R0_rect: 1 0 0 0 1 0 0 0 1\n"
            "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
        )
        calib = kitti.read_calib(path)
        np.testing.assert_array_equal(calib.R0_rect, np.eye(3))
        np.testing.assert_array_equal(calib.Tr_velo_to_cam[:, :3], np.eye(3))

    def test_real_kitti_line_matches_text_split(self, tmp_path):
        # real KITTI-style P2 line; oracle is an independent str.split parse
        p2_line = (
            "P2: 7.215377000000e+02 0.000000000000e+00 6.095593000000e+02 "
            "4.485728000000e+01 0.000000000000e+00 7.215377000000e+02 "
            "1.728540000000e+02 2.163791000000e-01 0.000000000000e+00 "
            "0.000000000000e+00 1.000000000000e+00 2.745884000000e-03"
        )
        path = tmp_path / "calib.txt"
        path.write_text(
            p2_line + "\n"
            "R0_rect: 1 0 0 0 1 0 0 0 1\n"
            "Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"
        )
        calib = kitti.read_calib(path)
        expected = np.array([float(v) for v in p2_line.split()[1:]]).reshape(3, 4)
        np.testing.assert_array_equal(calib.P2, expected)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: 1 0 0 0 1 0 0 0 1\n")
        with pytest.raises(kitti.FormatError, match="Tr_velo_to_cam"):
            kitti.read_calib(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text("P2: 1 2 3\n")
        with pytest.raises(kitti.FormatError, match="P2"):
            kitti.read_calib(path)

    def test_extra_whitespace_and_unknown_keys(self, tmp_path):
        path = tmp_path / "calib.txt"
        path.write_text(
            "Junk: 9 9 9\n"
            "P2:   1 0 0 0   0 1 0 0  0 0 1 0\n"
            "R0_rect: 1 0 0 0 1 0 0 0 1\n"
            "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
            "Tr_imu_to_velo: 1 0 0 0 0 1 0 0 0 0 1 0\n"
        )
        calib = kitti.read_calib(path)
        assert calib.P2[0, 0] == 1.0

    @pytest.mark.parametrize("key", ["P2", "R0_rect"])
    def test_non_finite_value_names_key(self, tmp_path, key):
        path = tmp_path / "calib.txt"
        path.write_text(
            "P2: 1 0 0 0 0 1 0 0 0 0 1 0\n"
            "R0_rect: 1 0 0 0 1 0 0 0 1\n"
            "Tr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n".replace(f"{key}: 1", f"{key}: nan")
        )
        with pytest.raises(kitti.FormatError, match=f"{key}: non-finite"):
            kitti.read_calib(path)

    @pytest.mark.parametrize("name", ["P2", "R0_rect", "Tr_velo_to_cam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_api_non_finite_names_matrix(self, name, value):
        mats = {"P2": np.eye(3, 4), "R0_rect": np.eye(3), "Tr_velo_to_cam": np.eye(3, 4)}
        kitti.CalibrationSet(**mats)
        mats[name][2, 2] = value
        with pytest.raises(kitti.FormatError, match=f"^{name}: non-finite value$"):
            kitti.CalibrationSet(**mats)

    @pytest.mark.parametrize("name, index", [("P2", (0, 0)), ("P2", (2, 3)), ("Tr_velo_to_cam", (0, 3))])
    def test_out_of_range_names_matrix(self, name, index):
        mats = {"P2": np.eye(3, 4), "R0_rect": np.eye(3), "Tr_velo_to_cam": np.eye(3, 4)}
        for inside in (1e6, -1e6):
            mats[name][index] = inside
            kitti.CalibrationSet(**mats)
        for beyond in (1.5e6, -1e300):
            mats[name][index] = beyond
            with pytest.raises(kitti.FormatError, match=re.escape(f"{name}: a value beyond +-1e+06")):
                kitti.CalibrationSet(**mats)

    def test_nan_rotation_not_orthonormal(self):
        r0 = np.eye(3)
        r0[0, 0] = np.nan
        with pytest.raises(kitti.FormatError, match="R0_rect"):
            kitti.CalibrationSet(
                P2=np.zeros((3, 4)), R0_rect=r0, Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))])
            )

    def test_non_orthonormal_rejected(self):
        """R0_rect R0_rect^T may deviate from the identity by 1e-3 at most."""
        tr = np.hstack([np.eye(3), np.zeros((3, 1))])
        for r0 in (np.eye(3) * 2.0, np.diag([np.sqrt(1 + 2e-3), 1.0, 1.0])):
            with pytest.raises(kitti.FormatError, match="R0_rect"):
                kitti.CalibrationSet(P2=np.zeros((3, 4)), R0_rect=r0, Tr_velo_to_cam=tr)
        kitti.CalibrationSet(P2=np.zeros((3, 4)), R0_rect=np.diag([np.sqrt(1 + 4e-4), 1.0, 1.0]), Tr_velo_to_cam=tr)


class TestLabels:
    def test_parse_and_dontcare(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text(
            "Car 0.00 0 -1.58 587 173 614 200 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59\n"
            "DontCare -1 -1 -10 503 169 590 190 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        boxes = kitti.read_labels(path)
        assert len(boxes) == 2
        car = boxes[0]
        assert (car.h, car.w, car.l) == (1.65, 1.67, 3.64)
        assert (car.x, car.y, car.z) == (-0.65, 1.71, 46.70)
        assert car.ry == -1.59
        assert not car.dontcare
        assert boxes[1].dontcare

    @pytest.mark.parametrize(
        "kind, box",
        [("Car", "-1 1 1 0 0 5 0"), ("Car", "1 1 0 0 0 5 0"), ("Car", "1 1 1 0 0 5 4"), ("Car", "1 1 1 0 0 5 -3.2"),
         ("Car", "nan 1 1 0 0 5 0"), ("DontCare", "-1 -1 -1 nan -1000 -1000 -10")],
    )
    def test_invalid_box_names_line(self, tmp_path, kind, box):
        path = tmp_path / "labels.txt"
        path.write_text(
            "DontCare -1 -1 -10 503 169 590 190 -1 -1 -1 -1000 -1000 -1000 -10\n"
            f"{kind} 0.00 0 -1.58 587 173 614 200 {box}\n"
        )
        with pytest.raises(kitti.FormatError, match="label line 2:"):
            kitti.read_labels(path)

    @pytest.mark.parametrize(
        "head, field, name, text",
        [("Car 0.00 0 -1.58 nan 170.0 600.0 190.0", 4, "2D box left", "nan"),
         ("Car nan 0 inf 500.0 170.0 600.0 190.0", 1, "truncation", "nan"),
         ("Car 0.00 zero -1.58 587 173 614 200", 2, "occlusion", "zero"),
         ("Car 0.00 0 inf 587 173 614 200", 3, "alpha", "inf"),
         ("Car 0.00 0 -1.58 587 -inf 614 200", 5, "2D box top", "-inf"),
         ("Car 0.00 0 -1.58 587 173 1e400 200", 6, "2D box right", "1e400"),
         ("DontCare -1 -1 -10 503 169 590 -", 7, "2D box bottom", "-")],
        ids=["box_left_nan", "truncation_nan", "occlusion_text", "alpha_inf", "box_top_minus_inf",
             "box_right_overflow", "dontcare_box_bottom_text"],
    )
    def test_bad_unread_field_names_line_and_field(self, tmp_path, head, field, name, text):
        """Fields 1-7 are not read, yet each must be a finite number, as the 3D fields must."""
        path = tmp_path / "labels.txt"
        path.write_text(f"Car 0.00 0 -1.58 587 173 614 200 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59\n"
                        f"{head} 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59\n")
        message = f"label line 2: field {field} ({name}) is not a finite number: {text!r}"
        with pytest.raises(kitti.FormatError, match=f"^{re.escape(message)}$"):
            kitti.read_labels(path)

    def test_result_score_is_ignored(self, tmp_path):
        """A KITTI result line appends a score after the 15 label fields; the box is the label line's."""
        line = "Car 0.00 0 -1.58 587 173 614 200 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
        (tmp_path / "labels.txt").write_text(line + "\n")
        (tmp_path / "results.txt").write_text(line + " 0.87\n")
        assert kitti.read_labels(tmp_path / "results.txt") == kitti.read_labels(tmp_path / "labels.txt")

    @pytest.mark.parametrize("line", ["Car 1 2 3", "Car 0.00 0 -1.58 587 173 614 200 1.65 1.67 3.64 -0.65 1.71 46.70"],
                             ids=["4_fields", "14_fields"])
    def test_malformed_line(self, tmp_path, line):
        path = tmp_path / "labels.txt"
        path.write_text(line + "\n")
        with pytest.raises(kitti.FormatError, match=f"^label line 1: expected >= 15 fields, got {len(line.split())}$"):
            kitti.read_labels(path)


CALIB_UTF8 = "P2: 1 0 0 0 0 1 0 0 0 0 1 0\nR0_rect: 1 0 0 0 1 0 0 0 1\nTr_velo_to_cam: 1 0 0 0 0 1 0 0 0 0 1 0\n"
LABEL_LINE = "0.00 0 -1.58 587 173 614 200 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59\n"


@pytest.mark.parametrize(
    "reader, text",
    [(kitti.read_calib, CALIB_UTF8 + "calib_time: 09-jan-2012 café\n"), (kitti.read_labels, "Café " + LABEL_LINE)],
    ids=["calib", "labels"],
)
def test_text_must_be_utf8(tmp_path, reader, text):
    path = tmp_path / "f.txt"
    path.write_bytes(text.encode("utf-8"))
    reader(path)
    path.write_bytes(text.encode("latin-1"))  # the e-acute becomes the lone byte 0xe9
    with pytest.raises(kitti.FormatError, match=re.escape(f"{path}: not UTF-8 text, byte {text.index('é')}:")):
        reader(path)


class TestFeatureMapContainer:
    def test_roundtrip_2x2(self, tmp_path):
        m = FeatureMap(data=np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(m, path)
        back = kitti.read_feature_map(path)
        np.testing.assert_array_equal(back.data, m.data)

    def test_read_keeps_float32(self, tmp_path):
        data = np.array([0.1, -0.0, 3e38], dtype=np.float32).reshape(1, 1, 3)
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(FeatureMap(data=data), path)
        back = kitti.read_feature_map(path)
        assert back.data.dtype == np.float32
        assert back.data.tobytes() == data.tobytes()

    def test_read_map_is_read_only(self, tmp_path):
        """The map views its file through a read-only mapping, so no write can reach the file."""
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(FeatureMap(data=np.ones((2, 3, 4), dtype=np.float32)), path)
        data = kitti.read_feature_map(path).data
        assert not data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            data[0, 0, 0] = 2.0

    def test_new_file_takes_the_default_mode(self, tmp_path):
        """An output is created as open(path, "wb") creates a file: mode 0o666 less the umask, never executable."""
        path = tmp_path / "m.pacf"
        umask = os.umask(0o022)
        try:
            kitti.write_feature_map(FeatureMap(data=np.zeros((1, 1, 1))), path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644

    def test_corrupt_magic(self, tmp_path):
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(FeatureMap(data=np.zeros((1, 1, 1))), path)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("X")
        path.write_bytes(bytes(raw))
        with pytest.raises(kitti.FormatError, match="magic"):
            kitti.read_feature_map(path)

    def test_payload_size(self, tmp_path):
        m = FeatureMap(data=np.array([0.1, 0.2, 0.3], dtype=np.float32).reshape(1, 1, 3))
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(m, path)
        assert len(path.read_bytes()) == 18 + 12

    def test_size_mismatch(self, tmp_path):
        path = tmp_path / "m.pacf"
        kitti.write_feature_map(FeatureMap(data=np.zeros((2, 2, 1))), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(kitti.FormatError, match="payload"):
            kitti.read_feature_map(path)

    @pytest.mark.parametrize("dims", [(0, 2**31, 2**31), (2**32 - 1, 0, 2**32 - 1)], ids=["zero_height", "zero_width"])
    def test_zero_by_huge_size_is_format_error(self, tmp_path, dims):
        path = tmp_path / "m.pacf"
        path.write_bytes(kitti.FEATUREMAP_MAGIC + struct.pack("<HIII", 1, *dims))
        with pytest.raises(kitti.FormatError, match="^feature-map container: "):
            kitti.read_feature_map(path)

    @pytest.mark.parametrize(
        "dims, values",
        [((1, 1, 1), None), ((1, 5, 1), None), ((5, 1, 1), None), ((2, 3, 4), None),
         ((1, 1, 4), [-0.0, np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max,
                      np.finfo(np.float32).min])],
        ids=["1x1x1", "row_1x5x1", "column_5x1x1", "2x3x4", "edge_values"],
    )
    def test_header_accepted(self, tmp_path, dims, values):
        """Hand-built bytes read as the module docstring lays them out: row-major, channel-minor, bits kept."""
        payload = np.arange(np.prod(dims)) if values is None else values
        path = tmp_path / "m.pacf"
        path.write_bytes(_pacf(*dims, payload=payload))
        data = kitti.read_feature_map(path).data
        assert data.shape == dims and data.dtype == np.float32
        assert data.tobytes() == np.asarray(payload, dtype="<f4").tobytes()
        h, w, c = dims
        i, j, k = h - 1, w - 1, c - 1
        assert data[i, j, k] == np.float32(payload[(i * w + j) * c + k])

    @pytest.mark.parametrize(
        "raw, message",
        [(b"", "bad magic"),
         (b"PACF", "bad magic"),
         (_pacf(1, 1, 1)[:17], "bad magic"),  # one byte short of the 18-byte header
         (b"pacf" + _pacf(1, 1, 1)[4:], "bad magic"),
         (fusion.PARAMS_MAGIC + _pacf(1, 1, 1)[4:], "bad magic"),  # a checkpoint is no feature map
         (b"P5\n2 1\n255\n\x00\xff", "bad magic"),
         (b" " + _pacf(1, 1, 1), "bad magic"),  # the magic starts the file
         (_pacf(1, 1, 1, version=0), "unsupported version 0"),
         (_pacf(1, 1, 1, version=2)[:18], "unsupported version 2"),  # the version is checked before the size
         (b"PACF" + struct.pack(">H", 1) + _pacf(1, 1, 1)[6:], "unsupported version 256"),
         (_pacf(1, 1, 1)[:18], "payload is 0 bytes, expected 4"),
         (_pacf(2, 2, 1)[:-1], "payload is 15 bytes, expected 16"),
         (_pacf(2, 2, 1) + b"\x00", "payload is 17 bytes, expected 16"),
         (_pacf(2, 2, 1) + b"\x00" * 4, "payload is 20 bytes, expected 16"),
         (b"PACF" + struct.pack("<H", 1) + struct.pack(">III", 1, 1, 1) + b"\x00" * 4, f"payload is 4 bytes, expected {4 * 2**72}"),
         (b"PACF" + struct.pack("<HIII", 1, 2**32 - 1, 2**32 - 1, 2**32 - 1), f"payload is 0 bytes, expected {4 * (2**32 - 1) ** 3}"),
         (_pacf(1, 1, 0), "feature map needs at least one channel"),
         (_pacf(0, 3, 1), "feature map needs height and width >= 1, got 0x3"),
         (_pacf(3, 0, 1), "feature map needs height and width >= 1, got 3x0"),
         (_pacf(1, 1, 2, payload=[0.5, np.nan]), "feature map values must be finite"),
         (_pacf(1, 1, 2, payload=[np.inf, 0.5]), "feature map values must be finite"),
         (_pacf(1, 1, 2, payload=[0.5, -np.inf]), "feature map values must be finite")],
        ids=["empty", "magic_only", "header_17_bytes", "lowercase_magic", "checkpoint_magic", "p5_pgm",
             "magic_at_offset_1", "version_0", "version_2", "big_endian_version", "header_only", "short_by_one_byte",
             "trailing_byte", "extra_value", "big_endian_dims", "u32_max_dims", "zero_channels", "zero_height",
             "zero_width", "nan_value", "inf_value", "minus_inf_value"],
    )
    def test_header_rejected(self, tmp_path, raw, message):
        path = tmp_path / "m.pacf"
        path.write_bytes(raw)
        with pytest.raises(kitti.FormatError, match=f"^{re.escape(f'feature-map container: {message}')}$"):
            kitti.read_feature_map(path)


class TestPgm:
    def test_write_pgm_bytes(self, tmp_path):
        grid = np.array([[0, 128, 7], [255, 64, 1]], dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        kitti.write_pgm(grid, path)
        assert path.read_bytes() == b"P5\n3 2\n255\n" + bytes([0, 128, 7, 255, 64, 1])
