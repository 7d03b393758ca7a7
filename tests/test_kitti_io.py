import struct

import numpy as np
import pytest

from pacfusion import kitti
from pacfusion.types import FeatureMap


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

    def test_reflectance_out_of_range(self):
        raw = struct.pack("<4f", 1, 2, 3, 0.5) + struct.pack("<4f", 4, 5, 6, -0.25)
        with pytest.raises(kitti.FormatError, match="reflectance"):
            kitti.decode_velodyne(raw)

    def test_roundtrip_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(0, 50))
            xyz = rng.uniform(-100, 100, size=(n, 3)).astype(np.float32)
            refl = rng.uniform(0, 1, size=n).astype(np.float32)
            raw = np.hstack([xyz, refl[:, None]]).astype("<f4").tobytes()
            assert kitti.encode_velodyne(kitti.decode_velodyne(raw)) == raw


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

    def test_nan_rotation_not_orthonormal(self):
        r0 = np.eye(3)
        r0[0, 0] = np.nan
        with pytest.raises(kitti.FormatError, match="R0_rect"):
            kitti.CalibrationSet(
                P2=np.zeros((3, 4)), R0_rect=r0, Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))])
            )

    def test_non_orthonormal_rejected(self):
        with pytest.raises(kitti.FormatError, match="R0_rect"):
            kitti.CalibrationSet(
                P2=np.zeros((3, 4)),
                R0_rect=np.eye(3) * 2.0,
                Tr_velo_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
            )


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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("Car 1 2 3\n")
        with pytest.raises(kitti.FormatError, match="line 1"):
            kitti.read_labels(path)


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

    def test_roundtrip_random_dims(self, tmp_path, rng):
        for i in range(20):
            h, w, c = (int(rng.integers(1, 65)) for _ in range(3))
            data = rng.normal(size=(h, w, c)).astype(np.float32).astype(np.float64)
            path = tmp_path / f"r{i}.pacf"
            kitti.write_feature_map(FeatureMap(data=data), path)
            raw1 = path.read_bytes()
            kitti.write_feature_map(kitti.read_feature_map(path), path)
            assert path.read_bytes() == raw1


class TestPgm:
    def test_mask_roundtrip(self, tmp_path):
        grid = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        kitti.write_pgm(grid, path)
        m = kitti.read_pgm_mask(path)
        np.testing.assert_allclose(m.data[:, :, 0], grid / 255.0)

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0\n")
        with pytest.raises(kitti.FormatError):
            kitti.read_pgm_mask(path)
