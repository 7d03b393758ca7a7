import dataclasses

import numpy as np
import pytest

from pacfusion.types import Box3D, FeatureMap, FusionDims, PointCloud


class TestFusionDims:
    def test_paper_dims(self):
        dims = FusionDims(c_seg=4, c_lidar=128, d_o=64)
        assert dims.d_i == 135
        assert 2 * dims.d_o + dims.d_i == 263

    def test_minimal_dims(self):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=1)
        assert dims.d_i == 4
        assert 2 * dims.d_o + dims.d_i == 6

    def test_small_dims(self):
        dims = FusionDims(c_seg=2, c_lidar=2, d_o=3)
        assert dims.d_i == 7
        assert 2 * dims.d_o + dims.d_i == 13

    @pytest.mark.parametrize(
        "c_seg,c_lidar,d_o,field",
        [(0, 1, 1, "c_seg"), (1, 1, 0, "d_o"), (1, -1, 1, "c_lidar")],
        ids=["0-1-1", "1-1-0", "1--1-1"],
    )
    def test_invalid(self, c_seg, c_lidar, d_o, field):
        with pytest.raises(ValueError, match=field):
            FusionDims(c_seg, c_lidar, d_o)

    def test_offset_slot_always_three(self, rng):
        for _ in range(50):
            c_seg = int(rng.integers(1, 10))
            c_lidar = int(rng.integers(0, 10))
            d_o = int(rng.integers(1, 10))
            dims = FusionDims(c_seg, c_lidar, d_o)
            assert dims.d_i - c_seg - c_lidar == 3


class TestPointCloud:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((3, 3)), reflectance=np.zeros(2))

    def test_nonfinite_rejected(self):
        xyz = np.zeros((2, 3))
        xyz[1, 0] = np.nan
        with pytest.raises(ValueError):
            PointCloud(xyz=xyz, reflectance=np.zeros(2))

    def test_reflectance_range(self):
        with pytest.raises(ValueError):
            PointCloud(xyz=np.zeros((1, 3)), reflectance=np.array([1.5]))

    def test_reflectance_bounds_accepted(self):
        cloud = PointCloud(xyz=np.zeros((2, 3)), reflectance=np.array([0.0, 1.0]))
        assert cloud.reflectance.tolist() == [0.0, 1.0]

    def test_nan_reflectance_rejected(self):
        with pytest.raises(ValueError, match="reflectance"):
            PointCloud(xyz=np.zeros((2, 3)), reflectance=np.array([0.5, np.nan]))

    def test_fields_are_what_a_scan_holds(self):
        assert [f.name for f in dataclasses.fields(PointCloud)] == ["xyz", "reflectance"]


class TestFeatureMap:
    def test_shape_props(self):
        m = FeatureMap(data=np.zeros((4, 6, 2)))
        assert (m.height, m.width, m.channels) == (4, 6, 2)

    def test_nonfinite_rejected(self):
        data = np.zeros((2, 2, 1))
        data[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            FeatureMap(data=data)

    @pytest.mark.parametrize("shape", [(0, 4, 1), (4, 0, 1), (0, 0, 1)], ids=["height", "width", "both"])
    def test_zero_size_rejected(self, shape):
        with pytest.raises(ValueError, match="height and width"):
            FeatureMap(data=np.zeros(shape))

    def test_float32_kept_other_dtypes_widened(self):
        data = np.arange(12, dtype=np.float32).reshape(2, 3, 2)
        m = FeatureMap(data=data)
        assert m.data.dtype == np.float32
        assert m.data is data
        for dtype in (np.float16, np.int32, np.float64):
            assert FeatureMap(data=data.astype(dtype)).data.dtype == np.float64


class TestBox3D:
    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Box3D(x=0, y=0, z=0, h=-1, w=1, l=1, ry=0)

    @pytest.mark.parametrize("field", ["h", "w", "l"])
    def test_zero_dims_rejected(self, field):
        fields = dict(x=0.0, y=0.0, z=5.0, h=1.0, w=1.0, l=1.0, ry=0.0)
        with pytest.raises(ValueError, match="box dimensions must be positive"):
            Box3D(**{**fields, field: 0.0})

    def test_bad_yaw(self):
        with pytest.raises(ValueError, match="ry must lie"):
            Box3D(x=0, y=0, z=0, h=1, w=1, l=1, ry=4.0)
        for ry in (-np.pi, np.pi):  # the range is closed: a label may write either end
            assert Box3D(x=0, y=0, z=0, h=1, w=1, l=1, ry=ry).ry == ry

    def test_dontcare_skips_validation(self):
        box = Box3D(x=0, y=0, z=0, h=-1, w=-1, l=-1, ry=-10, dontcare=True)
        assert box.dontcare

    @pytest.mark.parametrize("dontcare", [False, True], ids=["car", "dontcare"])
    @pytest.mark.parametrize("field", ["x", "y", "z", "h", "w", "l", "ry"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_rejected(self, field, bad, dontcare):
        fields = dict(x=0.0, y=0.0, z=5.0, h=1.0, w=1.0, l=1.0, ry=0.0)
        fields[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Box3D(**fields, dontcare=dontcare)

    @pytest.mark.parametrize("dontcare", [False, True], ids=["car", "dontcare"])
    @pytest.mark.parametrize("field", ["x", "y", "z", "h", "w", "l"])
    def test_out_of_range_rejected(self, field, dontcare):
        fields = dict(x=0.0, y=0.0, z=5.0, h=1.0, w=1.0, l=1.0, ry=0.0)
        Box3D(**{**fields, field: 1e6}, dontcare=dontcare)
        with pytest.raises(ValueError, match=r"within \+-1e\+06"):
            Box3D(**{**fields, field: 1.000001e6}, dontcare=dontcare)
        if field not in "hwl":
            with pytest.raises(ValueError, match=r"within \+-1e\+06"):
                Box3D(**{**fields, field: -1e300}, dontcare=dontcare)
