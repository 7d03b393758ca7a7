import dataclasses
import warnings

import numpy as np
import pytest

from pacfusion import geometry, kitti, losses
from pacfusion.types import Box3D, PointCloud

from conftest import make_calib


def _cloud(xyz):
    xyz = np.asarray(xyz, dtype=float)
    return PointCloud(xyz=xyz, reflectance=np.zeros(len(xyz)))


class TestProjection:
    def test_identity_calib_origin(self):
        calib = kitti.CalibrationSet(np.eye(3, 4), np.eye(3), np.eye(3, 4))
        # camera frame == lidar frame under identity Tr; point at z=2 ahead
        px = geometry.project_points(_cloud([[0, 0, 2]]), calib, (10, 10))
        assert px.u[0] == 0 and px.v[0] == 0
        assert px.depth[0] == 2
        assert px.valid[0]

    def test_behind_camera_invalid(self):
        calib = kitti.CalibrationSet(np.eye(3, 4), np.eye(3), np.eye(3, 4))
        px = geometry.project_points(_cloud([[0, 0, -2]]), calib, (10, 10))
        assert not px.valid[0]

    def test_hand_built_focal_center(self):
        # LIDAR (2,0,0) maps to camera (0,0,2); focal 100, center (50,50)
        calib = make_calib(f=100.0, cx=50.0, cy=50.0)
        px = geometry.project_points(_cloud([[2, 0, 0]]), calib, (100, 100))
        assert px.u[0] == pytest.approx(50.0)
        assert px.v[0] == pytest.approx(50.0)
        assert px.depth[0] == pytest.approx(2.0)

    def test_image_is_half_open(self):
        """u = 0 and v = 0 lie in the image; u = W and v = H do not."""
        calib = make_calib(f=100.0, cx=96.0, cy=32.0)
        # LIDAR (25, y, z) projects exactly to u = 96 - 4 y, v = 32 - 4 z
        px = geometry.project_points(_cloud([[25, 24, 0], [25, 0, 8], [25, -24, 0], [25, 0, -8]]), calib, (64, 192))
        np.testing.assert_array_equal(px.u, [0, 96, 192, 96])
        np.testing.assert_array_equal(px.v, [32, 0, 32, 64])
        np.testing.assert_array_equal(px.valid, [True, True, False, False])

    def test_pinhole_formula_oracle(self, rng):
        f, cx, cy = 120.0, 60.0, 40.0
        calib = make_calib(f=f, cx=cx, cy=cy)
        xyz = rng.uniform([2, -5, -2], [50, 5, 2], size=(200, 3))
        px = geometry.project_points(_cloud(xyz), calib, (80, 120))
        for i, (x, y, z) in enumerate(xyz):
            # independent scalar pinhole: cam = (-y, -z, x)
            u = f * (-y) / x + cx
            v = f * (-z) / x + cy
            assert px.u[i] == pytest.approx(u, abs=1e-9)
            assert px.v[i] == pytest.approx(v, abs=1e-9)
            assert px.depth[i] == pytest.approx(x, abs=1e-9)

    def test_overflowing_pixel_is_invalid(self):
        # w = 1e-300 * depth while u's numerator is 1e6 * 1000: the quotient overflows float64
        P2 = np.array([[1e6, 0, 0, 0], [0, 1e6, 0, 0], [0, 0, 1e-300, 0]])
        calib = kitti.CalibrationSet(P2=P2, R0_rect=np.eye(3), Tr_velo_to_cam=np.eye(3, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            px = geometry.project_points(_cloud([[1000, 0, 1], [0, 0, 1]]), calib, (10, 10))
        assert px.u[0] == np.inf and not px.valid[0]
        assert px.u[1] == 0 and px.valid[1]

    def test_far_library_cloud_is_invalid_without_warnings(self):
        # a yawed LIDAR-to-camera rotation sums coordinates near 1.7e308 past float64, and P2's focal length
        # overflows a point at 1e307: each such point must come out invalid and outside every box, silently
        c, s = np.cos(0.5), np.sin(0.5)
        yaw = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ np.array([[0, -1, 0], [0, 0, -1], [1, 0, 0]])
        P2 = np.array([[721.5, 0, 609.6, 44.9], [0, 721.5, 172.9, 0.2], [0, 0, 1, 0.003]])
        calib = kitti.CalibrationSet(P2=P2, R0_rect=np.eye(3), Tr_velo_to_cam=np.hstack([yaw, [[0], [0], [-0.27]]]))
        cloud = _cloud([[1e307, 0, 0], [1.7e308, 1.7e308, -1.7e308], [-1.7e308, 1.7e308, 1e307], [10, 0, 0]])
        box = Box3D(x=0, y=1.0, z=9.7, h=2, w=2, l=4, ry=0.3, label="Car")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cam = geometry.lidar_to_camera(cloud.xyz, calib)
            px = geometry.project_points(cloud, calib, (375, 1242))
            fg = losses.label_points(cloud, [box], calib)
        assert not np.isfinite(cam[1]).all()
        np.testing.assert_array_equal(px.valid, [False, False, False, True])
        np.testing.assert_array_equal(fg, [False, False, False, True])

    def test_index_alignment(self, rng):
        calib = make_calib()
        xyz = rng.uniform(-50, 50, size=(123, 3))
        px = geometry.project_points(_cloud(xyz), calib, (64, 192))
        assert len(px) == 123


def test_nearest_pixel_rounds_half_down_and_clips():
    u = np.array([0.5, 0.5000001, 1.5, -0.4, 9.99, 3.0])
    v = np.array([1.5, 0.0, 2.49, 7.6, -3.0, 4.5])
    rows, cols = geometry.nearest_pixel(u, v, (5, 8))
    np.testing.assert_array_equal(cols, [0, 1, 1, 0, 7, 3])
    np.testing.assert_array_equal(rows, [1, 0, 2, 4, 0, 4])
    assert rows.dtype == cols.dtype == np.int64


class TestFilterRegion:
    def test_closed_bounds(self):
        roi = geometry.RegionOfInterest()
        cloud = _cloud([[0.0, -40.0, -1.0], [70.4, 40.0, 3.0], [70.5, 0.0, 0.0]])
        kept, idx = geometry.filter_region(cloud, roi)
        assert len(kept) == 2
        np.testing.assert_array_equal(idx, [0, 1])

    def test_idempotent(self, rng):
        roi = geometry.RegionOfInterest()
        cloud = _cloud(rng.uniform(-50, 80, size=(500, 3)))
        once, _ = geometry.filter_region(cloud, roi)
        twice, _ = geometry.filter_region(once, roi)
        np.testing.assert_array_equal(once.xyz, twice.xyz)

    def test_bad_roi(self):
        with pytest.raises(ValueError):
            geometry.RegionOfInterest(x_min=1, x_max=0)

    @pytest.mark.parametrize("axis", "xyz")
    def test_equal_bounds_rejected(self, axis):
        with pytest.raises(ValueError, match="min < max per axis"):
            geometry.RegionOfInterest(**{f"{axis}_min": 2.0, f"{axis}_max": 2.0})


class TestSubsample:
    def test_exact_count_identity(self, rng):
        cloud = _cloud(rng.normal(size=(5, 3)))
        out, idx = geometry.subsample(cloud, 5, seed=1)
        assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]
        # n == count draws without replacement too: a seeded permutation, not the identity order
        np.testing.assert_array_equal(idx, np.random.default_rng(1).choice(5, size=5, replace=False))
        assert idx.tolist() != [0, 1, 2, 3, 4]

    def test_one_point(self, rng):
        cloud = _cloud(rng.normal(size=(5, 3)))
        out, idx = geometry.subsample(cloud, 1, seed=4)
        np.testing.assert_array_equal(idx, np.random.default_rng(4).choice(5, size=1, replace=False))
        np.testing.assert_array_equal(out.xyz, cloud.xyz[idx])

    def test_upsampling_keeps_all(self, rng):
        cloud = _cloud(rng.normal(size=(3, 3)))
        out, idx = geometry.subsample(cloud, 5, seed=1)
        assert len(out) == 5
        assert set(idx.tolist()) >= {0, 1, 2}

    def test_one_point_cloud(self):
        """A single point is a cloud to sample from, not an empty one: it fills every slot."""
        out, idx = geometry.subsample(_cloud([[1.0, 2.0, 3.0]]), 4, seed=0)
        np.testing.assert_array_equal(idx, [0, 0, 0, 0])
        np.testing.assert_array_equal(out.xyz, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_seed_determinism(self, rng):
        cloud = _cloud(rng.normal(size=(20000, 3)))
        _, a = geometry.subsample(cloud, 16384, seed=42)
        _, b = geometry.subsample(cloud, 16384, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_no_duplicates_when_enough(self, rng):
        cloud = _cloud(rng.normal(size=(100, 3)))
        _, idx = geometry.subsample(cloud, 60, seed=3)
        assert len(set(idx.tolist())) == 60

    def test_cuts_are_not_validated_again(self, rng, monkeypatch):
        cloud = PointCloud(xyz=rng.normal(size=(50, 3)), reflectance=rng.uniform(0, 1, 50))

        def no_validation(self):
            raise AssertionError("a cut of a valid cloud ran the validation again")

        monkeypatch.setattr(PointCloud, "__post_init__", no_validation)
        roi = geometry.RegionOfInterest(-1.0, 1.0, -1.0, 1.0, -1.0, 1.0)
        cropped, keep = geometry.filter_region(cloud, roi)
        sample, idx = geometry.subsample(cropped, 40, seed=2)
        rows = keep[idx]
        np.testing.assert_array_equal(sample.xyz, cloud.xyz[rows])
        np.testing.assert_array_equal(sample.reflectance, cloud.reflectance[rows])


def _scalar_point_in_box(p_cam, box: Box3D) -> bool:
    """Reference: the scalar per-point test that points_in_box replaced."""
    p = np.asarray(p_cam, dtype=np.float64).reshape(3)
    dx, dz = p[0] - box.x, p[2] - box.z
    c, s = np.cos(box.ry), np.sin(box.ry)
    lx = c * dx - s * dz
    lz = s * dx + c * dz
    return bool(
        abs(lx) <= box.l / 2
        and abs(lz) <= box.w / 2
        and box.y - box.h <= p[1] <= box.y
    )


class TestPointInBox:
    BOX = Box3D(x=0, y=0, z=0, h=2, w=2, l=2, ry=0)
    # one point on each face of BOX; the box is closed
    ON_FACES = np.array([(1, -1, 0), (-1, -1, 0), (0, -1, 1), (0, -1, -1), (0, 0, 0), (0, -2, 0)], dtype=float)

    def test_interior(self):
        assert geometry.points_in_box((0, -1, 0), self.BOX)[0]
        assert geometry.points_in_box(self.ON_FACES, self.BOX).all()

    def test_far_outside(self):
        assert not geometry.points_in_box((10, 0, 0), self.BOX)[0]

    def test_yawed_box(self):
        box = Box3D(x=0, y=0, z=0, h=2, w=2, l=4, ry=np.pi / 2)
        assert geometry.points_in_box((0.9, -1, 1.9), box)[0]
        box0 = Box3D(x=0, y=0, z=0, h=2, w=2, l=4, ry=0)
        assert not geometry.points_in_box((0.9, -1, 1.9), box0)[0]

    def test_yaw_periodicity(self, rng):
        for _ in range(50):
            ry = float(rng.uniform(-np.pi, np.pi))
            p = rng.uniform(-3, 3, size=3)
            a = Box3D(x=0, y=0, z=0, h=2, w=1.5, l=3, ry=ry)
            shifted = ry + 2 * np.pi if ry < 0 else ry - 2 * np.pi
            # dontcare skips the [-pi, pi] range check so we can shift by 2*pi
            b = Box3D(x=0, y=0, z=0, h=2, w=1.5, l=3, ry=shifted, dontcare=True)
            assert geometry.points_in_box(p, a)[0] == geometry.points_in_box(p, b)[0]

    def test_just_outside(self):
        assert not geometry.points_in_box((1.4, -1, 0), self.BOX)[0]
        beyond = np.nextafter(self.ON_FACES, 2 * self.ON_FACES - (0, -1, 0))  # one step away from the centre
        assert not geometry.points_in_box(beyond, self.BOX).any()

    def test_vectorized_matches_scalar(self, rng):
        box = Box3D(x=1, y=2, z=10, h=1.5, w=1.7, l=4, ry=0.7)
        pts = rng.uniform([-5, -2, 5], [7, 5, 15], size=(200, 3))
        vec = geometry.points_in_box(pts, box)
        for i, p in enumerate(pts):
            assert vec[i] == _scalar_point_in_box(p, box)


def test_lidar_to_camera_chain(rng):
    calib = make_calib()
    xyz = rng.normal(size=(10, 3))
    cam = geometry.lidar_to_camera(xyz, calib)
    for i, p in enumerate(xyz):
        expected = calib.R0_rect @ (calib.Tr_velo_to_cam @ np.append(p, 1.0))
        np.testing.assert_allclose(cam[i], expected, atol=1e-12)


# KITTI object-benchmark calibration of training frame 000000: rotations that mix every axis
KITTI_000000 = kitti.CalibrationSet(
    P2=[[721.5377, 0.0, 609.5593, 44.85728], [0.0, 721.5377, 172.854, 0.2163791], [0.0, 0.0, 1.0, 0.002745884]],
    R0_rect=[[0.9999239, 0.0098377, -0.007445048], [-0.009869795, 0.9999421, -0.004278459],
             [0.007402527, 0.004351614, 0.9999631]],
    Tr_velo_to_cam=[[0.007533745, -0.9999714, -0.000616602, -0.004069766],
                    [0.01480249, 0.0007280733, -0.9998902, -0.07631618],
                    [0.9998621, 0.00752379, 0.01480755, -0.2717806]],
)
# on the camera plane (u = inf), just in front of it (|u| ~ 1e22) and just behind it, under make_calib's frame
CAMERA_PLANE_EDGES = [(0.0, 1.0, 0.5), (1e-20, 1.0, 0.5), (-1e-7, 3.0, 0.0), (1e-3, 2.0, -1.0)]


def _bits(*arrays) -> list[bytes]:
    return [a.tobytes() for a in arrays]


def _projection_rows(xyz, calib, image_size):
    px = geometry.project_points(_cloud(xyz), calib, image_size)
    return geometry.lidar_to_camera(xyz, calib), px.u, px.v, px.depth, px.valid


def _transposed_view_projection(xyz, calib, image_size):
    """The reference expressions, with transposed-view operands and the offsets added out of place."""
    height, width = image_size
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cam = (xyz @ calib.Tr_velo_to_cam[:, :3].T + calib.Tr_velo_to_cam[:, 3]) @ calib.R0_rect.T
        hom = cam @ calib.P2[:, :3].T + calib.P2[:, 3]
        w = hom[:, 2]
        u = np.where(w != 0, hom[:, 0] / w, np.inf)
        v = np.where(w != 0, hom[:, 1] / w, np.inf)
    valid = (w > 0) & (u >= 0) & (u < width) & (v >= 0) & (v < height)
    return cam, u, v, w, valid


@pytest.mark.parametrize("calib, image_size", [(KITTI_000000, (375, 1242)), (make_calib(), (64, 192))],
                         ids=["kitti", "plain"])
@pytest.mark.parametrize("n", [1, 2, 135, 136, 2048, 16384, 49087, 120000])
def test_projection_rows_are_batch_independent(n, calib, image_size):
    """A point gets the same bits alone, in any sub-batch and in the whole cloud, given in C or F order; N >= 2 gets
    the reference bits."""
    rng = np.random.default_rng(n)
    xyz = rng.uniform((0.0, -40.0, -1.0), (70.4, 40.0, 3.0), size=(n, 3)).astype(np.float32).astype(np.float64)
    edges = min(n, len(CAMERA_PLANE_EDGES))
    xyz[n - edges:] = CAMERA_PLANE_EDGES[:edges]
    whole = _projection_rows(xyz, calib, image_size)
    # C-ordered and column-major copies of the same points get the same bits
    assert xyz.flags.c_contiguous
    assert _bits(*whole) == _bits(*_projection_rows(np.asfortranarray(xyz), calib, image_size))
    if n >= 2:
        assert _bits(*whole) == _bits(*_transposed_view_projection(xyz, calib, image_size))
    rows = np.unique(np.concatenate((rng.integers(0, n, size=24), np.arange(n - edges, n))))
    for i in rows:
        assert _bits(*(a[i : i + 1] for a in whole)) == _bits(*_projection_rows(xyz[i : i + 1], calib, image_size))
    for size in {min(n, s) for s in (2, 7, 135, 136, 300)}:
        sub = np.sort(rng.choice(n, size=size, replace=False))
        sub[-1] = n - 1  # an edge point
        assert _bits(*(a[sub] for a in whole)) == _bits(*_projection_rows(xyz[sub], calib, image_size))


def _reference_box_extent(box, calib, image_size):
    """The pixel rectangle of a box wholly in front of the near plane, its corners projected by the transposed view."""
    height, width = image_size
    c, s = np.cos(box.ry), np.sin(box.ry)
    cam = np.array([
        (box.x + c * sx + s * sz, box.y + sy, box.z - s * sx + c * sz)
        for sx in (-box.l / 2, box.l / 2) for sy in (-box.h, 0.0) for sz in (-box.w / 2, box.w / 2)
    ])
    hom = cam @ calib.P2[:, :3].T + calib.P2[:, 3]
    assert (hom[:, 2] >= losses.NEAR_DEPTH).all()
    u, v = hom[:, 0] / hom[:, 2], hom[:, 1] / hom[:, 2]
    return (int(np.clip(np.floor(v.min()), 0, height)), int(np.clip(np.ceil(v.max()) + 1, 0, height)),
            int(np.clip(np.floor(u.min()), 0, width)), int(np.clip(np.ceil(u.max()) + 1, 0, width)))


@pytest.mark.parametrize("calib, image_size", [(KITTI_000000, (375, 1242)), (make_calib(), (64, 192))],
                         ids=["kitti", "plain"])
@pytest.mark.parametrize("seed", [0, 1])
def test_box_extent_projects_corners_as_the_reference(seed, calib, image_size):
    """A box in front of the near plane gets the rectangle of its 8 corners under the reference projection.

    So does a DontCare box with a size <= 0: its corners are those of that size.
    """
    rng = np.random.default_rng(seed)
    for i in range(500):
        x, y, z = rng.uniform((-25.0, 0.5, 6.0), (25.0, 2.5, 60.0))
        h, w, l = rng.uniform(0.5, 4.0, size=3)
        box = Box3D(x=x, y=y, z=z, h=h, w=w, l=l, ry=rng.uniform(-np.pi, np.pi))
        assert losses._box_image_extent(box, calib, image_size) == _reference_box_extent(box, calib, image_size)
        size = "hwl"[i % 3]
        degenerate = dataclasses.replace(box, dontcare=True, **{size: 0.0 if i % 2 else -1.0})
        want = _reference_box_extent(degenerate, calib, image_size)
        assert losses._box_image_extent(degenerate, calib, image_size) == want


def test_box_with_a_corner_before_the_near_plane_has_no_extent():
    """A box clears pixels only when every corner has w >= NEAR_DEPTH; one reaching nearer clears none."""
    behind = Box3D(x=1.0, y=1.5, z=-3.0, h=1.5, w=1.6, l=3.9, ry=0.3)  # depths -4.95 to -1.05 m
    straddling = Box3D(x=3.0, y=1.0, z=2.0, h=2.0, w=10.0, l=2.0, ry=0.0)  # depths -3 to 7 m
    touching = Box3D(x=0.0, y=1.0, z=losses.NEAR_DEPTH + 0.125, h=1.0, w=0.25, l=2.0, ry=0.0)  # near face on the plane
    calib = make_calib()
    assert geometry._affine_rows(np.array([[0.0, 1.0, touching.z - 0.125]]), calib.P2)[0, 2] == losses.NEAR_DEPTH
    assert losses._box_image_extent(touching, calib, (64, 192)) is not None
    nearer = dataclasses.replace(touching, z=np.nextafter(touching.z, 0.0))
    assert losses._box_image_extent(nearer, calib, (64, 192)) is None
    for calib in (KITTI_000000, make_calib()):
        assert losses._box_image_extent(behind, calib, (64, 192)) is None
        assert losses._box_image_extent(straddling, calib, (64, 192)) is None


def test_cuts_return_contiguous_arrays(rng):
    """Every cut the CLI makes (ROI, frustum, sample) hands the next stage fresh column-major arrays.

    A cloud built from C-ordered rows is column-major too, and so are camera coordinates, whatever the input's layout.
    """
    xyz = rng.uniform(-50, 80, size=(500, 3))
    cloud = PointCloud(xyz=xyz, reflectance=rng.uniform(0, 1, size=500))
    assert xyz.flags.c_contiguous and cloud.xyz.flags.f_contiguous and not np.shares_memory(cloud.xyz, xyz)
    np.testing.assert_array_equal(cloud.xyz, xyz)
    for rows in (xyz, cloud.xyz):
        assert geometry.lidar_to_camera(rows, make_calib()).flags.f_contiguous
    roi, _ = geometry.filter_region(cloud, geometry.RegionOfInterest())
    visible = np.nonzero(geometry.project_points(roi, make_calib(), (64, 192)).valid)[0]
    frustum = geometry._take(roi, visible)
    for n in (len(frustum) // 2, 2 * len(frustum)):
        sample, idx = geometry.subsample(frustum, n, seed=3)
        for cut, source in ((roi, cloud), (frustum, roi), (sample, frustum)):
            assert cut.xyz.flags.f_contiguous and cut.reflectance.flags.contiguous
            assert not np.shares_memory(cut.xyz, source.xyz)
            assert not np.shares_memory(cut.reflectance, source.reflectance)
        np.testing.assert_array_equal(sample.xyz, frustum.xyz[idx])
        np.testing.assert_array_equal(sample.reflectance, frustum.reflectance[idx])
