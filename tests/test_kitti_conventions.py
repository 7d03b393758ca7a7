"""A small frame written to the KITTI devkit's conventions, run through `maskgen` and `fuse` as a user would.

The test frames elsewhere are built around the code's own assumptions; this one is not. The sensor sits 1.73 m
above a flat road, as on KITTI's car. The calibration is frame 000000's P2 with an identity R0_rect and a
LIDAR-to-camera transform that only swaps the axes. Each Car label line carries the 2D box that its 3D box projects
to, and the DontCare line is frame 000000's own, whose 3D fields are KITTI's placeholders. The scan holds points on
each car's faces, down to the road, and road points around the cars.

These tests pin what holds today. The default ROI keeps z in [-1, 3] in the LIDAR frame, so it drops the road and the
lower part of every car, and a DontCare line clears nothing, because the placeholder box lies behind the camera.
"""

import dataclasses

import numpy as np
import pytest

from pacfusion import cli, geometry, kitti
from pacfusion.types import FeatureMap, PointCloud

from conftest import read_p5

HEIGHT, WIDTH = 375, 1242
SENSOR_HEIGHT = 1.73
CALIB = """\
P2: 7.215377000000e+02 0.000000000000e+00 6.095593000000e+02 4.485728000000e+01 0.000000000000e+00 \
7.215377000000e+02 1.728540000000e+02 2.163791000000e-01 0.000000000000e+00 0.000000000000e+00 \
1.000000000000e+00 2.745884000000e-03
R0_rect: 1 0 0 0 1 0 0 0 1
Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0
"""
# type truncated occluded alpha, 2D box x1 y1 x2 y2 (pixels), h w l, x y z (camera frame, y the box bottom), ry
LABELS = """\
Car 0.00 0 -1.30 311.04 184.11 484.83 303.37 1.52 1.63 3.88 -3.20 1.73 11.50 -1.57
Car 0.00 0 1.27 673.78 182.39 780.86 246.89 1.45 1.60 4.10 2.90 1.73 19.00 1.42
Car 0.00 0 0.47 394.36 175.58 498.53 212.30 1.60 1.70 4.35 -7.50 1.73 33.00 0.25
DontCare -1 -1 -10 503 169 590 190 -1 -1 -1 -1000 -1000 -1000 -10
"""
CAR_BOXES_2D = [list(map(float, line.split()[4:8])) for line in LABELS.splitlines() if line.startswith("Car")]
FACE_STEP, INSET = 0.1, 0.01  # face points lie on a 10-cm grid, 1 cm inside each face


def _grid(*axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _box_to_camera(box, local):
    """Camera-frame points of (length, height above the bottom, width) coordinates in a box's own frame."""
    c, s = np.cos(box.ry), np.sin(box.ry)
    return np.stack([box.x + c * local[:, 0] + s * local[:, 2], box.y - local[:, 1],
                     box.z - s * local[:, 0] + c * local[:, 2]], axis=1)


def _face_points(box):
    """Camera-frame points on the four sides and the top of a box, from the road up."""
    a, up, b = box.l / 2 - INSET, box.h - INSET, box.w / 2 - INSET
    along, height, across = np.arange(-a, a, FACE_STEP), np.arange(INSET, up, FACE_STEP), np.arange(-b, b, FACE_STEP)
    return _box_to_camera(box, np.vstack([_grid(along, height, [-b, b]), _grid([-a, a], height, across),
                                          _grid(along, [up], across)]))


def _camera_to_lidar(cam):
    return np.stack([cam[:, 2], -cam[:, 0], -cam[:, 1]], axis=1)  # the inverse of the axis swap in CALIB


@pytest.fixture(scope="module")
def frame(tmp_path_factory):
    """Paths of the frame's files, and its Car boxes."""
    root = tmp_path_factory.mktemp("kitti_conventions")
    (root / "calib.txt").write_text(CALIB)
    (root / "labels.txt").write_text(LABELS)
    cars = [box for box in kitti.read_labels(root / "labels.txt") if not box.dontcare]
    road = _grid(np.arange(3.0, 60.0, 0.5), np.arange(-20.0, 20.0, 0.5), [-SENSOR_HEIGHT])
    road_cam = geometry.lidar_to_camera(road, kitti.read_calib(root / "calib.txt"))
    # the LIDAR sees no road under a car: drop what each box, reaching 1 cm below the road, holds
    under = np.any([geometry.points_in_box(road_cam, dataclasses.replace(box, y=box.y + 0.01)) for box in cars], axis=0)
    xyz = np.vstack([road[~under], *(_camera_to_lidar(_face_points(box)) for box in cars)])
    kitti.write_velodyne(PointCloud(xyz=xyz, reflectance=np.full(len(xyz), 0.5)), root / "scan.bin")
    ramp = np.arange(HEIGHT * WIDTH, dtype=np.float64).reshape(HEIGHT, WIDTH, 1) / (HEIGHT * WIDTH)
    kitti.write_feature_map(FeatureMap(data=ramp), root / "semantic.pacf")
    return root, cars


def _maskgen(root, capsys):
    argv = ["maskgen", root / "scan.bin", root / "calib.txt", root / "labels.txt", "--height", HEIGHT,
            "--width", WIDTH, "--out-mask", root / "mask.pgm", "--out-labels", root / "labels.csv"]
    assert cli.main(list(map(str, argv))) == cli.EXIT_OK, capsys.readouterr().err
    table = np.loadtxt(root / "labels.csv", delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:4], table[:, 4].astype(bool), read_p5(root / "mask.pgm", HEIGHT, WIDTH)


def test_label_lines_carry_the_projected_2d_boxes(frame):
    root, cars = frame
    calib = kitti.read_calib(root / "calib.txt")
    for box, box_2d in zip(cars, CAR_BOXES_2D):
        cam = _box_to_camera(box, _grid([-box.l / 2, box.l / 2], [0.0, box.h], [-box.w / 2, box.w / 2]))
        pixels = geometry.project_points(PointCloud(_camera_to_lidar(cam), np.zeros(8)), calib, (HEIGHT, WIDTH))
        assert pixels.valid.all()  # each car lies wholly in view
        extent = [pixels.u.min(), pixels.v.min(), pixels.u.max(), pixels.v.max()]
        np.testing.assert_allclose(extent, box_2d, atol=0.005)


def test_every_car_in_view_gets_foreground_points(frame, capsys):
    root, cars = frame
    xyz, foreground, _ = _maskgen(root, capsys)
    cam = geometry.lidar_to_camera(xyz, kitti.read_calib(root / "calib.txt"))
    for box in cars:
        assert np.any(foreground & geometry.points_in_box(cam, box)), box


def test_maskgen_pixels_and_fuse_rows_are_finite_and_in_the_image(frame, capsys):
    root, cars = frame
    calib = kitti.read_calib(root / "calib.txt")
    xyz, foreground, mask = _maskgen(root, capsys)
    pixels = geometry.project_points(PointCloud(xyz, np.zeros(len(xyz))), calib, (HEIGHT, WIDTH))
    assert np.isfinite(xyz).all() and pixels.valid.all()
    # a supervised pixel is a sampled point's nearest pixel, inside its car's label box rounded out to whole pixels
    rows, cols = np.nonzero(mask)
    assert len(rows) > 0 and set(np.unique(mask)) <= {0, 255}  # every sampled point is on a car
    in_a_box = np.zeros(len(rows), dtype=bool)
    for x1, y1, x2, y2 in CAR_BOXES_2D:
        in_a_box |= (np.floor(x1) <= cols) & (cols <= np.ceil(x2)) & (np.floor(y1) <= rows) & (rows <= np.ceil(y2))
    assert in_a_box.all()
    for mode in ("v1", "v2"):
        out = root / f"fused_{mode}.pacf"
        argv = ["fuse", root / "scan.bin", root / "calib.txt", root / "semantic.pacf", "--out", out, "--mode", mode]
        assert cli.main(list(map(str, argv))) == cli.EXIT_OK, capsys.readouterr().err
        fused = kitti.read_feature_map(out).data
        assert fused.shape[:2] == (len(xyz), 1) and np.isfinite(fused).all(), mode
