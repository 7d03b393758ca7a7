import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pacfusion import kitti
from pacfusion.types import Box3D, FeatureMap, PointCloud

# LIDAR (x fwd, y left, z up) -> camera (x right, y down, z fwd)
TR_VELO_TO_CAM = np.array(
    [[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]]
)


def make_calib(f=100.0, cx=96.0, cy=32.0):
    P2 = np.array([[f, 0.0, cx, 0.0], [0.0, f, cy, 0.0], [0.0, 0.0, 1.0, 0.0]])
    return kitti.CalibrationSet(P2=P2, R0_rect=np.eye(3), Tr_velo_to_cam=TR_VELO_TO_CAM)


def write_calib_file(path, f=100.0, cx=96.0, cy=32.0):
    p2 = [f, 0, cx, 0, 0, f, cy, 0, 0, 0, 1, 0]
    r0 = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    tr = TR_VELO_TO_CAM.ravel().tolist()
    lines = [
        "P0: " + " ".join("0" for _ in range(12)),
        "P2: " + " ".join(str(v) for v in p2),
        "R0_rect: " + " ".join(str(v) for v in r0),
        "Tr_velo_to_cam: " + " ".join(str(v) for v in tr),
    ]
    path.write_text("\n".join(lines) + "\n")


def read_p5(path, height, width) -> np.ndarray:
    """The uint8 grid of a binary PGM, whose header must be exactly `kitti.write_pgm`'s."""
    raw = path.read_bytes()
    header = f"P5\n{width} {height}\n255\n".encode()
    assert raw[: len(header)] == header
    assert len(raw) == len(header) + height * width
    return np.frombuffer(raw, dtype=np.uint8, offset=len(header)).reshape(height, width)


def run_cli(argv, cwd, threads="1"):
    """(exit code, stdout, stderr) of `python -m pacfusion.cli argv` run in cwd at `threads` OpenBLAS threads."""
    src = str(Path(kitti.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "pacfusion.cli", *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def random_cloud(rng, n, lo=(0.0, -40.0, -1.0), hi=(70.4, 40.0, 3.0)):
    xyz = rng.uniform(lo, hi, size=(n, 3))
    return PointCloud(xyz=xyz, reflectance=rng.uniform(0, 1, size=n))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def synthetic_frame(tmp_path):
    """Small frame: two object clusters, background points, box-consistent map."""
    return write_synthetic_frame(tmp_path)


def write_synthetic_frame(tmp_path, n_background=1000):
    """Write a frame's scan, calibration, labels and feature map into tmp_path; return them with their paths.

    Two clusters of 200 points fill two Car boxes; n_background points lie 5-60 m ahead.
    """
    rng = np.random.default_rng(7)
    h, w = 64, 192
    calib = make_calib(f=100.0, cx=w / 2, cy=h / 2)

    # boxes in camera frame; centers ahead of the camera
    boxes = [
        Box3D(x=-3.0, y=1.0, z=15.0, h=1.6, w=1.7, l=3.9, ry=0.3, label="Car"),
        Box3D(x=4.0, y=1.0, z=25.0, h=1.5, w=1.6, l=3.5, ry=-0.8, label="Car"),
    ]

    def cam_to_lidar(c):
        # inverse of TR_VELO_TO_CAM (pure rotation here)
        return np.array([c[2], -c[0], -c[1]])

    parts = []
    for box in boxes:
        local = rng.uniform(
            [-box.l / 2, -box.h, -box.w / 2], [box.l / 2, 0.0, box.w / 2], size=(200, 3)
        ) * 0.95
        c, s = np.cos(box.ry), np.sin(box.ry)
        cam = np.stack(
            [
                box.x + c * local[:, 0] + s * local[:, 2],
                box.y + local[:, 1],
                box.z - s * local[:, 0] + c * local[:, 2],
            ],
            axis=1,
        )
        parts.append(np.apply_along_axis(cam_to_lidar, 1, cam))
    background = rng.uniform([5.0, -15.0, -1.0], [60.0, 15.0, 2.0], size=(n_background, 3))
    parts.append(background)
    xyz = np.vstack(parts)
    cloud = PointCloud(xyz=xyz, reflectance=rng.uniform(0, 1, size=len(xyz)))

    velo = tmp_path / "frame.bin"
    kitti.write_velodyne(cloud, velo)

    calib_path = tmp_path / "calib.txt"
    write_calib_file(calib_path, f=100.0, cx=w / 2, cy=h / 2)

    label_path = tmp_path / "labels.txt"
    lines = []
    for b in boxes:
        lines.append(
            f"Car 0.0 0 0.0 0 0 10 10 {b.h} {b.w} {b.l} {b.x} {b.y} {b.z} {b.ry}"
        )
    label_path.write_text("\n".join(lines) + "\n")

    # feature map stamped 1.0 wherever a box point projects (box-consistent)
    from pacfusion import geometry, losses

    fg = losses.label_points(cloud, boxes, calib)
    pixels = geometry.project_points(cloud, calib, (h, w))
    data = np.zeros((h, w, 1))
    stamped = fg & pixels.valid
    rows, cols = geometry.nearest_pixel(pixels.u[stamped], pixels.v[stamped], (h, w))
    data[rows, cols, 0] = 1.0
    fmap = FeatureMap(data=data)
    fmap_path = tmp_path / "semantic.pacf"
    kitti.write_feature_map(fmap, fmap_path)

    return {
        "dir": tmp_path,
        "velodyne": velo,
        "calib_path": calib_path,
        "labels_path": label_path,
        "featuremap_path": fmap_path,
        "cloud": cloud,
        "calib": calib,
        "boxes": boxes,
        "fmap": fmap,
        "image_size": (h, w),
        "fg": fg,
    }
