"""Deterministic KITTI-size frames for the benchmark.

A frame is ~120k LIDAR points (density falling with range, a ground
band, building fronts, clutter, point clusters inside ~12 `Car` boxes and
one `DontCare` box), a 375x1242x4 float32 semantic map, KITTI calibration
values and the matching label file. Everything is drawn from a numpy
generator seeded by the caller, so one seed always gives one frame.

The files are written here with plain numpy, following the formats in
the program's `kitti` module docstring, so that set-up does not run the
code under test.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEIGHT, WIDTH, CHANNELS = 375, 1242, 4
N_RAW = 120_000

# KITTI object-benchmark calibration (training frame 000000)
P2 = np.array(
    [[721.5377, 0.0, 609.5593, 44.85728],
     [0.0, 721.5377, 172.854, 0.2163791],
     [0.0, 0.0, 1.0, 0.002745884]]
)
R0_RECT = np.array(
    [[0.9999239, 0.0098377, -0.007445048],
     [-0.009869795, 0.9999421, -0.004278459],
     [0.007402527, 0.004351614, 0.9999631]]
)
TR_VELO_TO_CAM = np.array(
    [[0.007533745, -0.9999714, -0.000616602, -0.004069766],
     [0.01480249, 0.0007280733, -0.9998902, -0.07631618],
     [0.9998621, 0.00752379, 0.01480755, -0.2717806]]
)

N_CARS = 12
N_GROUND = 62_000
N_FACADE = 10_000
SENSOR_HEIGHT = 1.73  # LIDAR above the road, metres
CAMERA_HEIGHT = 1.65  # camera above the road: box bottoms sit at camera y = 1.65


@dataclass(frozen=True)
class Box:
    """One KITTI label: camera-frame bottom centre, dimensions and yaw."""

    label: str
    h: float
    w: float
    l: float
    x: float
    y: float
    z: float
    ry: float


@dataclass
class Frame:
    xyz: np.ndarray  # (N, 3) float32, LIDAR frame
    reflectance: np.ndarray  # (N,) float32 in [0, 1]
    fmap: np.ndarray  # (H, W, C) float32
    boxes: list[Box]


def _polar_points(rng, n, r_lo, r_hi, z_lo, z_hi):
    """n points with uniform azimuth and density falling as 1/range."""
    theta = rng.uniform(-np.pi, np.pi, n)
    r = np.exp(rng.uniform(np.log(r_lo), np.log(r_hi), n))
    z = rng.uniform(z_lo, z_hi, n)
    return np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)


def _camera_to_lidar(cam: np.ndarray) -> np.ndarray:
    """Exact inverse of p_cam = R0_rect (Tr[:, :3] p + Tr[:, 3])."""
    unrect = np.linalg.solve(R0_RECT, cam.T).T - TR_VELO_TO_CAM[:, 3]
    return np.linalg.solve(TR_VELO_TO_CAM[:, :3], unrect.T).T


def _box_points(rng, box: Box, n: int) -> np.ndarray:
    """n LIDAR-frame points strictly inside the box (5% shrink)."""
    local = rng.uniform([-box.l / 2, -box.h, -box.w / 2], [box.l / 2, 0.0, box.w / 2], (n, 3))
    local *= 0.95
    local[:, 1] -= 0.025 * box.h  # centre the shrunk box vertically
    c, s = np.cos(box.ry), np.sin(box.ry)
    cam = np.stack(
        [
            box.x + c * local[:, 0] + s * local[:, 2],
            box.y + local[:, 1],
            box.z - s * local[:, 0] + c * local[:, 2],
        ],
        axis=1,
    )
    return _camera_to_lidar(cam)


def _place_boxes(rng) -> list[Box]:
    boxes: list[Box] = []
    while len(boxes) < N_CARS + 1:
        dontcare = len(boxes) == N_CARS
        z = rng.uniform(45.0, 60.0) if dontcare else rng.uniform(6.0, 42.0)
        x = rng.uniform(-0.55, 0.55) * z * (WIDTH / 2) / P2[0, 0]
        if any((x - b.x) ** 2 + (z - b.z) ** 2 < 6.0 ** 2 for b in boxes):
            continue
        boxes.append(
            Box(
                label="DontCare" if dontcare else "Car",
                # two decimals, as the label file stores them
                h=round(rng.uniform(1.4, 1.7), 2),
                w=round(rng.uniform(1.5, 1.8), 2),
                l=round(rng.uniform(3.5, 4.5), 2),
                x=round(x, 2),
                y=CAMERA_HEIGHT,
                z=round(z, 2),
                ry=round(rng.uniform(-3.14, 3.14), 2),
            )
        )
    return boxes


def make_frame(seed) -> Frame:
    """The frame for `seed` (an int or a sequence of ints)."""
    rng = np.random.default_rng(seed)
    boxes = _place_boxes(rng)
    parts = []
    for box in boxes:
        # nearer objects return more points
        parts.append(_box_points(rng, box, int(9000.0 / box.z)))
    ground = _polar_points(rng, N_GROUND, 2.5, 90.0, 0.0, 0.0)
    # a gently rising band around the ROI floor (z = -1), so the crop keeps part of it
    ground[:, 2] = -SENSOR_HEIGHT + 0.85 + 0.004 * ground[:, 0] + rng.normal(0.0, 0.15, N_GROUND)
    parts.append(ground)
    # building fronts beside the road, mostly outside the camera's field of view
    side = rng.choice([-1.0, 1.0], N_FACADE) * rng.uniform(6.0, 20.0, N_FACADE)
    facade = np.stack(
        [np.abs(side) * rng.uniform(0.0, 1.0, N_FACADE), side, rng.uniform(-1.2, 3.2, N_FACADE)],
        axis=1,
    )
    parts.append(facade)
    n_clutter = N_RAW - sum(len(p) for p in parts)
    parts.append(_polar_points(rng, n_clutter, 3.0, 100.0, -1.6, 3.8))
    xyz = np.vstack(parts).astype(np.float32)
    reflectance = rng.random(N_RAW, dtype=np.float32)
    fmap = rng.random((HEIGHT, WIDTH, CHANNELS), dtype=np.float32)
    return Frame(xyz=xyz, reflectance=reflectance, fmap=fmap, boxes=boxes)


def _matrix_line(key: str, mat: np.ndarray) -> str:
    return f"{key}: " + " ".join(f"{v:.9e}" for v in mat.ravel())


def write_frame(frame: Frame, directory: Path) -> dict[str, Path]:
    """Write velodyne, calibration, label and feature-map files; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "velodyne": directory / "frame.bin",
        "calib": directory / "calib.txt",
        "labels": directory / "labels.txt",
        "featuremap": directory / "semantic.pacf",
    }
    records = np.empty((len(frame.xyz), 4), dtype="<f4")
    records[:, :3] = frame.xyz
    records[:, 3] = frame.reflectance
    paths["velodyne"].write_bytes(records.tobytes())
    # KITTI files carry more keys than the reader needs; it must skip them
    keys = [("P0", P2), ("P1", P2), ("P2", P2), ("P3", P2), ("R0_rect", R0_RECT),
            ("Tr_velo_to_cam", TR_VELO_TO_CAM), ("Tr_imu_to_velo", TR_VELO_TO_CAM)]
    paths["calib"].write_text("".join(_matrix_line(k, m) + "\n" for k, m in keys))
    paths["labels"].write_text(
        "".join(
            f"{b.label} 0.00 0 0.00 0.00 0.00 100.00 100.00 "
            f"{b.h:.2f} {b.w:.2f} {b.l:.2f} {b.x:.2f} {b.y:.2f} {b.z:.2f} {b.ry:.2f}\n"
            for b in frame.boxes
        )
    )
    header = b"PACF" + struct.pack("<HIII", 1, HEIGHT, WIDTH, CHANNELS)
    paths["featuremap"].write_bytes(header + frame.fmap.astype("<f4").tobytes())
    return paths

