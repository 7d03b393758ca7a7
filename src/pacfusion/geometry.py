"""Geometry bridging the LIDAR and camera frames.

Projection follows the KITTI chain: p_cam = R0_rect * Tr_velo_to_cam * p,
then pixel = P2 * [p_cam, 1] with perspective divide. Points that land
behind the camera or outside the image are flagged invalid rather than
dropped, so outputs stay index-aligned with the input cloud.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kitti import CalibrationSet
from .types import Box3D, PointCloud


@dataclass(frozen=True)
class PixelCoords:
    """Continuous pixel coordinates per point, index-aligned with the cloud."""

    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class RegionOfInterest:
    """Closed axis-aligned crop box in the LIDAR frame (meters)."""

    x_min: float = 0.0
    x_max: float = 70.4
    y_min: float = -40.0
    y_max: float = 40.0
    z_min: float = -1.0
    z_max: float = 3.0

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max and self.z_min < self.z_max):
            raise ValueError("ROI bounds must satisfy min < max per axis")


def _affine_rows(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m[:, :3].T for (N, 3) rows, plus the offset column m[:, 3] when m is 3x4; column-major like a cloud.

    The product takes a C-contiguous copy of m[:, :3].T, which is about 2x faster
    than the transposed view, gives every N >= 2 the view's bits, and gives a row the
    same bits alone as in any batch, whatever the layout of rows (tests/test_geometry.py
    pins all three). It is written into an F-contiguous array, so the divisions, the
    comparisons and points_in_box read each axis as one contiguous run. The offset is
    added in place.
    """
    out = np.matmul(rows, np.ascontiguousarray(m[:, :3].T), out=np.empty((len(rows), 3), order="F"))
    if m.shape[1] == 4:
        out += m[:, 3]
    return out


def lidar_to_camera(xyz: np.ndarray, calib: CalibrationSet) -> np.ndarray:
    """Map (N, 3) LIDAR points into the rectified camera frame."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # a point too far out for float64 becomes inf or NaN
        return _affine_rows(_affine_rows(xyz, calib.Tr_velo_to_cam), calib.R0_rect)


def project_points(cloud: PointCloud, calib: CalibrationSet, image_size: tuple[int, int]) -> PixelCoords:
    """Project every point onto the image plane; image_size is (H, W)."""
    height, width = image_size
    cam = lidar_to_camera(cloud.xyz, calib)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an overflow gives inf or NaN: invalid
        hom = _affine_rows(cam, calib.P2)
        w = hom[:, 2]
        u = np.where(w != 0, hom[:, 0] / w, np.inf)
        v = np.where(w != 0, hom[:, 1] / w, np.inf)
    valid = (w > 0) & (u >= 0) & (u < width) & (v >= 0) & (v < height)
    return PixelCoords(u=u, v=v, depth=w, valid=valid)


def nearest_pixel(u: np.ndarray, v: np.ndarray, image_size: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the nearest grid cells: ceil(x - 0.5), so halves round down, clipped to the (H, W) image."""
    height, width = image_size
    rows = np.clip(np.ceil(v - 0.5).astype(np.int64), 0, height - 1)
    cols = np.clip(np.ceil(u - 0.5).astype(np.int64), 0, width - 1)
    return rows, cols


def filter_region(cloud: PointCloud, roi: RegionOfInterest) -> tuple[PointCloud, np.ndarray]:
    """Keep points with all coordinates inside the closed ROI bounds.

    Returns the cropped cloud and the index map into the original cloud.
    """
    x, y, z = cloud.xyz.T  # contiguous axes of a column-major cloud
    keep = x >= roi.x_min
    keep &= x <= roi.x_max
    keep &= y >= roi.y_min
    keep &= y <= roi.y_max
    keep &= z >= roi.z_min
    keep &= z <= roi.z_max
    idx = np.nonzero(keep)[0]
    return _take(cloud, idx), idx


def subsample(cloud: PointCloud, n: int, seed: int) -> tuple[PointCloud, np.ndarray]:
    """Deterministically sample exactly n points.

    With count >= n: uniform without replacement. With count < n: every
    point once plus uniform resampling with replacement up to n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(cloud) == 0:
        raise ValueError("cannot subsample an empty cloud")
    rng = np.random.default_rng(seed)
    count = len(cloud)
    if count >= n:
        idx = rng.choice(count, size=n, replace=False)
    else:
        extra = rng.choice(count, size=n - count, replace=True)
        idx = np.concatenate([np.arange(count), extra])
    return _take(cloud, idx), idx


def points_in_box(points_cam: np.ndarray, box: Box3D) -> np.ndarray:
    """Mask of the rows of an (N, 3) camera-frame array inside the box.

    KITTI boxes: the y field is the box bottom, the box spans [y - h, y];
    length runs along local x, width along local z, yawed by ry about Y.
    """
    p = np.asarray(points_cam, dtype=np.float64).reshape(-1, 3)
    dx, dz = p[:, 0] - box.x, p[:, 2] - box.z
    c, s = np.cos(box.ry), np.sin(box.ry)
    # rotate into the box frame (inverse of the yaw rotation); a point too far out for float64 lands in no box
    with np.errstate(over="ignore", invalid="ignore"):
        lx = c * dx - s * dz
        lz = s * dx + c * dz
    return (
        (np.abs(lx) <= box.l / 2)
        & (np.abs(lz) <= box.w / 2)
        & (p[:, 1] >= box.y - box.h)
        & (p[:, 1] <= box.y)
    )


def _take(cloud: PointCloud, idx: np.ndarray) -> PointCloud:
    """The rows `idx` of a cloud, in fresh column-major arrays; rows of a valid cloud need no second validation.

    Each axis is gathered as one contiguous run: take along axis 1 of the (3, N) transpose, whose .T is F-contiguous.
    """
    return PointCloud._trusted(cloud.xyz.T.take(idx, axis=1).T, cloud.reflectance.take(idx))
