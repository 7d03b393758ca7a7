"""Core domain types shared across the package.

Coordinate conventions follow KITTI: the LIDAR frame has x forward,
y left, z up (meters); the rectified camera frame has x right, y down,
z forward. Boxes live in the camera frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# bound on |box field| and |calibration entry| (meters, radians, pixels): far past any real scene, and
# small enough that projecting float32 points and box corners through them cannot overflow float64
_MAX_ABS = 1e6


@dataclass(frozen=True)
class FusionDims:
    """Channel bookkeeping for the fusion operator.

    d_i is always c_seg + c_lidar + 3: semantic channels, point-feature
    channels, and the 3-vector geometric offset. The fused output is the
    concatenation [conv | attentive | pooled] of width 2*d_o + d_i.
    """

    c_seg: int
    c_lidar: int
    d_o: int

    def __post_init__(self) -> None:
        for name, low in (("c_seg", 1), ("c_lidar", 0), ("d_o", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def d_i(self) -> int:
        return self.c_seg + self.c_lidar + 3


@dataclass
class PointCloud:
    """Ordered 3D point set with per-point reflectance: what a velodyne scan holds.

    xyz: (N, 3) float64 array, LIDAR frame, stored column-major (F-contiguous),
        so each axis is one contiguous run for the per-point passes that read it.
    reflectance: (N,) float64 array in [0, 1].
    """

    xyz: np.ndarray
    reflectance: np.ndarray

    def __post_init__(self) -> None:
        self.xyz = np.asfortranarray(np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3))
        self.reflectance = np.asarray(self.reflectance, dtype=np.float64).reshape(-1)
        if len(self.reflectance) != len(self.xyz):
            raise ValueError(
                f"reflectance length {len(self.reflectance)} != point count {len(self.xyz)}"
            )
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("point coordinates must be finite")
        # written so that NaN fails it: min and max of an array holding NaN are NaN
        if len(self.reflectance) and not (self.reflectance.min() >= 0.0 and self.reflectance.max() <= 1.0):
            raise ValueError("reflectance values must lie in [0, 1]")

    @classmethod
    def _trusted(cls, xyz: np.ndarray, reflectance: np.ndarray) -> "PointCloud":
        """A cloud of arrays already in the validated form; no checks run.

        xyz is an F-contiguous (N, 3) float64 array of finite values, reflectance an (N,) float64 array in [0, 1].
        """
        cloud = object.__new__(cls)
        cloud.xyz, cloud.reflectance = xyz, reflectance
        return cloud

    def __len__(self) -> int:
        return len(self.xyz)


@dataclass
class FeatureMap:
    """Dense H x W x C image-plane feature grid; float32 data stays float32, other dtypes become float64."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        if self.data.ndim != 3:
            raise ValueError(f"feature map must be (H, W, C), got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"feature map needs height and width >= 1, got {self.data.shape[0]}x{self.data.shape[1]}")
        if self.data.shape[2] < 1:
            raise ValueError("feature map needs at least one channel")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature map values must be finite")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class Box3D:
    """Oriented 3D box, camera frame, KITTI label convention.

    (x, y, z) is the box bottom center; the box spans [y - h, y] vertically.
    ry is yaw about the camera Y axis.
    """

    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    ry: float
    label: str = "Car"
    dontcare: bool = field(default=False)

    def __post_init__(self) -> None:
        if not np.all(np.abs([self.x, self.y, self.z, self.h, self.w, self.l, self.ry]) <= _MAX_ABS):  # NaN fails
            raise ValueError(f"box fields must be finite and within +-{_MAX_ABS:g}")
        if not self.dontcare:
            if self.h <= 0 or self.w <= 0 or self.l <= 0:
                raise ValueError(f"box dimensions must be positive: h={self.h} w={self.w} l={self.l}")
            if not (-np.pi <= self.ry <= np.pi):
                raise ValueError(f"ry must lie in [-pi, pi], got {self.ry}")
