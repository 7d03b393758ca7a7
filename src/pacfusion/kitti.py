"""Readers and writers for KITTI-format files and the feature-map container.

Supported formats
-----------------
* Velodyne scan (``.bin``): packed records of four little-endian float32
  values ``(x, y, z, reflectance)``, 16 bytes per point.
* Calibration (``.txt``): lines of ``KEY: v1 v2 ...``; P2 (12 values),
  R0_rect (9) and Tr_velo_to_cam (12) are required, other keys ignored.
* Label (``.txt``): 15+ whitespace-separated fields per object
  (type, truncation, occlusion, alpha, 2D bbox, h w l, x y z, ry, ...).
* Feature-map container: magic ``PACF``, version u16, H/W/C u32, then
  H*W*C little-endian float32 values, row-major, channel-minor.
* Grayscale PGM (P5, maxval 255) as an alternative single-channel mask,
  rescaled to [0, 1].
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .types import Box3D, FeatureMap, PointCloud


class FormatError(ValueError):
    """A file does not conform to its declared binary or text format."""


VELO_RECORD_BYTES = 16

FEATUREMAP_MAGIC = b"PACF"
FEATUREMAP_VERSION = 1

_ORTHO_TOL = 1e-3


class CalibrationSet:
    """KITTI projection/rectification/extrinsic matrices.

    P2 is the left color camera projection (3x4), R0_rect the rectification
    rotation (3x3), Tr_velo_to_cam the LIDAR-to-camera rigid transform (3x4).
    """

    def __init__(self, P2: np.ndarray, R0_rect: np.ndarray, Tr_velo_to_cam: np.ndarray):
        self.P2 = np.asarray(P2, dtype=np.float64).reshape(3, 4)
        self.R0_rect = np.asarray(R0_rect, dtype=np.float64).reshape(3, 3)
        self.Tr_velo_to_cam = np.asarray(Tr_velo_to_cam, dtype=np.float64).reshape(3, 4)
        for name, rot in (
            ("R0_rect", self.R0_rect),
            ("Tr_velo_to_cam", self.Tr_velo_to_cam[:, :3]),
        ):
            err = np.abs(rot @ rot.T - np.eye(3)).max()
            if not err <= _ORTHO_TOL:  # NaN fails too
                raise FormatError(f"{name} rotation not orthonormal (max deviation {err:.2e})")

    @classmethod
    def identity(cls) -> "CalibrationSet":
        P2 = np.hstack([np.eye(3), np.zeros((3, 1))])
        Tr = np.hstack([np.eye(3), np.zeros((3, 1))])
        return cls(P2, np.eye(3), Tr)


def read_velodyne(path) -> PointCloud:
    """Read a KITTI velodyne scan into a point cloud, order preserved."""
    raw = Path(path).read_bytes()
    return decode_velodyne(raw)


def decode_velodyne(raw: bytes) -> PointCloud:
    if len(raw) % VELO_RECORD_BYTES != 0:
        offset = len(raw) - len(raw) % VELO_RECORD_BYTES
        raise FormatError(
            f"velodyne payload truncated: {len(raw)} bytes, trailing record at offset {offset}"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4).astype(np.float64)
    finite = np.isfinite(data)
    if not finite.all():  # one flat pass; the per-record reduction is ~10x slower
        raise FormatError(f"non-finite velodyne record at index {np.nonzero(~finite.all(axis=1))[0][0]}")
    reflectance = data[:, 3]
    if len(data) and (reflectance.min() < 0.0 or reflectance.max() > 1.0):
        raise FormatError("velodyne payload: reflectance values must lie in [0, 1]")
    return PointCloud._trusted(data[:, :3], reflectance)


def encode_velodyne(cloud: PointCloud) -> bytes:
    """Inverse of decode_velodyne; float32 little-endian records."""
    data = np.empty((len(cloud), 4), dtype="<f4")
    data[:, :3] = cloud.xyz
    data[:, 3] = cloud.reflectance
    return data.tobytes()


def write_velodyne(cloud: PointCloud, path) -> None:
    Path(path).write_bytes(encode_velodyne(cloud))


_CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


def read_calib(path) -> CalibrationSet:
    """Parse a KITTI calibration text file.

    Unknown keys are ignored; missing required keys or wrong value counts
    raise FormatError naming the key.
    """
    values: dict[str, np.ndarray] = {}
    for line in Path(path).read_text().splitlines():
        if ":" not in line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip()
        if key not in _CALIB_KEYS:
            continue
        fields = rest.split()
        if len(fields) != _CALIB_KEYS[key]:
            raise FormatError(
                f"calibration key {key}: expected {_CALIB_KEYS[key]} values, got {len(fields)}"
            )
        try:
            values[key] = np.array([float(v) for v in fields])
        except ValueError as exc:
            raise FormatError(f"calibration key {key}: {exc}") from None
        if not np.all(np.isfinite(values[key])):
            raise FormatError(f"calibration key {key}: non-finite value")
    for key in _CALIB_KEYS:
        if key not in values:
            raise FormatError(f"calibration file missing key {key}")
    return CalibrationSet(
        P2=values["P2"].reshape(3, 4),
        R0_rect=values["R0_rect"].reshape(3, 3),
        Tr_velo_to_cam=values["Tr_velo_to_cam"].reshape(3, 4),
    )


def read_labels(path) -> list[Box3D]:
    """Parse a KITTI label file; DontCare entries retained but flagged."""
    boxes = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 15:
            raise FormatError(f"label line {lineno}: expected >= 15 fields, got {len(fields)}")
        kind = fields[0]
        try:
            h, w, l = (float(v) for v in fields[8:11])
            x, y, z = (float(v) for v in fields[11:14])
            ry = float(fields[14])
            boxes.append(
                Box3D(x=x, y=y, z=z, h=h, w=w, l=l, ry=ry, label=kind, dontcare=kind == "DontCare")
            )
        except ValueError as exc:
            raise FormatError(f"label line {lineno}: {exc}") from exc
    return boxes


def write_feature_map(fmap: FeatureMap, path) -> None:
    """Write the PACF feature-map container (float32 LE payload)."""
    header = FEATUREMAP_MAGIC + struct.pack(
        "<HIII", FEATUREMAP_VERSION, fmap.height, fmap.width, fmap.channels
    )
    payload = fmap.data.astype("<f4").tobytes()
    Path(path).write_bytes(header + payload)


def read_feature_map(path) -> FeatureMap:
    """Read the PACF container as a float32 map over the file's bytes (read-only)."""
    raw = Path(path).read_bytes()
    if len(raw) < 18 or raw[:4] != FEATUREMAP_MAGIC:
        raise FormatError("feature-map container: bad magic")
    version, h, w, c = struct.unpack("<HIII", raw[4:18])
    if version != FEATUREMAP_VERSION:
        raise FormatError(f"feature-map container: unsupported version {version}")
    expected = 4 * h * w * c
    if len(raw) - 18 != expected:
        raise FormatError(
            f"feature-map container: payload is {len(raw) - 18} bytes, expected {expected}"
        )
    data = np.frombuffer(raw, dtype="<f4", offset=18).reshape(h, w, c)
    try:
        return FeatureMap(data=data)
    except ValueError as exc:
        raise FormatError(f"feature-map container: {exc}") from None


def read_pgm_mask(path) -> FeatureMap:
    """Read a binary PGM (P5, maxval 255) as a single-channel map in [0, 1]."""
    raw = Path(path).read_bytes()
    tokens, pos = [], 0
    while len(tokens) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        tokens.append(raw[start:pos])
    if tokens[0] != b"P5":
        raise FormatError("PGM mask: expected binary P5 header")
    width, height, maxval = (int(t) if t.isdigit() else -1 for t in tokens[1:])
    if min(width, height, maxval) < 0:
        raise FormatError("PGM mask: malformed or truncated header")
    if maxval != 255:
        raise FormatError(f"PGM mask: expected maxval 255, got {maxval}")
    pos += 1  # single whitespace after maxval
    payload = raw[pos : pos + width * height]
    if len(payload) != width * height:
        raise FormatError("PGM mask: truncated payload")
    grid = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    try:
        return FeatureMap(data=(grid / 255.0)[:, :, None])
    except ValueError as exc:
        raise FormatError(f"PGM mask: {exc}") from None


def write_pgm(grid: np.ndarray, path) -> None:
    """Write a uint8 H x W grid as binary PGM (P5, maxval 255)."""
    grid = np.asarray(grid, dtype=np.uint8)
    h, w = grid.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + grid.tobytes())
