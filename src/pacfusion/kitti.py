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

Input files are mapped read-only, not copied (`_map`); outputs are written
without joined copies (`_write`).
"""

from __future__ import annotations

import math
import mmap
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .types import _MAX_ABS, Box3D, FeatureMap, PointCloud


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
    Raises FormatError unless every entry is finite and within +-1e6 and both rotations are orthonormal.
    """

    def __init__(self, P2: np.ndarray, R0_rect: np.ndarray, Tr_velo_to_cam: np.ndarray):
        self.P2 = np.asarray(P2, dtype=np.float64).reshape(3, 4)
        self.R0_rect = np.asarray(R0_rect, dtype=np.float64).reshape(3, 3)
        self.Tr_velo_to_cam = np.asarray(Tr_velo_to_cam, dtype=np.float64).reshape(3, 4)
        for name in ("P2", "R0_rect", "Tr_velo_to_cam"):
            if not np.isfinite(getattr(self, name)).all():
                raise FormatError(f"{name}: non-finite value")
            if np.abs(getattr(self, name)).max() > _MAX_ABS:
                raise FormatError(f"{name}: a value beyond +-{_MAX_ABS:g}")
        for name, rot in (("R0_rect", self.R0_rect), ("Tr_velo_to_cam", self.Tr_velo_to_cam[:, :3])):
            err = np.abs(rot @ rot.T - np.eye(3)).max()
            if err > _ORTHO_TOL:
                raise FormatError(f"{name} rotation not orthonormal (max deviation {err:.2e})")


def _map(path):
    """The file's bytes: a read-only map of a regular file, read whole from anything else.

    `mmap` cannot map 0 bytes, so an empty regular file gives b"", and it cannot map a pipe
    (or /dev/stdin fed by one), so a pipe is read as `Path.read_bytes` reads it.
    """
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if not stat.S_ISREG(info.st_mode):
            return f.read()
        if info.st_size == 0:
            return b""
        return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)


def _write(path, *parts) -> None:
    """Write the parts (bytes or C-contiguous arrays) to the file back to back, without joining them first.

    A regular file is cut to its new length after the parts are written, not when it is opened,
    so a map read from the file and written back to it is read before the file is cut.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        for part in parts:
            f.write(part)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):  # a pipe or a device cannot be cut
            f.truncate()


def read_velodyne(path) -> PointCloud:
    """Read a KITTI velodyne scan into a point cloud, order preserved; the cloud shares no memory with the file."""
    return decode_velodyne(_map(path))


def decode_velodyne(raw) -> PointCloud:
    """Decode the packed records of a bytes-like object into fresh float64 arrays, the coordinates column-major."""
    if len(raw) % VELO_RECORD_BYTES != 0:
        offset = len(raw) - len(raw) % VELO_RECORD_BYTES
        raise FormatError(
            f"velodyne payload truncated: {len(raw)} bytes, trailing record at offset {offset}"
        )
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    finite = np.isfinite(data)  # before widening: widening a signalling NaN raises the invalid flag
    if not finite.all():  # one flat pass; the per-record reduction is ~10x slower
        raise FormatError(f"non-finite velodyne record at index {np.nonzero(~finite.all(axis=1))[0][0]}")
    # widened straight into a column-major cloud: each axis is one contiguous run, on which the ROI mask
    # runs ~5x faster than on a strided axis of C-ordered rows
    xyz = np.empty((len(data), 3), order="F")
    for j in range(3):  # column by column: numpy casts a strided (N, 3) view with a slow loop per record
        xyz[:, j] = data[:, j]
    reflectance = np.array(data[:, 3], dtype=np.float64)
    if len(data) and (reflectance.min() < 0.0 or reflectance.max() > 1.0):
        raise FormatError("velodyne payload: reflectance values must lie in [0, 1]")
    return PointCloud._trusted(xyz, reflectance)


def encode_velodyne(cloud: PointCloud) -> bytes:
    """Inverse of decode_velodyne; float32 little-endian records."""
    data = np.empty((len(cloud), 4), dtype="<f4")
    data[:, :3] = cloud.xyz
    data[:, 3] = cloud.reflectance
    return data.tobytes()


def write_velodyne(cloud: PointCloud, path) -> None:
    Path(path).write_bytes(encode_velodyne(cloud))


_CALIB_KEYS = {"P2": 12, "R0_rect": 9, "Tr_velo_to_cam": 12}


def _read_text(path) -> str:
    """The file's text, decoded as UTF-8; a byte that does not decode is a FormatError."""
    try:
        return str(_map(path), "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text, byte {exc.start}: {exc.reason}") from None


def read_calib(path) -> CalibrationSet:
    """Parse a KITTI calibration text file.

    Unknown keys are ignored; missing required keys or wrong value counts
    raise FormatError naming the key.
    """
    values: dict[str, np.ndarray] = {}
    for line in _read_text(path).splitlines():
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
    for key in _CALIB_KEYS:
        if key not in values:
            raise FormatError(f"calibration file missing key {key}")
    return CalibrationSet(**values)


# fields 1-7 of a label line, checked to be finite numbers but not read (the 2D box is unused)
_LABEL_FIELDS = ("truncation", "occlusion", "alpha", "2D box left", "2D box top", "2D box right", "2D box bottom")


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_labels(path) -> list[Box3D]:
    """Parse a KITTI label file; DontCare entries retained but flagged."""
    boxes = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split()
        if len(fields) < 15:
            raise FormatError(f"label line {lineno}: expected >= 15 fields, got {len(fields)}")
        for i, name in enumerate(_LABEL_FIELDS, start=1):
            if not _finite(fields[i]):
                raise FormatError(f"label line {lineno}: field {i} ({name}) is not a finite number: {fields[i]!r}")
        kind = fields[0]
        try:
            h, w, l, x, y, z, ry = map(float, fields[8:15])
            boxes.append(Box3D(x=x, y=y, z=z, h=h, w=w, l=l, ry=ry, label=kind, dontcare=kind == "DontCare"))
        except ValueError as exc:
            raise FormatError(f"label line {lineno}: {exc}") from exc
    return boxes


def write_feature_map(fmap: FeatureMap, path) -> None:
    """Write the PACF feature-map container (float32 LE payload)."""
    header = FEATUREMAP_MAGIC + struct.pack(
        "<HIII", FEATUREMAP_VERSION, fmap.height, fmap.width, fmap.channels
    )
    _write(path, header, np.ascontiguousarray(fmap.data, dtype="<f4"))


def read_feature_map(path) -> FeatureMap:
    """Read the PACF container as a read-only float32 map that views the file's pages.

    Rewriting the file while the map is in use may change the map, or end the
    process with SIGBUS if the file gets shorter. `write_feature_map` of this
    same map back to its file is safe: it reads the map before it cuts the file.
    """
    raw = _map(path)
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
    try:  # a zero size next to a huge one passes the size check but not the reshape
        return FeatureMap(data=np.frombuffer(raw, dtype="<f4", offset=18).reshape(h, w, c))
    except ValueError as exc:
        raise FormatError(f"feature-map container: {exc}") from None


def write_pgm(grid: np.ndarray, path) -> None:
    """Write a uint8 H x W grid as binary PGM (P5, maxval 255)."""
    grid = np.ascontiguousarray(grid, dtype=np.uint8)
    h, w = grid.shape
    _write(path, f"P5\n{w} {h}\n255\n".encode(), grid)
