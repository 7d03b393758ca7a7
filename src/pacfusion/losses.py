"""Sparse segmentation supervision and the focal loss.

Per-point foreground labels come straight from the 3D boxes (objects do
not overlap in KITTI), and a sparse image-plane mask is obtained by
stamping each validly projecting point onto its pixel. Loss is computed
only at supervised pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _affine_rows, lidar_to_camera, nearest_pixel, points_in_box, project_points
from .kitti import CalibrationSet, write_pgm
from .types import Box3D, PointCloud

UNSUPERVISED, BACKGROUND, FOREGROUND = 0, 1, 2

PROB_EPS = 1e-7


@dataclass
class SparseMask:
    """Per-pixel supervision state."""

    state: np.ndarray  # (H, W) uint8 in {UNSUPERVISED, BACKGROUND, FOREGROUND}

    @property
    def supervised(self) -> np.ndarray:
        return self.state != UNSUPERVISED

    def to_pgm(self, path) -> None:
        """Export for inspection: 0 unsupervised, 128 background, 255 foreground; any other state is a ValueError."""
        state = self.state
        if state.dtype.kind not in "biu":
            raise ValueError(f"mask state dtype {state.dtype} is not an integer type")
        for value in (state.min(initial=UNSUPERVISED), state.max(initial=UNSUPERVISED)):
            if not UNSUPERVISED <= value <= FOREGROUND:
                raise ValueError(f"mask state {value} is not {UNSUPERVISED}, {BACKGROUND} or {FOREGROUND}")
        write_pgm(state * np.uint8(127) + (state != UNSUPERVISED), path)


def label_points(cloud: PointCloud, boxes: list[Box3D], calib: CalibrationSet) -> np.ndarray:
    """Per-point foreground flags: inside any non-DontCare box."""
    cam = lidar_to_camera(cloud.xyz, calib)
    fg = np.zeros(len(cloud), dtype=bool)
    for box in boxes:
        if not box.dontcare:
            fg |= points_in_box(cam, box)
    return fg


def make_sparse_mask(
    cloud: PointCloud,
    labels: np.ndarray,
    calib: CalibrationSet,
    image_size: tuple[int, int],
    dontcare_boxes: list[Box3D] | None = None,
) -> SparseMask:
    """Stamp point labels onto pixels; nearest depth wins conflicts.

    Ties on depth resolve to the lower point index, so the result is a
    deterministic function of the cloud. When dontcare_boxes is given,
    pixels inside each box's projected 2D extent are left unsupervised.
    """
    height, width = image_size
    state = np.full((height, width), UNSUPERVISED, dtype=np.uint8)
    pixels = project_points(cloud, calib, image_size)
    idx = np.flatnonzero(pixels.valid)
    keys = np.ravel_multi_index(nearest_pixel(pixels.u[idx], pixels.v[idx], image_size), image_size)
    by_pixel = np.argsort(keys, kind="stable")  # one sort: by pixel, in index order within a pixel
    keys, order = keys[by_pixel], idx[by_pixel]
    depth = pixels.depth[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))  # each pixel's first point
    nearest = np.repeat(np.minimum.reduceat(depth, starts), np.diff(starts, append=len(keys)))
    hits = np.flatnonzero(depth == nearest)  # points at their pixel's nearest depth
    first = hits[np.flatnonzero(np.diff(keys[hits], prepend=-1))]  # the lowest index among them
    state.flat[keys[first]] = np.where(np.asarray(labels)[order[first]], FOREGROUND, BACKGROUND)
    for box in dontcare_boxes or []:
        rect = _box_image_extent(box, calib, image_size)
        if rect is not None:
            r0, r1, c0, c1 = rect
            state[r0:r1, c0:c1] = UNSUPERVISED
    return SparseMask(state=state)


# Depth (the projective w) each corner of a DontCare box must reach; it keeps u and v finite for the int conversion
NEAR_DEPTH = 0.1


def _box_image_extent(box: Box3D, calib: CalibrationSet, image_size) -> tuple[int, int, int, int] | None:
    """Pixel rectangle of a box's 8 projected corners, clipped to the image; None unless each has w >= NEAR_DEPTH."""
    height, width = image_size
    c, s = np.cos(box.ry), np.sin(box.ry)
    cam = np.array([
        (box.x + c * sx + s * sz, box.y + sy, box.z - s * sx + c * sz)
        for sx in (-box.l / 2, box.l / 2) for sy in (-box.h, 0.0) for sz in (-box.w / 2, box.w / 2)
    ])
    hom = _affine_rows(cam, calib.P2)
    if not (hom[:, 2] >= NEAR_DEPTH).all():
        return None
    u, v = hom[:, 0] / hom[:, 2], hom[:, 1] / hom[:, 2]
    r0, r1 = (int(np.clip(x, 0, height)) for x in (np.floor(v.min()), np.ceil(v.max()) + 1))
    c0, c1 = (int(np.clip(x, 0, width)) for x in (np.floor(u.min()), np.ceil(u.max()) + 1))
    return r0, r1, c0, c1


def focal_loss(
    predictions: np.ndarray,
    mask: SparseMask,
    *,
    alpha: float = 0.25,
    gamma: float = 2.0,
) -> tuple[float, np.ndarray, bool]:
    """Mean focal term over supervised pixels, with weights alpha in (0, 1) and finite gamma >= 0.

    predictions: (H, W) foreground probabilities, the shape of the mask.
    Returns (loss, gradient w.r.t. predictions, warning) where warning
    flags the zero-supervision case (loss defined as 0). Only the
    supervised pixels are read: the terms, their derivatives and the clamp
    are evaluated on those alone, in row-major order, and scattered into a
    zero gradient.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not 0.0 <= gamma < np.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    if predictions.shape != mask.state.shape:
        raise ValueError(f"predictions have shape {predictions.shape} but the mask has shape {mask.state.shape}")
    idx = np.flatnonzero(mask.supervised)
    count = len(idx)
    grad = np.zeros_like(predictions, dtype=np.float64)
    if count == 0:
        return 0.0, grad, True
    pred = predictions.take(idx)
    p = np.clip(pred, PROB_EPS, 1.0 - PROB_EPS)
    fg = mask.state.take(idx) == FOREGROUND

    p_t = np.where(fg, p, 1.0 - p)
    alpha_t = np.where(fg, alpha, 1.0 - alpha)
    terms = -alpha_t * (1.0 - p_t) ** gamma * np.log(p_t)
    loss = float(terms.sum() / count)

    # d/dp_t of the focal term, then chain through p_t = p or 1 - p
    dt = alpha_t * (
        gamma * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t)
        - (1.0 - p_t) ** gamma / p_t
    )
    dp = np.where(fg, dt, -dt) / count
    # clamp saturates the gradient outside (eps, 1 - eps)
    interior = (pred > PROB_EPS) & (pred < 1.0 - PROB_EPS)
    grad.flat[idx[interior]] = dp[interior]
    return loss, grad, False
