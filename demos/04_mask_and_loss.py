#!/usr/bin/env python3
"""From 3D boxes to a sparse image mask and the focal loss.

Points inside a box are foreground; projecting them stamps a sparse
supervision mask, and the focal loss is evaluated only on stamped pixels.
"""

import tempfile
from pathlib import Path

import numpy as np

from pacfusion import (
    Box3D,
    CalibrationSet,
    PointCloud,
    focal_loss,
    label_points,
    make_sparse_mask,
)

Tr = np.array([[0.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
P2 = np.array([[100.0, 0, 96, 0], [0, 100.0, 32, 0], [0, 0, 1, 0]])
calib = CalibrationSet(P2=P2, R0_rect=np.eye(3), Tr_velo_to_cam=Tr)

box = Box3D(x=0.0, y=1.0, z=15.0, h=1.6, w=1.7, l=3.9, ry=0.4, label="Car")

rng = np.random.default_rng(5)
xyz = rng.uniform([5, -8, -1.5], [30, 8, 1.5], size=(2000, 3))
cloud = PointCloud(xyz=xyz, reflectance=rng.uniform(0, 1, 2000))

fg = label_points(cloud, [box], calib)
print(f"{fg.sum()} of {len(cloud)} points fall inside the box")

mask = make_sparse_mask(cloud, fg, calib, image_size=(64, 192))
print(f"{int(mask.supervised.sum())} supervised pixels "
      f"({int((mask.state == 2).sum())} foreground)")

# a confident-but-wrong predictor pays much more than a calibrated one
uniform = np.full((64, 192), 0.5)
confident_wrong = np.where(mask.state == 2, 0.1, 0.9)
for name, preds in [("uniform 0.5", uniform), ("confidently wrong", confident_wrong)]:
    loss, grad, _ = focal_loss(preds, mask)  # defaults alpha=0.25, gamma=2
    print(f"focal loss, {name}: {loss:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "mask_demo.pgm"
    mask.to_pgm(path)
    print(f"wrote {path} (0 unsupervised / 128 background / 255 foreground)")
