#!/usr/bin/env python3
"""Drive the whole pipeline through the CLI on a generated KITTI-style frame.

Writes a velodyne scan, calibration, labels and a feature map into a temp
directory, runs maskgen, fuse (both strategies) and bev-render, and lists
the artifacts before the directory is removed. Exits 1 if any command
returns a nonzero exit code.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from pacfusion import FeatureMap, PointCloud, cli, kitti

failed = []


def run(*argv):
    code = cli.main([str(a) for a in argv])
    if code != cli.EXIT_OK:
        failed.append(f"{argv[0]} exited {code}")


with tempfile.TemporaryDirectory(prefix="pacfusion_demo_") as tmpdir:
    tmp = Path(tmpdir)
    rng = np.random.default_rng(6)

    # scene: one car-sized cluster plus ground clutter
    cluster = rng.normal([15, 2, 0], [1.0, 0.5, 0.4], size=(300, 3))
    ground = rng.uniform([5, -12, -1], [45, 12, 1.5], size=(1500, 3))
    xyz = np.vstack([cluster, ground])
    cloud = PointCloud(xyz=xyz, reflectance=rng.uniform(0, 1, len(xyz)))
    kitti.write_velodyne(cloud, tmp / "frame.bin")

    (tmp / "calib.txt").write_text(
        "P2: 100 0 96 0 0 100 32 0 0 0 1 0\n"
        "R0_rect: 1 0 0 0 1 0 0 0 1\n"
        "Tr_velo_to_cam: 0 -1 0 0 0 0 -1 0 1 0 0 0\n"
    )
    # the cluster in camera coordinates: (-y, -z, x) = (-2, 0, 15)
    (tmp / "labels.txt").write_text("Car 0 0 0 0 0 10 10 1.6 1.7 3.9 -2.0 0.8 15.0 0.0\n")

    fmap = FeatureMap(data=rng.uniform(0, 1, size=(64, 192, 1)))
    kitti.write_feature_map(fmap, tmp / "semantic.pacf")

    common = ["--n-sample", "1024", "--seed", "11"]

    print("== maskgen ==")
    run("maskgen", tmp / "frame.bin", tmp / "calib.txt", tmp / "labels.txt", "--height", 64, "--width", 192,
        "--out-mask", tmp / "mask.pgm", "--out-labels", tmp / "points.csv", *common)

    print("== fuse, operator mid-pipeline (v1) ==")
    run("fuse", tmp / "frame.bin", tmp / "calib.txt", tmp / "semantic.pacf",
        "--mode", "v1", "--out", tmp / "fused_v1.pacf", *common)

    print("== fuse, input-level concat (v2) ==")
    run("fuse", tmp / "frame.bin", tmp / "calib.txt", tmp / "semantic.pacf",
        "--mode", "v2", "--out", tmp / "fused_v2.pacf", *common)

    print("== bev-render ==")
    run("bev-render", tmp / "frame.bin", tmp / "calib.txt", tmp / "semantic.pacf", "--out", tmp / "bev.ppm")

    print("\nartifacts in", tmp)
    for p in sorted(tmp.iterdir()):
        print(f"  {p.name:16} {p.stat().st_size:>9} bytes")
if failed:
    print("FAILED: " + "; ".join(failed), file=sys.stderr)
    sys.exit(1)
