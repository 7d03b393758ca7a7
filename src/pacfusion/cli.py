"""Command-line front end for the fusion pipeline.

Exit codes: 0 success, 1 usage error, 2 format error, 3 verification
failure. Every command is deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import fusion, geometry, kdtree, kitti, losses
from .types import PointCloud

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FORMAT = 2
EXIT_VERIFY = 3

BEV_RESOLUTION = 0.1  # meters per pixel


def _prepare_cloud(args, calib, image_size) -> PointCloud:
    """ROI crop, then camera-frustum filter, then seeded subsampling.

    A stage that leaves no point is a usage error naming that stage.
    """
    cloud = kitti.read_velodyne(args.velodyne)
    cloud, _ = geometry.filter_region(cloud, args.roi)
    if len(cloud) == 0:
        raise ValueError(f"{args.velodyne}: 0 points after the ROI crop")
    pixels = geometry.project_points(cloud, calib, image_size)
    visible = np.nonzero(pixels.valid)[0]
    if len(visible) == 0:
        raise ValueError(
            f"{args.velodyne}: no point in the camera frustum ({len(cloud)} points after the ROI crop)"
        )
    cloud = geometry._take(cloud, visible)
    cloud, _ = geometry.subsample(cloud, args.n_sample, args.seed)
    return cloud


def _parse_roi(text: str) -> geometry.RegionOfInterest:
    """argparse type of --roi: six comma-separated bounds x0,x1,y0,y1,z0,z1."""
    vals = [float(v) for v in text.split(",")]
    if len(vals) != 6:
        raise argparse.ArgumentTypeError("needs x0,x1,y0,y1,z0,z1")
    try:
        return geometry.RegionOfInterest(*vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bev_roi(text: str) -> geometry.RegionOfInterest:
    """argparse type of bev-render's --roi: finite x and y spans that each round to one BEV pixel or more."""
    roi = _parse_roi(text)
    if not all(0.5 < span / BEV_RESOLUTION < np.inf for span in (roi.x_max - roi.x_min, roi.y_max - roi.y_min)):
        raise argparse.ArgumentTypeError(f"x and y spans must be finite and at least one {BEV_RESOLUTION} m pixel")
    return roi


def _positive_int(text: str) -> int:
    """argparse type of the count and size flags: an integer from 1 to 2**63 - 1, numpy's int64 size limit."""
    value = int(text)
    if not 1 <= value < 2**63:
        raise argparse.ArgumentTypeError(f"must be from 1 to 2**63 - 1, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as numpy's generators need."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _radius(text: str) -> float:
    """argparse type of --dist: a radius >= 0, inf allowed, NaN not."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


# "00" .. "99": two ASCII digits per uint16
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)


def _csv_rows(*columns: np.ndarray) -> bytes:
    """Comma-separated ASCII lines, one per row of the equal-length 1-D columns.

    A signed int or bool column prints as `%d`, a float column as `%.6f`, each cell
    byte for byte as `%` prints it. Every cell goes into one (rows, width)
    byte matrix, with NUL bytes where a cell is narrower than its column, and
    the NULs are dropped once at the end.
    """
    comma, newline = (np.full((len(columns[0]), 1), ord(c), dtype=np.uint8) for c in ",\n")
    pieces = [piece for col in columns for piece in (_column_cells(col), comma)]
    pieces[-1] = newline
    return np.concatenate(pieces, axis=1).tobytes().translate(None, b"\0")


def _column_cells(col: np.ndarray) -> np.ndarray:
    """(rows, width) bytes of one column's cells; a NUL byte prints nothing."""
    if col.dtype.kind in "bi":
        v = col.astype(np.int64, copy=False)
        return _integer_cells(v < 0, np.abs(v).view(np.uint64))  # as uint64, |int64 min| is 2**63
    col = col.astype(np.float64, copy=False)
    size = np.abs(col)
    fits = size < 2.0**52 / 1e6  # exactly where size * 1e6 < 2**52; False for NaN
    p = np.where(fits, size, 0.0) * 1e6
    r = np.rint(p)
    # p is the exact product |x| * 1e6 rounded to float64. Below 2**52 it rounds to
    # the same integer as the exact product, except where p lies on a tie
    # (|p - r| == 0.5) and the exact product may lie just past it.
    fits &= np.abs(p - r) != 0.5
    scaled = r.astype(np.int64)
    whole = scaled // 1_000_000
    dot = np.full((len(col), 1), ord("."), dtype=np.uint8)
    fraction = _digits((scaled - whole * 1_000_000).astype(np.int32), 6)
    cells = np.concatenate((_integer_cells(np.signbit(col), whole), dot, fraction), axis=1)
    # ties, non-finite values and |x| * 1e6 >= 2**52: formatted by % one by one
    bad = np.nonzero(~fits)[0]
    if len(bad):
        texts = [b"%.6f" % x for x in col[bad].tolist()]
        width = max(cells.shape[1], *map(len, texts))
        cells = np.pad(cells, ((0, 0), (width - cells.shape[1], 0)))
        cells[bad] = 0
        for i, text in zip(bad, texts):
            cells[i, width - len(text) :] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _integer_cells(neg: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Cells of a '-' where `neg` and the digits of the magnitudes m >= 0, leading zeros as NUL."""
    top = int(m.max()) if len(m) else 0
    n = len(str(top))
    cells = np.empty((len(m), n + 1), dtype=np.uint8)
    cells[:, 0] = neg * np.uint8(ord("-"))
    # digit k from the right is printed where m >= 10**k; the units digit always is
    lowest = 10 ** np.arange(n - 1, -1, -1, dtype=m.dtype)
    lowest[-1] = 0
    np.multiply(_digits(m, n), m[:, None] >= lowest, out=cells[:, 1:])
    return cells


def _digits(m: np.ndarray, n: int) -> np.ndarray:
    """(rows, n) ASCII digits of the integers 0 <= m < 10**n, leading zeros included."""
    pairs = np.empty((len(m), (n + 1) // 2), dtype=np.uint16)
    for j in range(pairs.shape[1] - 1, 0, -1):
        high = m // 100  # numpy divides by a scalar far faster than it takes a scalar %
        pairs[:, j] = _DIGIT_PAIRS.take(m - 100 * high)
        m = high
    pairs[:, 0] = _DIGIT_PAIRS.take(m)
    return pairs.view(np.uint8)[:, 2 * pairs.shape[1] - n :]


def cmd_project(args) -> int:
    cloud = kitti.read_velodyne(args.velodyne)
    calib = kitti.read_calib(args.calib)
    pixels = geometry.project_points(cloud, calib, (args.height, args.width))
    rows = _csv_rows(np.arange(len(pixels)), pixels.u, pixels.v, pixels.depth, pixels.valid)
    sys.stdout.write("index,u,v,depth,valid\n" + rows.decode("ascii"))
    return EXIT_OK


def cmd_knn(args) -> int:
    cloud = kitti.read_velodyne(args.velodyne)
    if len(cloud) == 0:
        raise ValueError(f"{args.velodyne}: 0 points")
    idx = kdtree.knn_table(cloud.xyz, args.k, args.dist)
    print("index," + ",".join(f"n{j}" for j in range(args.k)))
    sys.stdout.write(_csv_rows(np.arange(len(cloud)), *idx.T).decode("ascii"))
    if args.verify:
        mismatches = 0
        for i in range(len(cloud)):
            oracle = kdtree.knn_brute(cloud.xyz, cloud.xyz[i], args.k, args.dist)
            if not np.array_equal(oracle.indices, idx[i]):
                mismatches += 1
                print(f"MISMATCH at {i}: tree {idx[i].tolist()} vs brute {oracle.indices.tolist()}", file=sys.stderr)
        if mismatches:
            return EXIT_VERIFY
        print(f"# verified {len(cloud)} queries against brute force", file=sys.stderr)
    return EXIT_OK


def cmd_fuse(args) -> int:
    given = [f"--{name}" for name in ("params", "k", "dist") if getattr(args, name) is not None]
    if args.mode == "v2" and given:  # input-level fusion runs no operator and no kNN
        raise ValueError(f"{given[0]} applies to --mode v1 only")
    k, d = args.k or 3, np.inf if args.dist is None else args.dist
    calib = kitti.read_calib(args.calib)
    fmap = kitti.read_feature_map(args.featuremap)
    size = (fmap.height, fmap.width)
    cloud = _prepare_cloud(args, calib, size)
    if args.mode == "v1":
        d_i = fmap.channels + 3  # semantic channels and the offset; a scan carries no point features
        if args.params:
            params = fusion.load_params(args.params)
            try:  # checked before the per-point kNN queries
                params.check_fit(k, d_i)
            except ValueError as exc:
                raise ValueError(f"checkpoint {args.params}: {exc} (--k is {k}; the frame gives rows of width"
                                 f" {d_i} = {fmap.channels} semantic + 0 point channels + 3)") from None
        else:  # the default operator D_i -> max(D_i, 8) -> 8 always fits
            params = fusion.init_params(fusion.MlpSpec.default(d_i, 8), k, seed=args.seed)
    # large map values or weights may overflow; the float32 rows written are checked instead
    with np.errstate(over="ignore", invalid="ignore"):
        if args.mode == "v1":
            fused = fusion.fuse_cloud(cloud, fmap, calib, params, d)
        else:  # input-level fusion: each point's retrieved semantics, with no operator
            fused = fusion.retrieve_features(geometry.project_points(cloud, calib, size), fmap)[0]
        rows = fused.astype(np.float32)
    if not np.isfinite(rows).all():
        raise ValueError("the PACF operator's output overflows float32, the type of the output container")
    kitti.write_feature_map(kitti.FeatureMap(data=rows[:, None, :]), args.out)
    print(f"wrote {len(fused)} rows of width {fused.shape[1]} to {args.out}")
    return EXIT_OK


def cmd_maskgen(args) -> int:
    calib = kitti.read_calib(args.calib)
    boxes = kitti.read_labels(args.labels)
    image_size = (args.height, args.width)
    cloud = _prepare_cloud(args, calib, image_size)
    fg = losses.label_points(cloud, boxes, calib)
    dontcare = [box for box in boxes if box.dontcare]
    mask = losses.make_sparse_mask(cloud, fg, calib, image_size, dontcare_boxes=dontcare)
    mask.to_pgm(args.out_mask)
    rows = _csv_rows(np.arange(len(cloud)), *cloud.xyz.T, fg)
    kitti._write(args.out_labels, b"index,x,y,z,foreground\n", rows)
    n_sup = int(mask.supervised.sum())
    print(f"mask {args.width}x{args.height}: {n_sup} supervised pixels, {int(fg.sum())} foreground points")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import TOLERANCE, check_focal_gradients, check_pacf_gradients

    ok = True
    for name, check in (("pacf", check_pacf_gradients), ("focal", check_focal_gradients)):
        errors, unjudged = zip(*check(n_instances=args.instances, seed=args.seed))
        print(f"{name} max relative gradient error: {max(errors):.3e} ({sum(unjudged)} probes unjudged)")
        ok &= max(errors) < TOLERANCE
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_bev_render(args) -> int:
    calib = kitti.read_calib(args.calib)
    fmap = kitti.read_feature_map(args.featuremap)
    cloud = kitti.read_velodyne(args.velodyne)
    roi = args.roi
    cloud, _ = geometry.filter_region(cloud, roi)
    pixels = geometry.project_points(cloud, calib, (fmap.height, fmap.width))
    semantic, _ = fusion.retrieve_features(pixels, fmap)
    values = semantic[:, 0]

    h = int(round((roi.x_max - roi.x_min) / BEV_RESOLUTION))
    w = int(round((roi.y_max - roi.y_min) / BEV_RESOLUTION))
    img = np.zeros((h, w, 3), dtype=np.uint8)
    rows = np.clip(((roi.x_max - cloud.xyz[:, 0]) / BEV_RESOLUTION).astype(int), 0, h - 1)
    cols = np.clip(((roi.y_max - cloud.xyz[:, 1]) / BEV_RESOLUTION).astype(int), 0, w - 1)
    vmax = values.max() if len(values) and values.max() > 0 else 1.0
    shade = np.clip(values / vmax, 0.0, 1.0)
    colors = np.column_stack((255 * shade, np.full(len(shade), 64), 255 * (1 - shade))).astype(np.uint8)
    # the highest point index wins a pixel: in reverse order it is the first occurrence
    pix, first = np.unique((rows * w + cols)[::-1], return_index=True)
    img.reshape(-1, 3)[pix] = colors[::-1][first]
    kitti._write(args.out, f"P6\n{w} {h}\n255\n".encode(), img)
    print(f"wrote {w}x{h} BEV render to {args.out}")
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--roi", type=_parse_roi, default=geometry.RegionOfInterest(), help="x0,x1,y0,y1,z0,z1")
    p.add_argument("--n-sample", type=_positive_int, default=16384)


def _add_neighbors(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=_positive_int, default=3)
    p.add_argument("--dist", type=_radius, default=np.inf)


@functools.cache  # one parser per process: argparse keeps no state between parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pacfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="project a velodyne scan onto the image plane (CSV)")
    p.add_argument("velodyne")
    p.add_argument("calib")
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--width", type=_positive_int, required=True)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("knn", help="neighbor table, optionally verified against brute force")
    p.add_argument("velodyne")
    _add_neighbors(p)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_knn)

    p = sub.add_parser("fuse", help="run the fusion operator over a frame")
    p.add_argument("velodyne")
    p.add_argument("calib")
    p.add_argument("featuremap")
    p.add_argument("--params", default=None, help="PACW checkpoint; random init of D_i,max(D_i,8),8 if omitted")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["v1", "v2"], default="v1")
    _add_common(p)
    _add_neighbors(p)
    p.set_defaults(func=cmd_fuse, k=None, dist=None)  # None: not given, which v1 reads as K 3 and d inf

    p = sub.add_parser("maskgen", help="sparse mask PGM + per-point label CSV")
    p.add_argument("velodyne")
    p.add_argument("calib")
    p.add_argument("labels")
    p.add_argument("--height", type=_positive_int, required=True)
    p.add_argument("--width", type=_positive_int, required=True)
    p.add_argument("--out-mask", dest="out_mask", required=True)
    p.add_argument("--out-labels", dest="out_labels", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_maskgen)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--instances", type=_positive_int, default=20)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bev-render", help="top-down PPM colored by retrieved semantics")
    p.add_argument("velodyne")
    p.add_argument("calib")
    p.add_argument("featuremap")
    p.add_argument("--out", required=True)
    p.add_argument("--roi", type=_bev_roi, default=geometry.RegionOfInterest(), help="x0,x1,y0,y1,z0,z1")
    p.set_defaults(func=cmd_bev_render)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except kitti.FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
