"""Independent reference computations that decide whether an output is correct.

Everything here is written from the formats and contracts in the
program's docstrings and README, not from its code paths: the pipeline
reconstruction (ROI crop, frustum filter, seeded draw), a per-point naive
PACF forward, a chunked vectorised forward for finite differences, the
sparse-mask rule and the focal loss. The only program function used is
`kdtree.knn_brute`, which is the project's own kNN oracle.

Each `check_*` function returns a list of failure messages; an empty
list means the output is correct.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

import frames

ROI = (0.0, 70.4, -40.0, 40.0, -1.0, 3.0)  # the CLI's default --roi
UNSUPERVISED, BACKGROUND, FOREGROUND = 0, 1, 2
PGM_LEVELS = np.array([0, 128, 255], dtype=np.uint8)
PROB_EPS = 1e-7
FORWARD_TOL = 1e-12  # relative to max(1, |value|), float64 outputs
FD_STEP = 1e-6
FD_TOL = 1e-6  # relative error allowed between a gradient and its central difference


@dataclass
class Sample:
    """The sampled cloud the pipeline should have built from one frame."""

    xyz: np.ndarray  # (n, 3) float64
    u: np.ndarray
    v: np.ndarray
    depth: np.ndarray
    valid: np.ndarray
    counts: dict[str, int]


def project(xyz: np.ndarray):
    """Pixel coordinates (u, v), depth and validity on the KITTI image plane."""
    tr, r0, p2 = frames.TR_VELO_TO_CAM, frames.R0_RECT, frames.P2
    cam = (xyz @ tr[:, :3].T + tr[:, 3]) @ r0.T
    hom = cam @ p2[:, :3].T + p2[:, 3]
    w = hom[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = hom[:, 0] / w
        v = hom[:, 1] / w
    valid = (w > 0) & (u >= 0) & (u < frames.WIDTH) & (v >= 0) & (v < frames.HEIGHT)
    return u, v, w, valid


def pixel_index(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest grid cell (round half down), as (rows, cols)."""
    cols = np.clip(np.ceil(u - 0.5).astype(np.int64), 0, frames.WIDTH - 1)
    rows = np.clip(np.ceil(v - 0.5).astype(np.int64), 0, frames.HEIGHT - 1)
    return rows, cols


def sample_frame(frame: frames.Frame, seed: int, n_sample: int) -> Sample:
    """ROI crop, frustum filter, then the seeded draw of `subsample`'s contract."""
    xyz = frame.xyz.astype(np.float64)
    x0, x1, y0, y1, z0, z1 = ROI
    in_roi = (
        (xyz[:, 0] >= x0) & (xyz[:, 0] <= x1)
        & (xyz[:, 1] >= y0) & (xyz[:, 1] <= y1)
        & (xyz[:, 2] >= z0) & (xyz[:, 2] <= z1)
    )
    roi = xyz[in_roi]
    visible = roi[project(roi)[3]]
    rng = np.random.default_rng(seed)
    count = len(visible)
    if count >= n_sample:
        idx = rng.choice(count, size=n_sample, replace=False)
    else:
        idx = np.concatenate([np.arange(count), rng.choice(count, size=n_sample - count, replace=True)])
    sampled = visible[idx]
    u, v, depth, valid = project(sampled)
    counts = {"raw": len(xyz), "roi": len(roi), "frustum": count}
    return Sample(xyz=sampled, u=u, v=v, depth=depth, valid=valid, counts=counts)


def foreground(xyz: np.ndarray, boxes: list[frames.Box]) -> np.ndarray:
    """Inside any non-DontCare box, per the KITTI box convention."""
    tr, r0 = frames.TR_VELO_TO_CAM, frames.R0_RECT
    cam = (xyz @ tr[:, :3].T + tr[:, 3]) @ r0.T
    fg = np.zeros(len(xyz), dtype=bool)
    for b in boxes:
        if b.label == "DontCare":
            continue
        dx, dz = cam[:, 0] - b.x, cam[:, 2] - b.z
        c, s = np.cos(b.ry), np.sin(b.ry)
        fg |= (
            (np.abs(c * dx - s * dz) <= b.l / 2)
            & (np.abs(s * dx + c * dz) <= b.w / 2)
            & (cam[:, 1] >= b.y - b.h)
            & (cam[:, 1] <= b.y)
        )
    return fg


def glorot_params(widths, k: int, seed: int):
    """The CLI's random initialisation: Glorot-uniform weights, zero biases, 1/K scalars."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases, np.full(k, 1.0 / k)


def naive_forward(rows: np.ndarray, weights, biases, aggr) -> np.ndarray:
    """PACF output for one point from its (K, D_i) neighbour rows, slot by slot."""
    outs = []
    for row in rows:
        h = row
        for li, (w, b) in enumerate(zip(weights, biases)):
            h = h @ w + b
            if li < len(weights) - 1:
                h = np.maximum(h, 0.0)
        outs.append(h)
    y_cc = sum(outs)
    y_a = sum(a * y for a, y in zip(aggr, outs))
    y_pool = np.array([max(rows[:, c]) for c in range(rows.shape[1])])
    return np.concatenate([y_cc, y_a, y_pool])


def batch_forward(rows: np.ndarray, weights, biases, aggr, pattern=None):
    """Vectorised PACF output for (n, K, D_i) rows, and the pattern it used.

    The pattern is the hidden layers' ReLU masks and the max-pool slot per
    channel (the lowest slot among equal maxima, where the operator routes
    its gradient). Given a pattern, the output applies it instead of its
    own, which makes the output linear in the rows and polynomial in the
    parameters, so central differences are exact up to rounding.
    """
    masks, slot = pattern if pattern is not None else (None, np.argmax(rows, axis=1))
    h, used = rows, []
    for li, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w + b
        if li < len(weights) - 1:
            used.append(h > 0 if masks is None else masks[li])
            h = h * used[-1]
    y_cc = h.sum(axis=1)
    y_a = np.einsum("k,nkd->nd", aggr, h)
    y_pool = np.take_along_axis(rows, slot[:, None, :], axis=1)[:, 0, :]
    return np.concatenate([y_cc, y_a, y_pool], axis=1), (used, slot)


def row_gradient_fd(rows: np.ndarray, weights, biases, aggr, grad_out: np.ndarray, j) -> float:
    """Central difference of sum(out * grad_out) for one point's (K, D_i) rows, at entry j."""
    pattern = batch_forward(rows[None], weights, biases, aggr)[1]
    vals = []
    for sign in (1.0, -1.0):
        shifted = rows.copy()
        shifted[j] += sign * FD_STEP
        vals.append(batch_forward(shifted[None], weights, biases, aggr, pattern)[0][0] @ grad_out)
    return (vals[0] - vals[1]) / (2 * FD_STEP)


def neighbor_rows(xyz, semantic, sem_valid, features, idx, targets) -> np.ndarray:
    """[semantic | point features | offset] rows of the targets, whose neighbours are `idx`."""
    sem = np.where(sem_valid[idx][:, :, None], semantic[idx], 0.0)
    parts = [sem] if features is None else [sem, features[idx]]
    parts.append(xyz[idx] - xyz[targets][:, None, :])
    return np.concatenate(parts, axis=2)


def focal(pred: np.ndarray, state: np.ndarray, alpha=0.25, gamma=2.0) -> float:
    """Mean focal term over supervised pixels."""
    sup = state != UNSUPERVISED
    p = np.clip(pred[sup], PROB_EPS, 1.0 - PROB_EPS)
    fg = state[sup] == FOREGROUND
    p_t = np.where(fg, p, 1.0 - p)
    a_t = np.where(fg, alpha, 1.0 - alpha)
    return float(np.sum(-a_t * (1.0 - p_t) ** gamma * np.log(p_t)) / sup.sum())


def mask_state(sample: Sample, fg: np.ndarray) -> np.ndarray:
    """Stamp labels onto pixels: nearest depth wins, lower point index breaks ties."""
    state = np.full((frames.HEIGHT, frames.WIDTH), UNSUPERVISED, dtype=np.uint8)
    rows, cols = pixel_index(sample.u, sample.v)
    taken = set()
    for i in sorted(np.nonzero(sample.valid)[0], key=lambda i: (sample.depth[i], i)):
        pixel = (rows[i], cols[i])
        if pixel not in taken:
            taken.add(pixel)
            state[pixel] = FOREGROUND if fg[i] else BACKGROUND
    return state


def clear_dontcare(state: np.ndarray, boxes) -> np.ndarray:
    """The mask with each DontCare box's image extent left unsupervised."""
    cleared = state.copy()
    for box in boxes:
        rect = box_extent(box) if box.label == "DontCare" else None
        if rect is not None:
            cleared[rect[0] : rect[1], rect[2] : rect[3]] = UNSUPERVISED
    return cleared


def box_extent(box: frames.Box):
    """Pixel rectangle (r0, r1, c0, c1) covered by a box's eight projected corners."""
    c, s = np.cos(box.ry), np.sin(box.ry)
    corners = np.array(
        [
            (box.x + c * sx + s * sz, box.y + sy, box.z - s * sx + c * sz)
            for sx in (-box.l / 2, box.l / 2)
            for sy in (-box.h, 0.0)
            for sz in (-box.w / 2, box.w / 2)
        ]
    )
    hom = corners @ frames.P2[:, :3].T + frames.P2[:, 3]
    if np.any(hom[:, 2] <= 0):
        return None
    u, v = hom[:, 0] / hom[:, 2], hom[:, 1] / hom[:, 2]
    return (
        int(np.clip(np.floor(v.min()), 0, frames.HEIGHT)),
        int(np.clip(np.ceil(v.max()) + 1, 0, frames.HEIGHT)),
        int(np.clip(np.floor(u.min()), 0, frames.WIDTH)),
        int(np.clip(np.ceil(u.max()) + 1, 0, frames.WIDTH)),
    )


def parse_pacf(raw: bytes) -> np.ndarray:
    """Decode a PACF feature-map container into an (H, W, C) float32 array."""
    if len(raw) < 18 or raw[:4] != b"PACF":
        raise ValueError("not a PACF container")
    _, h, w, c = struct.unpack("<HIII", raw[4:18])
    return np.frombuffer(raw[18:], dtype="<f4").reshape(h, w, c)


def _pacf_rows(raw: bytes, n: int, width: int, failures: list[str]) -> np.ndarray | None:
    try:
        out = parse_pacf(raw)
    except ValueError as exc:
        failures.append(f"fused output unreadable: {exc}")
        return None
    if out.shape != (n, 1, width):
        failures.append(f"fused output shape {out.shape}, expected {(n, 1, width)}")
        return None
    return out[:, 0, :]


def check_fuse_v1(raw: bytes, sample: Sample, fmap: np.ndarray, seed: int, k: int, d_o: int,
                  probe: np.ndarray, program_knn: np.ndarray) -> list[str]:
    """Fused v1 rows at the probe points against the naive forward over brute-force neighbours.

    The container stores float32, so a row passes when each value is within
    one float32 ulp of the float64 reference. `program_knn` is the
    program's neighbour table for the probe points; it must equal
    `knn_brute` exactly.
    """
    from pacfusion import kdtree

    failures: list[str] = []
    n = len(sample.xyz)
    d_i = fmap.shape[2] + 3
    weights, biases, aggr = glorot_params((d_i, max(d_i, d_o), d_o), k, seed)
    brute = np.array([kdtree.knn_brute(sample.xyz, sample.xyz[t], k).indices for t in probe])
    if not np.array_equal(brute, program_knn):
        failures.append("kNN rows differ from knn_brute")
    rows = _pacf_rows(raw, n, 2 * d_o + d_i, failures)
    if rows is None:
        return failures
    r, c = pixel_index(sample.u, sample.v)
    semantic = fmap[r, c].astype(np.float64)
    for t, nrows in zip(probe, neighbor_rows(sample.xyz, semantic, sample.valid, None, brute, probe)):
        expected = naive_forward(nrows, weights, biases, aggr).astype(np.float32)
        if np.any(np.abs(rows[t] - expected) > np.spacing(np.abs(expected))):
            failures.append(f"fused v1 row {t} differs from the naive forward")
            break
    return failures


def check_fuse_v2(raw: bytes, sample: Sample, fmap: np.ndarray) -> list[str]:
    """Every v2 row must equal the map value at the point's nearest pixel."""
    failures: list[str] = []
    rows = _pacf_rows(raw, len(sample.xyz), fmap.shape[2], failures)
    if rows is None:
        return failures
    r, c = pixel_index(sample.u, sample.v)
    bad = np.nonzero(np.any(rows != fmap[r, c], axis=1))[0]
    if len(bad):
        failures.append(f"{len(bad)} v2 rows differ from the retrieved semantics (first {bad[0]})")
    return failures


def check_maskgen(pgm: bytes, csv: str, sample: Sample, fg: np.ndarray, boxes) -> list[str]:
    """Mask bytes and the per-point label CSV.

    Inside the DontCare box's image extent the mask may be either the
    stamped reference or cleared: the library clears it when given the
    DontCare boxes, and the CLI does not pass them today.
    """
    failures: list[str] = []
    state = mask_state(sample, fg)
    header = f"P5\n{frames.WIDTH} {frames.HEIGHT}\n255\n".encode()
    accepted = [header + PGM_LEVELS[s].tobytes() for s in (state, clear_dontcare(state, boxes))]
    if pgm not in accepted:
        failures.append("mask PGM differs from the nearest-depth reference")
    lines = ["index,x,y,z,foreground"]
    lines += [f"{i},{x:.6f},{y:.6f},{z:.6f},{int(f)}" for i, ((x, y, z), f) in enumerate(zip(sample.xyz, fg))]
    if csv != "\n".join(lines) + "\n":
        failures.append("label CSV differs from the reference")
    return failures


def _directional(grads, dirs) -> tuple[float, float]:
    """Derivative along `dirs` from the gradients, and the root-sum-square of its terms.

    The terms have random signs, so the sum can cancel far below the
    rounding of a central difference; the root-sum-square is its scale.
    """
    terms = [(g * v).ravel() for g, v in zip(grads, dirs)]
    return float(sum(t.sum() for t in terms)), float(np.sqrt(sum(t @ t for t in terms)))


def _close(a: float, b: float, tol: float, scale: float = 0.0) -> bool:
    """Relative agreement; `scale` floors the magnitude for components near zero."""
    return abs(a - b) <= tol * max(abs(a), abs(b), scale, 1e-8)


def check_train_step(step, inputs, setup, probe: np.ndarray, fd_rows: np.ndarray, rng) -> list[str]:
    """Forward rows, gradients and focal loss of one train step.

    Forward rows at the probe points must match the naive forward to
    1e-12. Gradients are checked by central differences: the row
    gradients on a small sub-batch (each row's gradient depends on that
    row alone), the parameter gradients along one random direction over
    the whole batch, the focal gradient along one random direction over
    the whole map. The ReLU masks and max-pool slots of the unperturbed
    point are held fixed, so a step across a kink or a pooling tie (two
    neighbours on one pixel share their semantics) does not blur the
    difference. Each difference must agree to FD_TOL relative; a row
    component is measured against the row's largest component, and the
    focal derivative against the root-sum-square of its terms, because
    rounding in the difference scales with those.
    """
    failures: list[str] = []
    weights, biases, aggr = setup.params.weights, setup.params.biases, setup.params.aggr_weights

    def rows_of(targets):
        return neighbor_rows(setup.xyz, setup.semantic, setup.sem_valid, inputs.features,
                             setup.nbr[targets], targets)

    for t, nrows in zip(probe, rows_of(probe)):
        expected = naive_forward(nrows, weights, biases, aggr)
        if np.any(np.abs(step.out[t] - expected) > FORWARD_TOL * np.maximum(1.0, np.abs(expected))):
            failures.append(f"train forward row {t} differs from the naive forward")
            break

    # row gradients: d/d rows[t] of sum(out[t] * grad_out[t])
    for t, nrows in zip(fd_rows, rows_of(fd_rows)):
        for flat in rng.choice(nrows.size, size=6, replace=False):
            j = np.unravel_index(flat, nrows.shape)
            numeric = row_gradient_fd(nrows, weights, biases, aggr, inputs.grad_out[t], j)
            # rounding in the difference is relative to the row's gradient, not this component
            if not _close(step.grad_rows[t][j], numeric, FD_TOL, np.abs(step.grad_rows[t]).max()):
                failures.append(f"row gradient {t}{j}: {step.grad_rows[t][j]} vs {numeric}")
                break

    # parameter gradients along one random direction, whole batch in chunks
    dirs = [rng.normal(size=p.shape) for p in (*weights, *biases, aggr)]
    grads = [*step.grad_w, *step.grad_b, step.grad_aggr]
    analytic = _directional(grads, dirs)[0]
    n_layers = len(weights)
    totals = {1.0: 0.0, -1.0: 0.0}
    for lo in range(0, len(setup.xyz), 2048):
        chunk = np.arange(lo, min(lo + 2048, len(setup.xyz)))
        rows = rows_of(chunk)
        pattern = batch_forward(rows, weights, biases, aggr)[1]
        for sign in totals:
            moved = [p + sign * FD_STEP * v for p, v in zip((*weights, *biases, aggr), dirs)]
            out = batch_forward(rows, moved[:n_layers], moved[n_layers:-1], moved[-1], pattern)[0]
            totals[sign] += float(np.sum(out * inputs.grad_out[chunk]))
    numeric = (totals[1.0] - totals[-1.0]) / (2 * FD_STEP)
    # no floor here: the groups' scales differ by orders of magnitude, and a
    # root-sum-square floor would hide an error in the small ones
    if not _close(analytic, numeric, FD_TOL):
        failures.append(f"parameter gradients: directional {analytic} vs central difference {numeric}")

    expected = focal(inputs.predictions, setup.mask_state)
    if not _close(step.loss, expected, FORWARD_TOL):
        failures.append(f"focal loss {step.loss} vs reference {expected}")
    direction = rng.normal(size=inputs.predictions.shape)
    numeric = (
        focal(inputs.predictions + FD_STEP * direction, setup.mask_state)
        - focal(inputs.predictions - FD_STEP * direction, setup.mask_state)
    ) / (2 * FD_STEP)
    analytic, scale = _directional([step.grad_pred], [direction])
    if not _close(analytic, numeric, FD_TOL, scale):
        failures.append(f"focal gradient: directional {analytic} vs central difference {numeric}")
    return failures
