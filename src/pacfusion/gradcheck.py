"""Central finite-difference verification of the hand-written gradients."""

from __future__ import annotations

import numpy as np

from . import fusion, losses
from .types import FusionDims

FD_STEP = 1e-5


def rel_error(analytic: float, numeric: float, floor: float = 1e-8) -> float:
    denom = max(abs(analytic), abs(numeric), floor)
    return abs(analytic - numeric) / denom


def random_instance(rng: np.random.Generator, k=3, c_seg=2, c_lidar=4, d_o=5, hidden=None):
    dims = FusionDims(c_seg=c_seg, c_lidar=c_lidar, d_o=d_o)
    n = int(rng.integers(1, 5))
    widths = (dims.d_i, hidden or max(dims.d_i, d_o), d_o)
    params = fusion.init_params(fusion.MlpSpec(widths=widths), k, seed=int(rng.integers(1 << 30)))
    params.aggr_weights = rng.normal(size=k)
    rows = rng.normal(size=(n, k, dims.d_i))
    rows[:, 0, c_seg + c_lidar :] = 0.0  # ego offset
    nf = fusion.NeighborFeatures(rows=rows, valid=np.ones((n, k), dtype=bool), dims=dims)
    return nf, params


def check_pacf_gradients(n_instances: int = 20, seed: int = 0) -> float:
    """Max relative error over all MLP weights, biases and aggregation scalars."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        nf, params = random_instance(rng)
        g_out = rng.normal(size=(nf.rows.shape[0], 2 * params.spec.d_o + nf.dims.d_i))

        def objective() -> float:
            out, _ = fusion.pacf_forward(nf, params)
            return float(np.sum(out.values * g_out))

        _, cache = fusion.pacf_forward(nf, params)
        gw, gb, ga, grows = fusion.pacf_backward(cache, params, g_out)

        arrays = [*params.weights, *params.biases, params.aggr_weights, nf.rows]
        grads = [*gw, *gb, ga, grows]
        for arr, grad in zip(arrays, grads):
            flat, gflat = arr.ravel(), grad.ravel()
            # probe a subset of coordinates per array to keep runtime bounded
            probes = rng.choice(flat.size, size=min(flat.size, 6), replace=False)
            for j in probes:
                orig = flat[j]
                flat[j] = orig + FD_STEP
                f_plus = objective()
                flat[j] = orig - FD_STEP
                f_minus = objective()
                flat[j] = orig
                numeric = (f_plus - f_minus) / (2 * FD_STEP)
                worst = max(worst, rel_error(gflat[j], numeric))
    return worst


def check_focal_gradients(n_instances: int = 20, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        hh, ww = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        state = rng.integers(0, 3, size=(hh, ww)).astype(np.uint8)
        if not np.any(state):
            state[0, 0] = losses.FOREGROUND
        mask = losses.SparseMask(state=state)
        preds = rng.uniform(0.05, 0.95, size=(hh, ww))
        cfg = losses.FocalLossConfig(
            alpha=float(rng.uniform(0.1, 0.9)), gamma=float(rng.choice([0.0, 1.0, 2.0]))
        )
        _, grad, _ = losses.focal_loss(preds, mask, cfg)
        for r in range(hh):
            for c in range(ww):
                preds[r, c] += FD_STEP
                f_plus, _, _ = losses.focal_loss(preds, mask, cfg)
                preds[r, c] -= 2 * FD_STEP
                f_minus, _, _ = losses.focal_loss(preds, mask, cfg)
                preds[r, c] += FD_STEP
                numeric = (f_plus - f_minus) / (2 * FD_STEP)
                worst = max(worst, rel_error(grad[r, c], numeric))
    return worst
