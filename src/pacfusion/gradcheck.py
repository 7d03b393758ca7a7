"""Central finite-difference verification of the hand-written gradients."""

from __future__ import annotations

import numpy as np

from . import fusion, losses
from .types import FusionDims

FD_STEP = 1e-5
TOLERANCE = 1e-4  # a check passes while its largest relative error stays below this
ROUNDING = 8 * np.finfo(float).eps  # an objective value's rounding error, relative to its magnitude


def rel_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)


def max_fd_error(objective, arrays, grads, probes) -> tuple[float, int]:
    """(largest rel_error of grads against central differences of objective(), count of probes left unjudged).

    probes(size) picks the flat entries of each C-contiguous array to move by +-FD_STEP; each gets its own value
    back before the next, so objective() sees one entry moved. A probe whose rel_error reaches TOLERANCE is left
    unjudged when the analytic value is within the difference's own error: half the gap between the one-sided
    differences, which a ReLU or max-pool kink within FD_STEP opens, plus the objective's rounding. An array none
    of whose probes is judged gives inf.
    """
    f_zero = objective()
    worst, unjudged = 0.0, 0
    for arr, grad in zip(arrays, grads):
        flat, gflat = arr.ravel(), grad.ravel()
        judged = False
        for j in probes(flat.size):
            orig = flat[j]
            flat[j] = orig + FD_STEP
            f_plus = objective()
            flat[j] = orig - FD_STEP
            f_minus = objective()
            flat[j] = orig
            numeric = (f_plus - f_minus) / (2 * FD_STEP)
            error = rel_error(gflat[j], numeric)
            own = abs(f_plus - 2 * f_zero + f_minus) / 2 + ROUNDING * max(abs(f_plus), abs(f_zero), abs(f_minus))
            if error >= TOLERANCE and abs(gflat[j] - numeric) * FD_STEP <= own:
                unjudged += 1
            else:
                judged, worst = True, max(worst, error)
        if not judged:
            worst = np.inf
    return worst, unjudged


def random_neighbors(rng: np.random.Generator, n: int, k: int, dims: FusionDims) -> fusion.NeighborFeatures:
    """n points' k standard-normal neighbor rows; slot 0, the point itself, has a zero offset."""
    rows = rng.normal(size=(n, k, dims.d_i))
    rows[:, 0, dims.c_seg + dims.c_lidar :] = 0.0
    return fusion.NeighborFeatures(rows=rows, valid=np.ones((n, k), dtype=bool), dims=dims)


def random_instance(rng: np.random.Generator):
    """1 to 4 points' K = 3 neighbor rows of 2 semantic and 4 point channels, and an operator 9 -> 9 -> 5."""
    dims = FusionDims(c_seg=2, c_lidar=4, d_o=5)
    n = int(rng.integers(1, 5))
    params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 3, seed=int(rng.integers(1 << 30)))
    params.aggr_weights[:] = rng.normal(size=params.k)
    return random_neighbors(rng, n, params.k, dims), params


def check_pacf_gradients(*, n_instances: int, seed: int):
    """Yield max_fd_error of n_instances random_instance draws from seed over all weights, biases, scalars and rows."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        nf, params = random_instance(rng)
        g_out = rng.normal(size=(nf.rows.shape[0], 2 * params.spec.d_o + nf.dims.d_i))
        gw, gb, ga, grows = fusion.pacf_backward(fusion.pacf_forward(nf, params)[1], params, g_out)
        arrays, grads = [*params.weights, *params.biases, params.aggr_weights, nf.rows], [*gw, *gb, ga, grows]
        objective = lambda: float(np.sum(fusion.pacf_forward(nf, params)[0].values * g_out))
        # probe a subset of coordinates per array to keep runtime bounded
        probes = lambda size: rng.choice(size, size=min(size, 6), replace=False)
        yield max_fd_error(objective, arrays, grads, probes)


def check_focal_gradients(*, n_instances: int, seed: int):
    """Yield max_fd_error of the focal loss gradient of n_instances masks drawn from seed, every pixel probed."""
    rng = np.random.default_rng(seed)
    for _ in range(n_instances):
        hh, ww = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        state = rng.integers(0, 3, size=(hh, ww)).astype(np.uint8)
        if not np.any(state):
            state[0, 0] = losses.FOREGROUND
        mask = losses.SparseMask(state=state)
        preds = rng.uniform(0.05, 0.95, size=(hh, ww))
        # alpha is drawn before gamma, so each seed keeps its stream
        weights = dict(alpha=float(rng.uniform(0.1, 0.9)), gamma=float(rng.choice([0.0, 1.0, 2.0])))
        _, grad, _ = losses.focal_loss(preds, mask, **weights)
        yield max_fd_error(lambda: losses.focal_loss(preds, mask, **weights)[0], [preds], [grad], range)
