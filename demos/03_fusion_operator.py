#!/usr/bin/env python3
"""The fusion operator end to end on in-memory data, plus a gradient step.

Shows the three output segments (summed convolution, attentive
aggregation, point-pooled inputs) and verifies the hand-written backward
pass against finite differences.
"""

import numpy as np

from pacfusion import (
    FusionDims,
    MlpSpec,
    NeighborFeatures,
    init_params,
    pacf_backward,
    pacf_forward,
)
from pacfusion.gradcheck import check_pacf_gradients

dims = FusionDims(c_seg=2, c_lidar=4, d_o=8)
print(f"D_i = {dims.d_i}, output width = {2 * dims.d_o + dims.d_i}")

rng = np.random.default_rng(2)
K, N = 3, 10
rows = rng.normal(size=(N, K, dims.d_i))
rows[:, 0, dims.c_seg + dims.c_lidar :] = 0.0  # ego slot has zero offset
nf = NeighborFeatures(rows=rows, valid=np.ones((N, K), bool), dims=dims)

params = init_params(MlpSpec.default(dims.d_i, dims.d_o), k=K, seed=3)
out, cache = pacf_forward(nf, params)
print("fused feature rows:", out.values.shape)

d_o = dims.d_o
y_cc, y_a, y_pool = out.values[:, :d_o], out.values[:, d_o : 2 * d_o], out.values[:, 2 * d_o :]
# aggregation scalars start at 1/K, so y_a begins as the neighbor mean
np.testing.assert_allclose(y_a, y_cc / K, atol=1e-12)
print("with w_k = 1/K the attentive part is the slot mean of the convolution")

# one gradient step against a toy target
target = np.zeros_like(out.values)
grad_out = 2 * (out.values - target) / out.values.size
gw, gb, ga, _ = pacf_backward(cache, params, grad_out)
lr = 0.1
for w, g in zip(params.weights, gw):
    w -= lr * g
for b, g in zip(params.biases, gb):
    b -= lr * g
params.aggr_weights -= lr * ga
out2, _ = pacf_forward(nf, params)
print("squared error before/after step:",
      round(float((out.values ** 2).mean()), 4), "->",
      round(float((out2.values ** 2).mean()), 4))

err = max(error for error, _ in check_pacf_gradients(n_instances=5, seed=4))
print(f"max relative gradient error vs finite differences: {err:.2e}")
