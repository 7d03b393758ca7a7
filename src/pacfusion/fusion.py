"""The attentive continuous-convolution fusion operator.

Per target point i with K distance-ordered neighbors (slot 0 = the point
itself), each neighbor row is f'_k = [semantic_k | point_features_k |
x_k - x_i], width D_i = C_seg + C_lidar + 3. A shared MLP maps each row
to a D_o vector; the operator output is the concatenation

    [ sum_k mlp(f'_k) | sum_k w_k * mlp(f'_k) | max_k f'_k ]

of width 2*D_o + D_i. Forward and backward passes are implemented by
hand in float64; backward is exact backpropagation, with the max-pool
routing gradient to the lowest argmax slot. The MLP runs once over the
N*K neighbor rows as one (N*K, width) matrix: one GEMM per layer.

The forward pass applies each hidden ReLU in place and caches each
layer's input, the MLP output per slot and the max-pool's argmax.
Backward uses that cache up. It writes the head gradient over the cached
MLP output. At each hidden layer it reads the ReLU mask from the layer's
input (activation > 0 exactly where the pre-activation was), then writes
the gradient of that input over it. The grad_rows it returns goes over
the buffer of layer 0's output gradient when that is (N*K, D_i) too, as
the layer-1 activation is when the first hidden width is D_i; otherwise
grad_rows is the one (N*K, width) array backward allocates. A second
backward on the same cache raises ValueError. The first layer's input is
the caller's neighbor rows, which are never written. The max-pool caches
one slot per (point, channel), and backward routes the pooled gradient
into those slots with one scatter per block.

The elementwise passes run over one partition of the points, _blocks(n):
blocks of _BLOCK points (K * _BLOCK MLP rows), a tail shorter than _BLOCK
joined to the block before it. Each pass then finds its operands in L2
instead of streaming the whole (N*K, width) array once per pass: the
hidden layers' bias and ReLU; the output bias, both slot sums, the
max-pool and its argmax, written straight into the output rows; and in
backward, the last GEMM, grad_rows = g @ W0.T, then the max-pool scatter.
Every element sees the same operations in the same order as over the
whole array, so blocking changes no bit. The GEMM runs per block so that
it can write over its own operand one block at a time, and the tail
joins a block because this BLAS gives a row block's GEMM the whole GEMM's
bits only when the block has enough rows (>= 136 at width 135). The other
GEMMs and the column sums (grad_w, grad_b, the aggregation einsum) stay
whole: a GEMM is already blocked inside BLAS, and a column sum split into
row blocks would add in another order and change bits. The backward head
and ReLU mask stay whole too: blocked, they held more memory at peak.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import PixelCoords, nearest_pixel, project_points
from .kdtree import knn_table
from .kitti import CalibrationSet, FormatError
from .types import FeatureMap, FusionDims, PointCloud

PARAMS_MAGIC = b"PACW"
PARAMS_VERSION = 1


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths for the shared per-neighbor MLP.

    widths[0] must equal D_i and widths[-1] equals D_o. Hidden layers use
    ReLU; the output layer is linear.
    """

    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.widths) < 2:
            raise ValueError("MLP needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"all layer widths must be positive: {self.widths}")

    @property
    def d_i(self) -> int:
        return self.widths[0]

    @property
    def d_o(self) -> int:
        return self.widths[-1]

    @classmethod
    def default(cls, d_i: int, d_o: int) -> "MlpSpec":
        return cls(widths=(d_i, max(d_i, d_o), d_o))


@dataclass
class PacfParams:
    """Learnable state: MLP weight/bias pairs plus K aggregation scalars."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    aggr_weights: np.ndarray

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("the MLP needs at least one layer, i.e. input and output widths")
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for li, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.shape != w.shape[1:]:
                raise ValueError(f"layer {li} needs a 2-D weight and a 1-D bias of its fan-out, got {w.shape} and {b.shape}")
            if li and w.shape[0] != self.weights[li - 1].shape[1]:
                raise ValueError(f"layer {li} takes width {w.shape[0]} but layer {li - 1} gives {self.weights[li - 1].shape[1]}")
        self.spec  # building the MlpSpec checks each width >= 1
        if self.aggr_weights.ndim != 1:
            raise ValueError(f"aggregation weights must be 1-D, got shape {self.aggr_weights.shape}")
        if self.k < 1:
            raise ValueError(f"k={self.k}, needs at least one aggregation weight")
        for arr in (*self.weights, *self.biases, self.aggr_weights):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")

    @property
    def k(self) -> int:
        return len(self.aggr_weights)

    @property
    def spec(self) -> MlpSpec:
        return MlpSpec(widths=(self.weights[0].shape[0], *(w.shape[1] for w in self.weights)))

    def check_fit(self, k: int, d_i: int) -> None:
        """Raise ValueError unless these parameters take K=k neighbor slots of rows of width d_i."""
        if self.k != k:
            raise ValueError(f"the parameters have k={self.k} but the rows have K={k}")
        if self.spec.d_i != d_i:
            raise ValueError(f"the parameters take rows of width {self.spec.d_i} but the rows have width {d_i}")


def init_params(spec: MlpSpec, k: int, seed: int) -> PacfParams:
    """Glorot-uniform MLP weights; aggregation scalars start at 1/K."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(spec.widths[:-1], spec.widths[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return PacfParams(weights=weights, biases=biases, aggr_weights=np.full(k, 1.0 / k))


@dataclass
class NeighborFeatures:
    """Per-target K x D_i neighbor rows plus per-row projection validity."""

    rows: np.ndarray  # (N, K, D_i)
    valid: np.ndarray  # (N, K) bool
    dims: FusionDims

    def __post_init__(self) -> None:
        if self.rows.ndim != 3 or self.rows.shape[2] != self.dims.d_i:
            raise ValueError(
                f"neighbor rows must be (N, K, {self.dims.d_i}), got {self.rows.shape}"
            )


@dataclass
class FusedFeatures:
    """Operator output, one row of width 2*D_o + D_i per target point."""

    values: np.ndarray  # (N, 2*D_o + D_i)


def retrieve_features(pixels: PixelCoords, fmap: FeatureMap) -> tuple[np.ndarray, np.ndarray]:
    """Per-point semantic vectors from the feature map.

    Valid pixels read the map at the nearest grid cell (round half down);
    invalid pixels get a zero vector. Returns (vectors, valid) with
    vectors shaped (N, C_seg).
    """
    out = np.zeros((len(pixels), fmap.channels))
    idx = np.nonzero(pixels.valid)[0]
    rows, cols = nearest_pixel(pixels.u[idx], pixels.v[idx], (fmap.height, fmap.width))
    out[idx] = fmap.data[rows, cols]
    return out, pixels.valid.copy()


def assemble_neighbors(
    cloud: PointCloud,
    semantic: np.ndarray,
    neighbor_idx: np.ndarray,
    semantic_valid: np.ndarray,
    point_features: np.ndarray | None,
) -> NeighborFeatures:
    """Build the (N, K, D_i) neighbor tensor.

    Column order per row: [semantic | point features | geometric offset].
    Neighbors whose projection was invalid contribute zero semantic
    channels but their true geometric offset.
    """
    neighbor_idx = np.asarray(neighbor_idx, dtype=np.int64)
    c_seg = semantic.shape[1]
    c_lidar = 0 if point_features is None else point_features.shape[1]
    dims = FusionDims(c_seg, c_lidar, d_o=1)  # d_o irrelevant for assembly
    # one row per point, gathered once for all N*K neighbour slots
    table = np.empty((len(cloud), dims.d_i))
    table[:, :c_seg] = semantic
    table[~semantic_valid, :c_seg] = 0.0
    if c_lidar:
        table[:, c_seg : c_seg + c_lidar] = point_features
    table[:, c_seg + c_lidar :] = cloud.xyz
    rows = table[neighbor_idx]
    rows[:, :, c_seg + c_lidar :] -= cloud.xyz[:, None, :]
    valid = semantic_valid[neighbor_idx]
    return NeighborFeatures(rows=rows, valid=valid, dims=dims)


@dataclass
class _ForwardCache:
    rows: np.ndarray  # (N, K, D_i) neighbor rows
    # input of each layer as (N*K, width); entry li + 1 is layer li's ReLU output.
    # pacf_backward takes these and y_cc_k, which it overwrites; y_cc_k None marks a used cache
    activations: list[np.ndarray] = field(default_factory=list)
    y_cc_k: np.ndarray | None = None  # (N, K, D_o) MLP output per slot
    argmax: np.ndarray | None = None  # (N, D_i) lowest max-pool slot per channel


# points per block of the passes outside the GEMMs: at backbone widths (K=3,
# D_i=135, D_o=64) a block's neighbour rows take 830 KB and each (block, D_o)
# temporary 130 KB, so a pass over one block finds its operands in L2
_BLOCK = 256


def _blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of _BLOCK points; a tail shorter than _BLOCK joins the block before it."""
    edges = [*(range(0, n - _BLOCK + 1, _BLOCK) or [0]), n]
    return list(zip(edges, edges[1:]))


def _sorted_slot_sum(v: np.ndarray) -> np.ndarray:
    """Sum (N, K, D) over the slots in ascending order, so any slot order gives the same bits.

    An odd-even transposition network of min/max sorts the K slices
    exactly; they are then added in order, starting from +0.0.
    """
    s = [v[:, j] for j in range(v.shape[1])]
    for r in range(len(s)):
        for j in range(r % 2, len(s) - 1, 2):
            s[j], s[j + 1] = np.minimum(s[j], s[j + 1]), np.maximum(s[j], s[j + 1])
    total = s[0] + 0.0
    for x in s[1:]:
        total += x
    return total


def pacf_forward(nf: NeighborFeatures, params: PacfParams) -> tuple[FusedFeatures, _ForwardCache]:
    """Forward pass; returns output rows and the cache for backward."""
    rows = nf.rows
    n, k, d_i = rows.shape
    params.check_fit(k, d_i)

    d_o = params.spec.d_o
    cache = _ForwardCache(rows=rows)
    h = rows.reshape(n * k, d_i)
    n_layers = len(params.weights)
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        cache.activations.append(h)
        h = h @ w
        if li < n_layers - 1:
            for lo, hi in _blocks(n):
                z = h[lo * k : hi * k]
                z += b
                np.maximum(z, 0.0, out=z)
    y_cc_k = h.reshape(n, k, d_o)
    cache.y_cc_k = y_cc_k

    values = np.empty((n, 2 * d_o + d_i))
    cache.argmax = np.zeros((n, d_i), dtype=np.min_scalar_type(k - 1))
    aggr = params.aggr_weights[None, :, None]
    for lo, hi in _blocks(n):
        blk = slice(lo, hi)
        y, x, top, out = y_cc_k[blk], rows[blk], cache.argmax[blk], values[blk]
        y += params.biases[-1]
        out[:, :d_o] = _sorted_slot_sum(y)
        out[:, d_o : 2 * d_o] = _sorted_slot_sum(aggr * y)
        # running max over the slots; strict > keeps ties on the lowest slot
        pool = out[:, 2 * d_o :]
        pool[...] = x[:, 0]
        for s in range(1, k):
            better = x[:, s] > pool
            np.maximum(pool, x[:, s], out=pool)
            # s exceeds every slot stored so far, so max() stores it exactly where better
            np.maximum(top, better * top.dtype.type(s), out=top)
    return FusedFeatures(values=values), cache


def pacf_backward(
    cache: _ForwardCache, params: PacfParams, grad_out: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray, np.ndarray]:
    """Exact gradients by backpropagation; uses up the cache.

    grad_out has shape (N, 2*D_o + D_i) matching the forward output.
    Returns (grad_weights, grad_biases, grad_aggr, grad_rows). The
    gradients are written over the cache's MLP output and hidden-layer
    activations, grad_rows over the layer-1 activation when its shape is
    (N*K, D_i), so a second backward on the same cache raises ValueError:
    run pacf_forward again. params must have the k and widths the forward
    ran with, or ValueError is raised before the cache is touched.
    cache.rows and cache.argmax remain, and the caller's neighbor rows are
    never written. grad_weights[0], one product summed over all N*K rows,
    may differ in its last bits with the BLAS thread count; the other
    results do not.
    """
    if cache.y_cc_k is None:
        raise ValueError("this forward cache was used by an earlier pacf_backward; run pacf_forward again")
    n, k, d_i = cache.rows.shape
    d_o = cache.y_cc_k.shape[2]
    if grad_out.shape != (n, 2 * d_o + d_i):
        raise ValueError(f"grad_out has shape {grad_out.shape} but the forward output has shape {(n, 2 * d_o + d_i)}")
    widths = (*(a.shape[1] for a in cache.activations), d_o)
    if (params.k, params.spec.widths) != (k, widths):
        raise ValueError(
            f"the parameters have k={params.k} and widths {params.spec.widths} "
            f"but the forward ran with k={k} and widths {widths}"
        )
    y_cc_k, activations = cache.y_cc_k, cache.activations
    cache.y_cc_k, cache.activations = None, []
    g_cc = grad_out[:, :d_o]
    g_a = grad_out[:, d_o : 2 * d_o]
    g_pool = grad_out[:, 2 * d_o :]

    # aggregation scalars: y_a = sum_k w_k y_cc_k
    grad_aggr = np.einsum("nd,nkd->k", g_a, y_cc_k)

    # per-slot gradient entering the MLP head, one row per neighbour, over y_cc_k
    np.multiply(params.aggr_weights[None, :, None], g_a[:, None, :], out=y_cc_k)
    y_cc_k += g_cc[:, None, :]
    g = y_cc_k.reshape(n * k, d_o)
    del y_cc_k  # g holds the last reference: the buffer is freed once the head layer is done

    # each layer's input gives its weight gradient, then (but for the caller's
    # rows at layer 0) its ReLU mask and the buffer for the gradient it receives
    grad_w, grad_b = [], []
    for li in range(len(params.weights) - 1, -1, -1):
        x = activations.pop()
        grad_w.insert(0, x.T @ g)
        grad_b.insert(0, g.sum(axis=0))
        if li:
            mask = x > 0
            g = np.matmul(g, params.weights[li].T, out=x)
            g *= mask
            del mask
        else:
            # over g's own buffer when the first hidden width is D_i; numpy copies each
            # block's overlapping operand first. Then the max-pool: each (point, channel)
            # adds to its one argmax slot in the block's C-order rows, so no flat index repeats
            dest = g if g.shape[1] == d_i else np.empty((n * k, d_i))
            for lo, hi in _blocks(n):
                rows = slice(lo * k, hi * k)
                np.matmul(g[rows], params.weights[0].T, out=dest[rows])
                # intp before the multiply: a uint8 slot times d_i would wrap
                flat = cache.argmax[lo:hi].astype(np.intp)
                flat *= d_i
                flat += np.arange(hi - lo)[:, None] * (k * d_i) + np.arange(d_i)
                dest[rows].reshape(-1)[flat] += g_pool[lo:hi]
            g = dest

    grad_rows = g.reshape(n, k, d_i)
    return grad_w, grad_b, grad_aggr, grad_rows


def fuse_cloud(
    cloud: PointCloud,
    fmap: FeatureMap,
    calib: CalibrationSet,
    params: PacfParams,
    d: float,
) -> np.ndarray:
    """Run the PACF operator over a whole cloud; returns its (N, C) float64 rows, one per point.

    Each point's params.k nearest neighbours within distance d give its
    rows; they carry the retrieved semantics and no point features (a scan
    carries none).
    """
    pixels = project_points(cloud, calib, (fmap.height, fmap.width))
    semantic, sem_valid = retrieve_features(pixels, fmap)
    nbr = knn_table(cloud.xyz, params.k, d)
    nf = assemble_neighbors(cloud, semantic, nbr, sem_valid, point_features=None)
    return pacf_forward(nf, params)[0].values


def save_params(params: PacfParams, path) -> None:
    """Write the checkpoint container: magic, dims header, raw f64 LE."""
    params = PacfParams(params.weights, params.biases, params.aggr_weights)  # checks a set changed since it was built
    widths = params.spec.widths
    header = PARAMS_MAGIC + struct.pack(f"<HII{len(widths)}I", PARAMS_VERSION, params.k, len(widths), *widths)
    arrays = [a.ravel() for layer in zip(params.weights, params.biases) for a in layer] + [params.aggr_weights]
    Path(path).write_bytes(header + np.concatenate(arrays).astype("<f8").tobytes())


def load_params(path) -> PacfParams:
    raw = Path(path).read_bytes()
    if len(raw) < 14 or raw[:4] != PARAMS_MAGIC:
        raise FormatError("parameter container: bad magic")
    version, k, n_widths = struct.unpack("<HII", raw[4:14])
    if version != PARAMS_VERSION:
        raise FormatError(f"parameter container: unsupported version {version}")
    pos = 14 + 4 * n_widths
    if len(raw) < pos:
        raise FormatError("parameter container: truncated header")
    widths = struct.unpack(f"<{n_widths}I", raw[14:pos])
    # the payload, in order: each layer's (fan_in, fan_out) weight and fan_out bias, then k aggregation weights
    sizes = [n for fan_in, fan_out in zip(widths[:-1], widths[1:]) for n in (fan_in * fan_out, fan_out)] + [k]
    if len(raw) != pos + 8 * sum(sizes):
        raise FormatError("parameter container: payload size mismatch")
    arrays = np.split(np.frombuffer(raw, dtype="<f8", offset=pos).copy(), np.cumsum(sizes)[:-1])
    weights = [w.reshape(fan_in, fan_out) for w, fan_in, fan_out in zip(arrays[:-1:2], widths, widths[1:])]
    try:
        return PacfParams(weights=weights, biases=arrays[1::2], aggr_weights=arrays[-1])
    except ValueError as exc:
        raise FormatError(f"parameter container: {exc}") from None
