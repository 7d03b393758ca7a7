import itertools
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from pacfusion import fusion, geometry, kdtree
from pacfusion.geometry import PixelCoords
from pacfusion.gradcheck import check_pacf_gradients, max_fd_error, random_neighbors
from pacfusion.kitti import FormatError
from pacfusion.types import FeatureMap, FusionDims, PointCloud

from conftest import make_calib, random_cloud


def naive_forward(rows, weights, biases, aggr):
    """Straight-line scalar re-implementation of the operator, loops only."""
    n, k, d_i = rows.shape
    d_o = weights[-1].shape[1]
    out = np.zeros((n, 2 * d_o + d_i))
    for i in range(n):
        y_cc = [0.0] * d_o
        y_a = [0.0] * d_o
        for slot in range(k):
            h = list(rows[i, slot])
            for li, (w, b) in enumerate(zip(weights, biases)):
                z = [
                    sum(h[a] * w[a][c] for a in range(len(h))) + b[c]
                    for c in range(w.shape[1])
                ]
                if li < len(weights) - 1:
                    z = [max(v, 0.0) for v in z]
                h = z
            for c in range(d_o):
                y_cc[c] += h[c]
                y_a[c] += aggr[slot] * h[c]
        y_pool = [max(rows[i, slot, c] for slot in range(k)) for c in range(d_i)]
        out[i] = np.array(y_cc + y_a + y_pool)
    return out


def zero_fill_assemble(cloud, semantic, neighbor_idx, semantic_valid, point_features):
    """Reference: assembly into a zero-filled tensor, one gather per column block."""
    neighbor_idx = np.asarray(neighbor_idx, dtype=np.int64)
    n, k = neighbor_idx.shape
    c_seg = semantic.shape[1]
    c_lidar = 0 if point_features is None else point_features.shape[1]
    rows = np.zeros((n, k, c_seg + c_lidar + 3))
    valid = semantic_valid[neighbor_idx]
    sem = semantic[neighbor_idx]
    sem[~valid] = 0.0
    rows[:, :, :c_seg] = sem
    if c_lidar:
        rows[:, :, c_seg : c_seg + c_lidar] = point_features[neighbor_idx]
    rows[:, :, c_seg + c_lidar :] = cloud.xyz[neighbor_idx] - cloud.xyz[:, None, :]
    return rows, valid


def ascending_slot_sum(v):
    """Reference slot sum: np.sort over the slots, then the slots added in order, starting from +0.0."""
    s = np.sort(v, axis=1)
    total = s[:, 0] + 0.0
    for j in range(1, s.shape[1]):
        total += s[:, j]
    return total


def concatenate_forward(rows, params):
    """Reference forward: a separate ReLU output beside each cached pre-activation, blocks joined by np.concatenate."""
    n, k, d_i = rows.shape
    d_o = params.spec.d_o
    activations, preacts = [], []
    h = rows.reshape(n * k, d_i)
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        activations.append(h)
        z = h @ w
        z += b
        preacts.append(z)
        h = np.maximum(z, 0.0) if li < len(params.weights) - 1 else z
    y_cc_k = h.reshape(n, k, d_o)
    y_cc = ascending_slot_sum(y_cc_k)
    y_a = ascending_slot_sum(params.aggr_weights[None, :, None] * y_cc_k)
    y_pool = rows[:, 0].copy()
    argmax = np.zeros((n, d_i), dtype=np.min_scalar_type(k - 1))
    for s in range(1, k):
        better = rows[:, s] > y_pool
        np.maximum(y_pool, rows[:, s], out=y_pool)
        np.maximum(argmax, better * argmax.dtype.type(s), out=argmax)
    values = np.concatenate([y_cc, y_a, y_pool], axis=1)
    return values, (activations, preacts, y_cc_k, argmax)


def where_loop_backward(rows, params, saved, grad_out):
    """Reference backward: ReLU masks from the pre-activations, max-pool routed slot by slot with where=."""
    activations, preacts, y_cc_k, argmax = saved
    n, k, d_i = rows.shape
    d_o = params.spec.d_o
    g_cc, g_a, g_pool = grad_out[:, :d_o], grad_out[:, d_o : 2 * d_o], grad_out[:, 2 * d_o :]
    grad_aggr = np.einsum("nd,nkd->k", g_a, y_cc_k)
    g = (g_cc[:, None, :] + params.aggr_weights[None, :, None] * g_a[:, None, :]).reshape(n * k, d_o)
    grad_w, grad_b = [], []
    for li in range(len(params.weights) - 1, -1, -1):
        if li < len(params.weights) - 1:
            np.multiply(g, preacts[li] > 0, out=g)
        grad_w.insert(0, activations[li].T @ g)
        grad_b.insert(0, g.sum(axis=0))
        g = g @ params.weights[li].T
    grad_rows = g.reshape(n, k, d_i)
    for s in range(k):
        np.add(grad_rows[:, s], g_pool, out=grad_rows[:, s], where=argmax == s)
    return grad_w, grad_b, grad_aggr, grad_rows


def same_bits(a, b):
    """Equal shapes and equal float64 words: tells -0.0 from 0.0 and compares NaN payloads."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


BACKBONE = FusionDims(c_seg=4, c_lidar=128, d_o=64)


class TestForward:
    def test_identity_network_k1(self):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=4)
        row = np.array([[[0.3, -0.5, 0.7, 0.0]]])  # ego offset zero
        nf = fusion.NeighborFeatures(rows=row, valid=np.ones((1, 1), bool), dims=dims)
        params = fusion.PacfParams(
            weights=[np.eye(4)], biases=[np.zeros(4)], aggr_weights=np.array([1.0])
        )
        out, _ = fusion.pacf_forward(nf, params)
        expected = np.concatenate([row[0, 0]] * 3)
        np.testing.assert_array_equal(out.values[0], expected)

    def test_all_zero_input(self, rng):
        dims = FusionDims(c_seg=2, c_lidar=1, d_o=3)
        nf = fusion.NeighborFeatures(
            rows=np.zeros((4, 3, dims.d_i)), valid=np.ones((4, 3), bool), dims=dims
        )
        spec = fusion.MlpSpec.default(dims.d_i, dims.d_o)
        params = fusion.init_params(spec, k=3, seed=0)
        for b in params.biases:
            b[:] = 0.0
        out, _ = fusion.pacf_forward(nf, params)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_naive_oracle_k3(self, rng):
        dims = FusionDims(c_seg=2, c_lidar=3, d_o=4)
        nf = random_neighbors(rng, n=5, k=3, dims=dims)
        params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 3, seed=9)
        params.aggr_weights = rng.normal(size=3)
        out, _ = fusion.pacf_forward(nf, params)
        want = naive_forward(nf.rows, params.weights, params.biases, params.aggr_weights)
        np.testing.assert_allclose(out.values, want, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_naive_oracle_backbone_width(self, rng, k):
        nf = random_neighbors(rng, n=2, k=k, dims=BACKBONE)
        params = fusion.init_params(fusion.MlpSpec.default(BACKBONE.d_i, BACKBONE.d_o), k, seed=k)
        params.aggr_weights = rng.normal(size=k)
        for b in params.biases:
            b[:] = rng.normal(size=b.shape)
        out, _ = fusion.pacf_forward(nf, params)
        want = naive_forward(nf.rows, params.weights, params.biases, params.aggr_weights)
        np.testing.assert_allclose(out.values, want, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_message(self, rng):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=2)
        nf = random_neighbors(rng, 2, 3, dims)
        params = fusion.init_params(fusion.MlpSpec(widths=(5, 2)), 3, seed=0)
        with pytest.raises(ValueError, match="width"):
            fusion.pacf_forward(nf, params)
        params = fusion.init_params(fusion.MlpSpec(widths=(dims.d_i, 2)), 4, seed=0)
        with pytest.raises(ValueError, match="K=3"):
            fusion.pacf_forward(nf, params)

    def test_output_width_independent_of_k(self, rng):
        dims = FusionDims(c_seg=2, c_lidar=2, d_o=5)
        for k in (1, 3, 7):
            nf = random_neighbors(rng, 3, k, dims)
            params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), k, seed=1)
            out, _ = fusion.pacf_forward(nf, params)
            assert out.values.shape == (3, 2 * dims.d_o + dims.d_i)

    @pytest.mark.parametrize("dims, n, seed", [(FusionDims(c_seg=2, c_lidar=1, d_o=4), 4, 2), (BACKBONE, 64, 6)],
                             ids=["small", "backbone_width"])
    def test_permutation_invariance_with_equal_weights(self, rng, dims, n, seed):
        """Equal w_k: the whole output is slot-permutation invariant, bit for bit."""
        k = 5
        nf = random_neighbors(rng, n, k, dims)
        params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), k, seed=seed)
        params.aggr_weights = np.full(k, 0.37)
        base, _ = fusion.pacf_forward(nf, params)
        for _ in range(10):
            perm = rng.permutation(k)
            nf2 = fusion.NeighborFeatures(rows=nf.rows[:, perm], valid=nf.valid[:, perm], dims=dims)
            out, _ = fusion.pacf_forward(nf2, params)
            np.testing.assert_array_equal(out.values, base.values)

    def test_sorted_slot_sum_matches_sort_then_sum(self, rng):
        # np.sort then sum is the reference order; bits must agree, signed zeros included
        for k in (1, 2, 3, 5, 7):
            v = rng.normal(size=(6, k, 4))
            v[0] = -0.0
            v[1, ::2] = 0.0
            want = np.sort(v, axis=1).sum(axis=1)
            np.testing.assert_array_equal(fusion._sorted_slot_sum(v).view(np.int64), want.view(np.int64))

    def test_permutation_changes_attentive_part(self, rng):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=3)
        nf = random_neighbors(rng, 2, 3, dims)
        params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 3, seed=3)
        params.aggr_weights = np.array([0.1, 1.0, 5.0])
        base, _ = fusion.pacf_forward(nf, params)
        nf2 = fusion.NeighborFeatures(rows=nf.rows[:, ::-1], valid=nf.valid[:, ::-1], dims=dims)
        out, _ = fusion.pacf_forward(nf2, params)
        d_o = dims.d_o
        np.testing.assert_allclose(out.values[:, :d_o], base.values[:, :d_o], atol=1e-12)
        np.testing.assert_allclose(out.values[:, 2 * d_o :], base.values[:, 2 * d_o :], atol=1e-12)
        assert not np.allclose(out.values[:, d_o : 2 * d_o], base.values[:, d_o : 2 * d_o])

    def test_equal_weights_reduce_attentive_to_sum(self, rng):
        dims = FusionDims(c_seg=2, c_lidar=2, d_o=6)
        nf = random_neighbors(rng, 5, 3, dims)
        params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 3, seed=4)
        params.aggr_weights = np.ones(3)
        out, _ = fusion.pacf_forward(nf, params)
        d_o = dims.d_o
        np.testing.assert_allclose(
            out.values[:, d_o : 2 * d_o], out.values[:, :d_o], atol=1e-10
        )


class TestBackward:
    def test_zero_upstream(self, rng):
        dims = FusionDims(c_seg=1, c_lidar=1, d_o=2)
        nf = random_neighbors(rng, 3, 3, dims)
        params = fusion.init_params(fusion.MlpSpec.default(dims.d_i, dims.d_o), 3, seed=5)
        _, cache = fusion.pacf_forward(nf, params)
        gw, gb, ga, grows = fusion.pacf_backward(
            cache, params, np.zeros((3, 2 * dims.d_o + dims.d_i))
        )
        for g in (*gw, *gb, ga, grows):
            np.testing.assert_array_equal(g, 0.0)

    def test_k1_identity_aggr_gradient(self):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=4)
        rows = np.array([[[0.2, 0.4, -0.6, 0.0]]])
        nf = fusion.NeighborFeatures(rows=rows, valid=np.ones((1, 1), bool), dims=dims)
        params = fusion.PacfParams(
            weights=[np.eye(4)], biases=[np.zeros(4)], aggr_weights=np.array([1.0])
        )
        _, cache = fusion.pacf_forward(nf, params)
        g = np.zeros((1, 2 * dims.d_o + dims.d_i))
        g_a = np.array([1.0, -2.0, 0.5, 3.0])
        g[0, dims.d_o : 2 * dims.d_o] = g_a
        _, _, ga, _ = fusion.pacf_backward(cache, params, g)
        # y_cc,1 is the identity of the row; dL/dw_1 = g . y_cc,1
        assert ga[0] == pytest.approx(float(g_a @ rows[0, 0]))

    def test_finite_differences(self):
        assert all(error < 1e-4 for error, _ in check_pacf_gradients(n_instances=20, seed=11))

    def test_finite_differences_wide_hidden(self):
        # hidden 64 != D_i 23: backward writes grad_rows into a fresh buffer, not over the layer-1 activation
        rng = np.random.default_rng(21)
        dims = FusionDims(c_seg=4, c_lidar=16, d_o=8)
        n = int(rng.integers(1, 5))
        params = fusion.init_params(fusion.MlpSpec(widths=(dims.d_i, 64, 8)), 3, seed=int(rng.integers(1 << 30)))
        params.aggr_weights = rng.normal(size=3)
        nf = random_neighbors(rng, n, 3, dims)
        g_out = rng.normal(size=(nf.rows.shape[0], nf.dims.d_i + 2 * params.spec.d_o))
        gw, gb, ga, grows = fusion.pacf_backward(fusion.pacf_forward(nf, params)[1], params, g_out)

        def objective() -> float:
            return float(np.sum(fusion.pacf_forward(nf, params)[0].values * g_out))

        worst, unjudged = max_fd_error(
            objective,
            [*params.weights, *params.biases, params.aggr_weights, nf.rows],
            [*gw, *gb, ga, grows],
            lambda size: rng.choice(size, size=min(size, 40), replace=False),
        )
        assert worst < 1e-6 and unjudged == 0

    def test_maxpool_tie_routes_to_lowest_slot(self):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=1)
        rows = np.zeros((1, 2, 4))
        rows[0, :, 0] = [0.7, 0.7]  # tied max in channel 0
        nf = fusion.NeighborFeatures(rows=rows, valid=np.ones((1, 2), bool), dims=dims)
        params = fusion.PacfParams(
            weights=[np.zeros((4, 1))], biases=[np.zeros(1)], aggr_weights=np.zeros(2)
        )
        _, cache = fusion.pacf_forward(nf, params)
        g = np.zeros((1, 2 * dims.d_o + dims.d_i))
        g[0, 2 * dims.d_o] = 1.0  # pool segment, channel 0
        _, _, _, grows = fusion.pacf_backward(cache, params, g)
        assert grows[0, 0, 0] == 1.0
        assert grows[0, 1, 0] == 0.0

    def test_maxpool_tie_in_later_slots_routes_to_lower(self):
        dims = FusionDims(c_seg=1, c_lidar=0, d_o=1)
        rows = np.zeros((1, 3, 4))
        rows[0, :, 0] = [0.2, 0.7, 0.7]  # slots 1 and 2 tie above slot 0
        rows[0, :, 1] = [0.1, 0.3, 0.9]  # strict max in slot 2
        nf = fusion.NeighborFeatures(rows=rows, valid=np.ones((1, 3), bool), dims=dims)
        params = fusion.PacfParams(
            weights=[np.zeros((4, 1))], biases=[np.zeros(1)], aggr_weights=np.zeros(3)
        )
        _, cache = fusion.pacf_forward(nf, params)
        g = np.zeros((1, 2 * dims.d_o + dims.d_i))
        g[0, 2 * dims.d_o : 2 * dims.d_o + 2] = [1.0, 2.0]  # pool segment, channels 0 and 1
        _, _, _, grows = fusion.pacf_backward(cache, params, g)
        np.testing.assert_array_equal(grows[0, :, 0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(grows[0, :, 1], [0.0, 0.0, 2.0])


class TestBackwardUsesCache:
    """Backward writes its gradients over the forward cache, which it leaves used up."""

    @staticmethod
    def _forward(k, n=5, hidden=(7,), seed=3):
        dims = FusionDims(c_seg=1, c_lidar=2, d_o=4)  # D_i = 6, output width 14
        rng = np.random.default_rng([seed, k])
        nf = random_neighbors(rng, n, k, dims)
        params = fusion.init_params(fusion.MlpSpec(widths=(dims.d_i, *hidden, dims.d_o)), k, seed=seed)
        params.aggr_weights = rng.normal(size=k)
        grad_out = rng.normal(size=(n, 2 * dims.d_o + dims.d_i))
        return nf, params, grad_out

    @staticmethod
    def _assert_reference_gradients(nf, params, grad_out, got):
        want = where_loop_backward(nf.rows, params, concatenate_forward(nf.rows, params)[1], grad_out)
        for got_g, want_g in zip([*got[0], *got[1], *got[2:]], [*want[0], *want[1], *want[2:]]):
            assert same_bits(got_g, want_g)

    @pytest.mark.parametrize("shape", [(5,), (5, 16), (5, 13), (6, 14), (1, 14), (5, 14, 1), (5, 8)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_bad_grad_out_shape_rejected_before_the_cache_is_touched(self, shape):
        nf, params, grad_out = self._forward(k=3)
        _, cache = fusion.pacf_forward(nf, params)
        with pytest.raises(ValueError, match=r"grad_out has shape \(.*\) but the forward output has shape \(5, 14\)"):
            fusion.pacf_backward(cache, params, np.ones(shape))
        self._assert_reference_gradients(nf, params, grad_out, fusion.pacf_backward(cache, params, grad_out))

    @pytest.mark.parametrize("widths, k", [((6, 7, 4), 2), ((5, 7, 4), 3), ((6, 8, 4), 3), ((6, 7, 5), 3),
                                           ((6, 7, 7, 4), 3), ((6, 4), 3)],
                             ids=["k", "d_i", "hidden_width", "d_o", "one_layer_more", "one_layer_fewer"])
    def test_params_that_do_not_fit_the_cache_rejected_before_it_is_touched(self, widths, k):
        nf, params, grad_out = self._forward(k=3)  # widths (6, 7, 4)
        _, cache = fusion.pacf_forward(nf, params)
        other = fusion.init_params(fusion.MlpSpec(widths=widths), k, seed=5)
        want_msg = rf"the parameters have k={k} and widths \({', '.join(map(str, widths))}\) " \
                   r"but the forward ran with k=3 and widths \(6, 7, 4\)"
        with pytest.raises(ValueError, match=want_msg):
            fusion.pacf_backward(cache, other, grad_out)
        self._assert_reference_gradients(nf, params, grad_out, fusion.pacf_backward(cache, params, grad_out))

    def test_second_backward_rejected(self):
        nf, params, grad_out = self._forward(k=3)
        _, cache = fusion.pacf_forward(nf, params)
        fusion.pacf_backward(cache, params, grad_out)
        with pytest.raises(ValueError, match="used by an earlier pacf_backward; run pacf_forward again"):
            fusion.pacf_backward(cache, params, grad_out)

    @pytest.mark.parametrize("hidden", [(), (7,), (8, 3)], ids=["one_layer", "one_hidden", "two_hidden"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_neighbor_rows_never_written(self, k, hidden):
        nf, params, grad_out = self._forward(k, hidden=hidden)
        before = nf.rows.tobytes()
        _, cache = fusion.pacf_forward(nf, params)
        fusion.pacf_backward(cache, params, grad_out)
        assert nf.rows.tobytes() == before

    def test_rows_and_argmax_kept(self):
        nf, params, grad_out = self._forward(k=3)
        _, cache = fusion.pacf_forward(nf, params)
        argmax = cache.argmax.copy()
        fusion.pacf_backward(cache, params, grad_out)
        assert cache.rows is nf.rows
        np.testing.assert_array_equal(cache.argmax, argmax)

    @pytest.mark.parametrize("hidden, bound", [(BACKBONE.d_i, 0.25), (200, 1.25)], ids=["hidden_d_i", "hidden_200"])
    def test_grad_rows_written_over_the_layer1_activation(self, hidden, bound):
        """At train-step widths (135, 135, 64) grad_rows takes the cached layer-1 activation's buffer, so
        backward allocates little beyond one block; a hidden width other than D_i allocates grad_rows fresh."""
        rng = np.random.default_rng(4)
        nf = random_neighbors(rng, 4096, 3, BACKBONE)
        params = fusion.init_params(fusion.MlpSpec(widths=(BACKBONE.d_i, hidden, BACKBONE.d_o)), 3, seed=4)
        grad_out = rng.normal(size=(4096, 2 * BACKBONE.d_o + BACKBONE.d_i))
        _, cache = fusion.pacf_forward(nf, params)
        act = cache.activations[1]
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            grad_rows = fusion.pacf_backward(cache, params, grad_out)[3]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= bound * grad_rows.nbytes
        assert np.shares_memory(grad_rows, act) == (hidden == BACKBONE.d_i)

    def test_forward_allocates_only_its_outputs_and_cache(self):
        """At train-step widths, forward holds the layer-1 activation, the MLP output, the values and the argmax, and little more."""
        rng = np.random.default_rng(4)
        nf = random_neighbors(rng, 4096, 3, BACKBONE)
        params = fusion.init_params(fusion.MlpSpec.default(BACKBONE.d_i, BACKBONE.d_o), 3, seed=4)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            fused, cache = fusion.pacf_forward(nf, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cache.activations) == 2
        kept = cache.activations[1].nbytes + cache.y_cc_k.nbytes + fused.values.nbytes + cache.argmax.nbytes
        assert peak - start <= 1.10 * kept


class TestRetrieval:
    def test_nearest_pixel_rule(self):
        fmap = FeatureMap(data=np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
        px = PixelCoords(
            u=np.array([1.2]), v=np.array([0.3]), depth=np.array([5.0]), valid=np.array([True])
        )
        vecs, valid = fusion.retrieve_features(px, fmap)
        assert vecs[0, 0] == 2.0

    def test_invalid_zero_fill(self):
        fmap = FeatureMap(data=np.ones((2, 2, 3)))
        px = PixelCoords(
            u=np.array([0.0]), v=np.array([0.0]), depth=np.array([-1.0]), valid=np.array([False])
        )
        vecs, valid = fusion.retrieve_features(px, fmap)
        np.testing.assert_array_equal(vecs[0], 0.0)
        assert not valid[0]

    def test_integer_coords_exact(self, rng):
        fmap = FeatureMap(data=rng.normal(size=(8, 12, 3)))
        us, vs = np.meshgrid(np.arange(12), np.arange(8))
        px = PixelCoords(
            u=us.ravel().astype(float),
            v=vs.ravel().astype(float),
            depth=np.ones(96),
            valid=np.ones(96, bool),
        )
        vecs, _ = fusion.retrieve_features(px, fmap)
        # direct indexing oracle
        np.testing.assert_array_equal(vecs, fmap.data[vs.ravel(), us.ravel()])

    def test_float32_map_same_bits_as_widened(self, rng):
        data = rng.normal(size=(9, 13, 3)).astype(np.float32)
        n = 400
        px = PixelCoords(
            u=rng.uniform(-2.0, 15.0, n), v=rng.uniform(-2.0, 11.0, n),
            depth=np.ones(n), valid=rng.random(n) < 0.8,
        )
        narrow = FeatureMap(data=data)
        wide = FeatureMap(data=data.astype(np.float64))
        assert narrow.data.dtype == np.float32
        got, got_valid = fusion.retrieve_features(px, narrow)
        want, want_valid = fusion.retrieve_features(px, wide)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(got_valid, want_valid)


class TestAssemble:
    def test_layout_and_ego_offset(self, rng):
        cloud = random_cloud(rng, 6)
        features = rng.normal(size=(6, 2))
        semantic = rng.normal(size=(6, 3))
        valid = np.ones(6, bool)
        valid[4] = False
        nbr = np.array([[i, (i + 1) % 6, (i + 2) % 6] for i in range(6)])
        nf = fusion.assemble_neighbors(cloud, semantic, nbr, valid, point_features=features)
        assert nf.rows.shape == (6, 3, 3 + 2 + 3)
        # ego slot offset is exactly zero
        np.testing.assert_array_equal(nf.rows[:, 0, 5:], 0.0)
        # invalid projection zeroes semantics but keeps the offset
        i = 3  # its slot 1 neighbor is point 4, the invalid one
        np.testing.assert_array_equal(nf.rows[i, 1, :3], 0.0)
        np.testing.assert_allclose(
            nf.rows[i, 1, 5:], cloud.xyz[4] - cloud.xyz[3], atol=1e-12
        )
        # valid rows carry semantic then point features then offset
        np.testing.assert_allclose(nf.rows[0, 1, :3], semantic[1])
        np.testing.assert_allclose(nf.rows[0, 1, 3:5], features[1])


def tied_frame(k, c_lidar, n=240, seed=8):
    """Every point twice with equal features and validity, semantics from {0, 1, 2}, ~30% invalid projections.

    Slot 0 is the point itself. Slot 1 of every fifth row is the point's
    duplicate, and every seventh row repeats one neighbour in all later
    slots, so whole rows tie across slots.
    """
    rng = np.random.default_rng([seed, k, c_lidar])
    half = n // 2
    xyz = np.tile(rng.uniform(-5.0, 5.0, size=(half, 3)), (2, 1))
    features = np.tile(rng.normal(size=(half, c_lidar)), (2, 1)) if c_lidar else None
    cloud = PointCloud(xyz=xyz, reflectance=np.zeros(n))
    semantic = np.tile(rng.integers(0, 3, size=(half, BACKBONE.c_seg)).astype(float), (2, 1))
    sem_valid = np.tile(rng.random(half) > 0.3, 2)
    nbr = rng.integers(0, n, size=(n, k))
    nbr[:, 0] = np.arange(n)
    if k > 1:
        nbr[::5, 1] = (np.arange(0, n, 5) + half) % n
        nbr[::7, 1:] = nbr[::7, 1:2]
    return cloud, semantic, nbr, sem_valid, features


class TestReferenceBits:
    """The operator and the assembly give the references' bits on tied, partly invalid neighbourhoods."""

    CASES = [(k, c) for k in (1, 3, 5) for c in (BACKBONE.c_lidar, 0)]
    IDS = [f"k{k}-{'backbone' if c else 'no_point_features'}" for k, c in CASES]
    # hidden widths between D_i and D_o: None is one hidden layer of width D_i; backward
    # writes each hidden layer's gradient over that layer's cached input, so every depth
    # and width hands its buffers on differently
    HIDDEN = {None: "", (): "-one_layer", (17, 9, 31): "-three_hidden"}
    MLP_CASES = [(k, c, hidden) for (k, c), hidden in itertools.product(CASES, HIDDEN)]
    MLP_IDS = [case_id + suffix for case_id, suffix in itertools.product(IDS, HIDDEN.values())]

    @pytest.mark.parametrize("k, c_lidar", CASES, ids=IDS)
    def test_assemble_matches_zero_fill(self, k, c_lidar):
        cloud, semantic, nbr, sem_valid, features = tied_frame(k, c_lidar)
        nf = fusion.assemble_neighbors(cloud, semantic, nbr, sem_valid, point_features=features)
        rows, valid = zero_fill_assemble(cloud, semantic, nbr, sem_valid, point_features=features)
        assert nf.rows.shape == (len(nbr), k, BACKBONE.c_seg + c_lidar + 3)
        assert not valid.all() and valid.any()
        assert same_bits(nf.rows, rows)
        np.testing.assert_array_equal(nf.valid, valid)

    @pytest.mark.parametrize("k, c_lidar, hidden", MLP_CASES, ids=MLP_IDS)
    def test_forward_and_backward_match_references(self, k, c_lidar, hidden):
        self._check_forward_and_backward(fusion.assemble_neighbors(*tied_frame(k, c_lidar)), hidden)

    @pytest.mark.parametrize("k, c_lidar, hidden", MLP_CASES, ids=MLP_IDS)
    def test_forward_and_backward_match_references_across_blocks(self, k, c_lidar, hidden):
        """Several whole point blocks and a ragged last one, so every pass crosses block edges."""
        n = 3 * fusion._BLOCK + 18
        self._check_forward_and_backward(fusion.assemble_neighbors(*tied_frame(k, c_lidar, n=n)), hidden)

    @pytest.mark.parametrize("hidden", [None, (17, 9, 31)], ids=["in_place", "three_hidden"])
    def test_one_point_tail_at_k1_matches_references(self, hidden):
        """One row past two whole blocks: backward's layer-0 GEMM must take it into the last block."""
        nf = random_neighbors(np.random.default_rng(11), 2 * fusion._BLOCK + 1, 1, BACKBONE)
        self._check_forward_and_backward(nf, hidden)

    def test_slot_256_at_k257_matches_references(self):
        """257 slots take a uint16 argmax: a channel's maximum in slot 256 must route its gradient there."""
        nf = fusion.assemble_neighbors(*tied_frame(257, 0, n=6))
        nf.rows[:, 256, :2] = nf.rows[:, :, :2].max(axis=1) + 1.0
        self._check_forward_and_backward(nf, None)

    def test_block_partition(self):
        """Blocks of _BLOCK points cover the points in order; a tail shorter than _BLOCK joins the block before it."""
        b = fusion._BLOCK
        assert fusion._blocks(0) == [(0, 0)]
        assert fusion._blocks(b - 1) == [(0, b - 1)]
        assert fusion._blocks(b) == [(0, b)]
        assert fusion._blocks(2 * b - 1) == [(0, 2 * b - 1)]
        assert fusion._blocks(2 * b + 1) == [(0, b), (b, 2 * b + 1)]
        assert fusion._blocks(3 * b) == [(0, b), (b, 2 * b), (2 * b, 3 * b)]

    @staticmethod
    def _check_forward_and_backward(nf, hidden):
        n, k, d_i = nf.rows.shape
        if k > 1:  # whole rows tie across slots, including with slot 0
            assert (nf.rows[:, 1:] == nf.rows[:, :1]).all(axis=2).any()
            assert ((nf.rows == nf.rows.max(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        widths = (d_i, *((d_i,) if hidden is None else hidden), BACKBONE.d_o)
        params = fusion.init_params(fusion.MlpSpec(widths=widths), k, seed=k)
        rng = np.random.default_rng([k, nf.dims.c_lidar])
        params.aggr_weights = rng.normal(size=k)
        grad_out = rng.normal(size=(n, 2 * BACKBONE.d_o + d_i))
        fused, cache = fusion.pacf_forward(nf, params)
        want_values, saved = concatenate_forward(nf.rows, params)
        assert same_bits(fused.values, want_values)
        got = fusion.pacf_backward(cache, params, grad_out)
        want = where_loop_backward(nf.rows, params, saved, grad_out)
        for got_w, want_w in zip(got[0] + got[1], want[0] + want[1]):
            assert same_bits(got_w, want_w)
        assert same_bits(got[2], want[2])
        assert same_bits(got[3], want[3])


class TestMlpSpec:
    @pytest.mark.parametrize(
        "widths, message",
        [
            ((), "MLP needs at least input and output widths"),
            ((4,), "MLP needs at least input and output widths"),
            ((4, 0, 8), r"all layer widths must be positive: \(4, 0, 8\)"),
            ((4, 8, -1), r"all layer widths must be positive: \(4, 8, -1\)"),
        ],
        ids=["no_widths", "one_width", "zero_width", "negative_width"],
    )
    def test_widths_rejected(self, widths, message):
        with pytest.raises(ValueError, match=message):
            fusion.MlpSpec(widths=widths)

    @pytest.mark.parametrize("d_i, widths", [(4, (4, 8, 8)), (12, (12, 12, 8))], ids=["narrow", "wide"])
    def test_default_hidden_width_is_max_of_d_i_and_d_o(self, d_i, widths):
        spec = fusion.MlpSpec.default(d_i, 8)
        assert spec.widths == widths and (spec.d_i, spec.d_o) == (d_i, 8)


_W = (5, 7, 3)  # layer widths of the hand-built PACW files


def _pacw_header(version, k, widths, n_widths=None):
    """A PACW header: magic, version, k, the number of widths (len(widths) unless given), then the widths."""
    return fusion.PARAMS_MAGIC + struct.pack(f"<HII{len(widths)}I", version, k,
                                             len(widths) if n_widths is None else n_widths, *widths)


def _pacw_payload(widths, k):
    """Zero weights and biases of the given widths, then k zero aggregation scalars."""
    return b"\x00" * 8 * (sum(a * b + b for a, b in zip(widths, widths[1:])) + k)


class TestParamsIO:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        for i in range(10):
            spec = fusion.MlpSpec(widths=(5, 7, 3))
            params = fusion.init_params(spec, k=4, seed=i)
            params.aggr_weights = rng.normal(size=4)
            path = tmp_path / f"p{i}.pacw"
            fusion.save_params(params, path)
            raw = path.read_bytes()
            back = fusion.load_params(path)
            fusion.save_params(back, path)
            assert path.read_bytes() == raw
            for a, b in zip(params.weights, back.weights):
                np.testing.assert_array_equal(a, b)

    def test_saved_container_is_version_1(self, tmp_path):
        """The on-disk version is pinned: a build writing another could read only its own files."""
        path = tmp_path / "p.pacw"
        fusion.save_params(fusion.init_params(fusion.MlpSpec(widths=_W), 3, seed=0), path)
        assert path.read_bytes()[4:6] == struct.pack("<H", 1)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"", "bad magic"),
            (b"XXXX" + b"\x00" * 32, "bad magic"),
            (b"PACW", "bad magic"),
            (_pacw_header(1, 3, (), n_widths=3)[:13], "bad magic"),
            (b"pacw" + _pacw_header(1, 3, _W)[4:] + _pacw_payload(_W, 3), "bad magic"),
            (b"PACF" + _pacw_header(1, 3, _W)[4:] + _pacw_payload(_W, 3), "bad magic"),
            (_pacw_header(0, 3, _W) + _pacw_payload(_W, 3), "unsupported version 0"),
            (_pacw_header(2, 3, _W) + _pacw_payload(_W, 3), "unsupported version 2"),
            (_pacw_header(1, 3, (), n_widths=3), "truncated header"),
            (_pacw_header(1, 3, (5, 7), n_widths=3), "truncated header"),
            (_pacw_header(1, 3, _W), "payload size mismatch"),
            (_pacw_header(1, 3, _W) + _pacw_payload(_W, 3)[:-8], "payload size mismatch"),
            (_pacw_header(1, 3, _W) + _pacw_payload(_W, 3) + b"\x00", "payload size mismatch"),
            (_pacw_header(1, 1, (5,)) + struct.pack("<d", 1.0),
             "the MLP needs at least one layer, i.e. input and output widths"),
            (_pacw_header(1, 1, ()) + struct.pack("<d", 1.0),
             "the MLP needs at least one layer, i.e. input and output widths"),
            (_pacw_header(1, 0, _W) + _pacw_payload(_W, 0), "k=0, needs at least one aggregation weight"),
            (_pacw_header(1, 3, (5, 0, 3)) + _pacw_payload((5, 0, 3), 3),
             "all layer widths must be positive: (5, 0, 3)"),
            (_pacw_header(1, 3, _W) + struct.pack("<d", np.nan) + _pacw_payload(_W, 3)[8:],
             "parameters must be finite"),
        ],
        ids=["empty", "other_magic", "magic_only", "header_13_bytes", "lowercase_magic", "feature_map_magic",
             "version_0", "version_2", "no_width_present", "widths_cut", "header_only", "short_payload",
             "long_payload", "one_width", "no_widths", "k_zero", "zero_width", "nan_weight"],
    )
    def test_malformed_container(self, tmp_path, raw, message):
        """Each header or payload fault is a FormatError with its exact message."""
        path = tmp_path / "p.pacw"
        path.write_bytes(raw)
        with pytest.raises(FormatError) as exc:
            fusion.load_params(path)
        assert str(exc.value) == f"parameter container: {message}"

    @pytest.mark.parametrize(
        "weights, biases, aggr, match",
        [
            ([(5, 4), (6, 3)], [4, 3], 3, "layer 1 takes width 6 but layer 0 gives 4"),
            ([(5, 4), (4, 3)], [4, 3], 0, "k=0"),
            ([(5,)], [()], 3, "layer 0 needs a 2-D weight"),
            ([()], [()], 3, "layer 0 needs a 2-D weight"),
            ([(2, 3, 4)], [(3, 4)], 3, "layer 0 needs a 2-D weight"),
            ([], [], 3, "at least one layer"),
            ([(5, 0), (0, 3)], [0, 3], 3, "widths must be positive"),
            ([(5, 4)], [(4, 1)], 3, "layer 0 needs a 2-D weight and a 1-D bias"),
            ([(5, 4)], [(1, 4)], 3, "layer 0 needs a 2-D weight and a 1-D bias"),
            ([(5, 4)], [4], (), "aggregation weights must be 1-D"),
            ([(5, 4)], [4], (3, 1), "aggregation weights must be 1-D"),
        ],
        ids=["unchained", "k_zero", "weight_1d", "weight_0d", "weight_3d", "no_layers", "zero_width", "bias_column",
             "bias_row", "aggr_0d", "aggr_2d"],
    )
    def test_params_rejected(self, weights, biases, aggr, match):
        with pytest.raises(ValueError, match=match):
            fusion.PacfParams(weights=[np.zeros(s) for s in weights], biases=[np.zeros(b) for b in biases],
                              aggr_weights=np.ones(aggr))

    @pytest.mark.parametrize(
        "breaks, match",
        [(lambda p: setattr(p, "aggr_weights", np.zeros(0)), "k=0"),
         (lambda p: p.weights.__setitem__(0, np.zeros(5)), "layer 0 needs a 2-D weight"),
         (lambda p: p.biases[1].__setitem__(0, np.nan), "finite")],
        ids=["k_zero", "weight_1d", "nan_bias"],
    )
    def test_save_rechecks_params_changed_after_construction(self, tmp_path, breaks, match):
        params = fusion.init_params(fusion.MlpSpec(widths=(4, 6, 3)), k=3, seed=5)
        breaks(params)
        path = tmp_path / "p.pacw"
        with pytest.raises(ValueError, match=match):
            fusion.save_params(params, path)
        assert not path.exists()

    @pytest.mark.parametrize("array", ["weight", "bias", "aggr"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_params_rejected(self, array, value):
        params = fusion.init_params(fusion.MlpSpec(widths=(5, 4, 3)), k=3, seed=0)
        arrays = {"weight": params.weights[1], "bias": params.biases[0], "aggr": params.aggr_weights}
        arrays[array][-1] = value
        with pytest.raises(ValueError, match="finite"):
            fusion.PacfParams(weights=params.weights, biases=params.biases, aggr_weights=params.aggr_weights)


_ANY_SHAPE = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)


@st.composite
def _param_arrays(draw):
    """(weights, biases, aggr) with values in [-2, 2]: a well-formed set of 1-3 layers of widths 1-4, or a
    possibly malformed one of 0-3 layers of widths 0-4, k 0-4, any array of ndim 0-3 and sizes 0-4, and now
    and then one NaN or inf."""
    malformed = draw(st.booleans())
    low = 0 if malformed else 1
    widths = draw(st.lists(st.integers(low, 4), min_size=1 if malformed else 2, max_size=4))

    def array(good):
        shape = draw(st.just(good) | _ANY_SHAPE) if malformed else good
        return draw(hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))

    weights = [array((a, b)) for a, b in zip(widths[:-1], widths[1:])]
    biases = [array((b,)) for b in widths[1:]]
    aggr = array((draw(st.integers(low, 4)),))
    filled = [a for a in (*weights, *biases, aggr) if a.size]
    bad = draw(st.sampled_from([None, np.nan, np.inf])) if malformed else None
    if bad is not None and filled:
        a = filled[draw(st.integers(0, len(filled) - 1))]
        a.flat[draw(st.integers(0, a.size - 1))] = bad
    return weights, biases, aggr


class TestParamsProperties:
    """Every parameter set is rejected with ValueError or round-trips and runs; every mutated PACW file is
    rejected with FormatError or loads as a valid set."""

    @settings(max_examples=80, deadline=None)
    @given(case=_param_arrays())
    @example(case=([np.ones((2, 3)), np.ones((3, 1))], [np.zeros(3), np.zeros(1)], np.ones(2)))
    @example(case=([np.ones((2, 3))], [np.zeros((3, 1))], np.ones(2)))
    def test_params_rejected_or_usable(self, tmp_path_factory, case):
        weights, biases, aggr = case
        try:
            params = fusion.PacfParams(weights=weights, biases=biases, aggr_weights=aggr)
        except ValueError:
            return
        path = tmp_path_factory.getbasetemp() / "property.pacw"
        fusion.save_params(params, path)
        back = fusion.load_params(path)
        for a, b in zip((*params.weights, *params.biases, params.aggr_weights),
                        (*back.weights, *back.biases, back.aggr_weights)):
            assert a.shape == b.shape and same_bits(a, b)
        _check_forward(params)

    @settings(max_examples=80, deadline=None)
    @given(widths=st.lists(st.integers(1, 4), min_size=2, max_size=4), k=st.integers(1, 4), data=st.data())
    def test_mutated_container_rejected_or_valid(self, tmp_path_factory, widths, k, data):
        path = tmp_path_factory.getbasetemp() / "mutated.pacw"
        fusion.save_params(fusion.init_params(fusion.MlpSpec(widths=tuple(widths)), k, seed=0), path)
        raw = bytearray(path.read_bytes())
        # header bytes are drawn as often as payload bytes
        where = st.integers(0, 14 + 4 * len(widths) - 1) | st.integers(0, len(raw) - 1)
        for pos, mask in data.draw(st.lists(st.tuples(where, st.integers(1, 255)), max_size=3)):
            raw[pos] ^= mask
        raw = bytes(raw[: data.draw(st.just(len(raw)) | st.integers(0, len(raw)))])
        path.write_bytes(raw)
        try:
            params = fusion.load_params(path)
        except FormatError:
            return
        fusion.save_params(params, path)
        assert path.read_bytes() == raw
        assert all(np.isfinite(a).all() for a in (*params.weights, *params.biases, params.aggr_weights))


def _check_forward(params):
    """pacf_forward on rows of width spec.d_i is finite and matches the loop oracle."""
    rows = np.random.default_rng(0).normal(size=(2, params.k, params.spec.d_i))
    # pacf_forward reads only the rows; a NeighborFeatures would also need D_i >= 4
    out, _ = fusion.pacf_forward(SimpleNamespace(rows=rows), params)
    assert np.isfinite(out.values).all()
    want = naive_forward(rows, params.weights, params.biases, params.aggr_weights)
    np.testing.assert_allclose(out.values, want, rtol=1e-12, atol=1e-12)


class TestFuseCloud:
    @pytest.fixture
    def frame(self, rng):
        """A cloud of which some points but not all project into the feature map, and their retrieved semantics."""
        cloud = random_cloud(rng, 40)
        fmap = FeatureMap(data=rng.uniform(0, 1, size=(32, 64, 2)))
        calib = make_calib(cx=32.0, cy=16.0)
        semantic, sem_valid = fusion.retrieve_features(geometry.project_points(cloud, calib, (32, 64)), fmap)
        assert 0 < sem_valid.sum() < len(cloud)
        return cloud, fmap, calib, semantic, sem_valid

    @pytest.mark.parametrize("d", [np.inf, 10.0], ids=["inf", "radius"])
    @pytest.mark.parametrize("k", [1, 4])
    def test_v1_rows_are_pacf_forward(self, frame, k, d):
        """fuse_cloud searches params.k neighbours within d and returns pacf_forward's rows over neighbor rows
        that carry no point features."""
        cloud, fmap, calib, semantic, sem_valid = frame
        params = fusion.init_params(fusion.MlpSpec.default(2 + 3, 4), k, seed=0)
        table = kdtree.knn_table(cloud.xyz, params.k, d)
        if k > 1 and d < np.inf:  # the radius pads some rows
            assert not np.array_equal(table, kdtree.knn_table(cloud.xyz, k, np.inf))
        nf = fusion.assemble_neighbors(cloud, semantic, table, sem_valid, None)
        want = fusion.pacf_forward(nf, params)[0].values
        out = fusion.fuse_cloud(cloud, fmap, calib, params, d)
        assert type(out) is np.ndarray and out.dtype == np.float64
        assert out.shape == (40, 2 * 4 + 5) == want.shape
        assert out.tobytes() == want.tobytes()

    def test_results_are_not_validated_again(self, frame, monkeypatch):
        cloud, fmap, calib, _, _ = frame
        params = fusion.init_params(fusion.MlpSpec.default(2 + 3, 4), k=3, seed=0)

        def no_validation(self):
            raise AssertionError("fuse_cloud built a validated cloud")

        monkeypatch.setattr(PointCloud, "__post_init__", no_validation)
        out = fusion.fuse_cloud(cloud, fmap, calib, params, np.inf)
        assert len(out) == len(cloud)
