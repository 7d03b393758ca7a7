import warnings

import numpy as np
import pytest

from pacfusion import geometry, losses
from pacfusion.losses import BACKGROUND, FOREGROUND, PROB_EPS, UNSUPERVISED, SparseMask
from pacfusion.types import Box3D, PointCloud

from conftest import make_calib, read_p5


def _mask_single(state_val, h=1, w=1):
    return SparseMask(state=np.full((h, w), state_val, dtype=np.uint8))


class TestFocalLoss:
    def test_perfect_prediction_near_zero(self):
        mask = _mask_single(FOREGROUND)
        loss, _, warn = losses.focal_loss(np.array([[1.0 - 1e-7]]), mask)
        assert loss == pytest.approx(0.0, abs=1e-10)
        assert not warn

    def test_foreground_half(self):
        mask = _mask_single(FOREGROUND)
        loss, _, _ = losses.focal_loss(np.array([[0.5]]), mask)
        assert loss == pytest.approx(-0.25 * 0.25 * np.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.043322, abs=1e-5)

    def test_background_half(self):
        mask = _mask_single(BACKGROUND)
        loss, _, _ = losses.focal_loss(np.array([[0.5]]), mask)
        assert loss == pytest.approx(-0.75 * 0.25 * np.log(0.5), abs=1e-12)
        assert loss == pytest.approx(0.129966, abs=1e-5)

    def test_no_supervision_warns(self):
        mask = _mask_single(UNSUPERVISED, 2, 2)
        loss, grad, warn = losses.focal_loss(np.full((2, 2), 0.5), mask)
        assert loss == 0.0 and warn
        np.testing.assert_array_equal(grad, 0.0)

    def test_mean_reduction(self, rng):
        state = np.array([[FOREGROUND, BACKGROUND, UNSUPERVISED]], dtype=np.uint8)
        mask = SparseMask(state=state)
        preds = np.array([[0.5, 0.5, 0.123]])
        loss, _, _ = losses.focal_loss(preds, mask)
        expected = (-0.25 * 0.25 * np.log(0.5) - 0.75 * 0.25 * np.log(0.5)) / 2
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gamma_zero_alpha_half_is_half_bce(self, rng):
        h, w = 5, 7
        state = rng.integers(0, 3, size=(h, w)).astype(np.uint8)
        state[0, 0] = FOREGROUND
        mask = SparseMask(state=state)
        preds = rng.uniform(0.05, 0.95, size=(h, w))
        loss, _, _ = losses.focal_loss(preds, mask, alpha=0.5, gamma=0.0)
        sup = state != UNSUPERVISED
        fg = state == FOREGROUND
        bce = np.where(fg, -np.log(preds), -np.log(1 - preds))
        assert loss == pytest.approx(0.5 * bce[sup].mean(), abs=1e-10)

    def test_nonnegative(self, rng):
        for _ in range(20):
            state = rng.integers(0, 3, size=(4, 4)).astype(np.uint8)
            state[0, 0] = BACKGROUND
            mask = SparseMask(state=state)
            preds = rng.uniform(0, 1, size=(4, 4))
            loss, _, _ = losses.focal_loss(preds, mask)
            assert loss >= 0.0

    def test_gradient_finite_differences(self):
        from pacfusion.gradcheck import check_focal_gradients

        assert all(error < 1e-4 for error, _ in check_focal_gradients(n_instances=20, seed=21))

    @pytest.mark.parametrize("shape", [(3, 2), (1, 3), (2, 1)])
    def test_shape_mismatch_names_both_shapes(self, shape):
        mask = SparseMask(state=np.full((2, 3), FOREGROUND, dtype=np.uint8))
        with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\).*shape \(2, 3\)"):
            losses.focal_loss(np.full(shape, 0.5), mask)

    # alpha = 1 weighs every background pixel by 1 - alpha = 0; a NaN or infinite gamma gives a NaN gradient
    @pytest.mark.parametrize("weights, message", [
        ({"alpha": 0.0}, "alpha must be in (0, 1), got 0.0"),
        ({"alpha": 1.0}, "alpha must be in (0, 1), got 1.0"),
        ({"alpha": np.nan}, "alpha must be in (0, 1), got nan"),
        ({"gamma": -1.0}, "gamma must be finite and >= 0, got -1.0"),
        ({"gamma": np.nan}, "gamma must be finite and >= 0, got nan"),
        ({"gamma": np.inf}, "gamma must be finite and >= 0, got inf"),
    ])
    def test_config_validation(self, weights, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check runs before any arithmetic
            with pytest.raises(ValueError) as info:
                losses.focal_loss(np.array([[0.5]]), _mask_single(FOREGROUND), **weights)
        assert str(info.value) == message

    def test_gamma_zero_is_accepted(self):
        loss, _, _ = losses.focal_loss(np.array([[0.5]]), _mask_single(FOREGROUND), gamma=0.0)
        assert loss == pytest.approx(-0.25 * np.log(0.5), abs=1e-12)

    def test_weights_are_keyword_only(self):
        with pytest.raises(TypeError):
            losses.focal_loss(np.array([[0.5]]), _mask_single(FOREGROUND), 0.5)


def whole_map_focal_loss(predictions, mask, alpha=0.25, gamma=2.0):
    """Reference: the focal term and its derivative evaluated over the whole map, then masked."""
    sup = mask.supervised
    count = int(sup.sum())
    grad = np.zeros_like(predictions, dtype=np.float64)
    if count == 0:
        return 0.0, grad, True
    p = np.clip(predictions, PROB_EPS, 1.0 - PROB_EPS)
    fg = mask.state == FOREGROUND
    p_t = np.where(fg, p, 1.0 - p)
    alpha_t = np.where(fg, alpha, 1.0 - alpha)
    terms = -alpha_t * (1.0 - p_t) ** gamma * np.log(p_t)
    loss = float(terms[sup].sum() / count)
    dt = alpha_t * (
        gamma * (1.0 - p_t) ** (gamma - 1.0) * np.log(p_t)
        - (1.0 - p_t) ** gamma / p_t
    )
    dp = np.where(fg, dt, -dt) / count
    interior = (predictions > PROB_EPS) & (predictions < 1.0 - PROB_EPS)
    grad[sup & interior] = dp[sup & interior]
    return loss, grad, False


_EDGE_PREDICTIONS = [0.0, -0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS, np.nextafter(PROB_EPS, 0),
                     np.nextafter(1.0 - PROB_EPS, 2), -0.25, 1.5, -np.inf, np.inf, np.nan]


def _edge_predictions(rng, state):
    """Uniform probabilities, with each clamp edge and each value outside [0, 1] on two pixels of every mask state."""
    preds = rng.uniform(0.0, 1.0, size=state.shape)
    for level in np.unique(state):
        spots = rng.choice(np.flatnonzero(state == level), size=(len(_EDGE_PREDICTIONS), 2), replace=False)
        for value, where in zip(_EDGE_PREDICTIONS, spots):
            preds.flat[where] = value
    return preds


class TestFocalLossMatchesWholeMap:
    """The loss read at supervised pixels only gives the whole-map reference's bits."""

    @staticmethod
    def _assert_same(preds, mask, **weights):
        loss, grad, warn = losses.focal_loss(preds, mask, **weights)
        want_loss, want_grad, want_warn = whole_map_focal_loss(preds, mask, **weights)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape
        assert np.array_equal(grad.view(np.int64), want_grad.view(np.int64))
        assert warn == want_warn

    @pytest.mark.parametrize("gamma", [0.0, 1.5, 2.0])
    def test_mixed_mask_edge_predictions(self, rng, gamma):
        state = rng.choice([UNSUPERVISED, BACKGROUND, FOREGROUND], p=[0.6, 0.3, 0.1], size=(37, 53)).astype(np.uint8)
        preds = _edge_predictions(rng, state)
        mask = SparseMask(state=state)
        assert (state == FOREGROUND).any() and (state == BACKGROUND).any() and (state == UNSUPERVISED).any()
        weights = {"alpha": 0.25, "gamma": gamma}
        self._assert_same(preds, mask, **weights)
        self._assert_same(preds.astype(np.float32), mask, **weights)
        self._assert_same(np.asfortranarray(preds), mask, **weights)
        # with NaN and infinite predictions left out the loss is finite, so its bits say more
        finite = np.where(np.isfinite(preds), preds, 0.5)
        assert np.isfinite(losses.focal_loss(finite, mask, **weights)[0])
        self._assert_same(finite, mask, **weights)

    def test_zero_supervision(self, rng):
        state = np.zeros((9, 11), dtype=np.uint8)
        self._assert_same(_edge_predictions(rng, state), SparseMask(state=state))


class TestLabelPoints:
    def test_no_boxes_all_bg(self, rng):
        cloud = PointCloud(xyz=rng.uniform(1, 50, size=(20, 3)), reflectance=np.zeros(20))
        fg = losses.label_points(cloud, [], make_calib())
        assert not fg.any()

    def test_box_center_fg(self):
        calib = make_calib()
        box = Box3D(x=0.0, y=1.0, z=10.0, h=2, w=2, l=2, ry=0.0)
        # camera (0, 0, 10) == box interior; lidar equivalent is (10, 0, 0)
        cloud = PointCloud(xyz=np.array([[10.0, 0.0, 0.0]]), reflectance=np.zeros(1))
        fg = losses.label_points(cloud, [box], calib)
        assert fg[0]

    def test_dontcare_ignored(self):
        calib = make_calib()
        box = Box3D(x=0.0, y=1.0, z=10.0, h=2, w=2, l=2, ry=0.0, dontcare=True)
        cloud = PointCloud(xyz=np.array([[10.0, 0.0, 0.0]]), reflectance=np.zeros(1))
        assert not losses.label_points(cloud, [box], calib).any()

    def test_exhaustive_oracle(self, rng):
        calib = make_calib()
        boxes = [
            Box3D(x=float(rng.uniform(-5, 5)), y=1.0, z=float(rng.uniform(8, 30)),
                  h=1.6, w=1.7, l=3.9, ry=float(rng.uniform(-np.pi, np.pi)))
            for _ in range(3)
        ]
        cloud = PointCloud(
            xyz=rng.uniform([5, -10, -2], [35, 10, 2], size=(200, 3)),
            reflectance=np.zeros(200),
        )
        fg = losses.label_points(cloud, boxes, calib)
        cam = geometry.lidar_to_camera(cloud.xyz, calib)
        for i in range(200):
            want = any(geometry.points_in_box(cam[i], b)[0] for b in boxes)
            assert fg[i] == want


def _loop_mask(cloud, labels, calib, image_size):
    """Reference: the per-point stamping loop the vectorized mask replaced."""
    height, width = image_size
    state = np.full((height, width), UNSUPERVISED, dtype=np.uint8)
    depth = np.full((height, width), np.inf)
    pixels = geometry.project_points(cloud, calib, image_size)
    for i in np.nonzero(pixels.valid)[0]:
        r = min(max(int(np.ceil(pixels.v[i] - 0.5)), 0), height - 1)
        c = min(max(int(np.ceil(pixels.u[i] - 0.5)), 0), width - 1)
        if pixels.depth[i] < depth[r, c]:
            depth[r, c] = pixels.depth[i]
            state[r, c] = FOREGROUND if labels[i] else BACKGROUND
    return state


def _assert_same_as_loop(cloud, labels, calib, image_size, tmp_path):
    mask = losses.make_sparse_mask(cloud, labels, calib, image_size)
    state = _loop_mask(cloud, labels, calib, image_size)
    assert mask.state.dtype == np.uint8
    assert mask.state.tobytes() == state.tobytes()
    got, want = tmp_path / "got.pgm", tmp_path / "want.pgm"
    mask.to_pgm(got)
    SparseMask(state=state).to_pgm(want)
    assert got.read_bytes() == want.read_bytes()
    return mask


class TestSparseMaskMatchesLoop:
    def test_synthetic_frame(self, synthetic_frame, tmp_path):
        f = synthetic_frame
        mask = _assert_same_as_loop(f["cloud"], f["fg"], f["calib"], f["image_size"], tmp_path)
        assert (mask.state == FOREGROUND).any() and (mask.state == BACKGROUND).any()

    def test_equal_depth_ties_on_one_pixel(self, tmp_path):
        calib = make_calib(f=100.0, cx=20.0, cy=10.0)
        # all at depth 10 on pixel (10, 20): the lowest index, 1, wins; 0 is farther
        xyz = np.array(
            [[12.0, 0.0, 0.0], [10.0, 0.0, 0.0], [10.0, 0.001, 0.0], [10.0, 0.0, -0.002], [10.0, 0.0, 0.0]]
        )
        cloud = PointCloud(xyz=xyz, reflectance=np.zeros(5))
        for labels, want in (([True, False, True, True, True], BACKGROUND),
                             ([False, True, False, False, False], FOREGROUND)):
            mask = _assert_same_as_loop(cloud, np.array(labels), calib, (20, 40), tmp_path)
            assert mask.state[10, 20] == want
            assert mask.supervised.sum() == 1

    def test_permuted_cloud(self, synthetic_frame, tmp_path):
        f = synthetic_frame
        cloud = f["cloud"]
        # duplicate every tenth point so the permutation reorders exact ties too
        dup = np.arange(0, len(cloud), 10)
        xyz = np.vstack([cloud.xyz, cloud.xyz[dup]])
        labels = np.concatenate([f["fg"], ~f["fg"][dup]])
        perm = np.random.default_rng(4).permutation(len(xyz))
        permuted = PointCloud(xyz=xyz[perm], reflectance=np.zeros(len(xyz)))
        _assert_same_as_loop(permuted, labels[perm], f["calib"], f["image_size"], tmp_path)


class TestSparseMask:
    def test_single_point_stamp(self):
        calib = make_calib(f=100.0, cx=20.0, cy=10.0)
        cloud = PointCloud(xyz=np.array([[10.0, 0.0, 0.0]]), reflectance=np.zeros(1))
        mask = losses.make_sparse_mask(cloud, np.array([True]), calib, (20, 40))
        assert mask.state[10, 20] == FOREGROUND
        assert mask.supervised.sum() == 1

    def test_nearest_depth_wins(self):
        calib = make_calib(f=100.0, cx=20.0, cy=10.0)
        # same ray, different depths: bg point at x=5 occludes fg at x=15
        cloud = PointCloud(
            xyz=np.array([[15.0, 0.0, 0.0], [5.0, 0.0, 0.0]]), reflectance=np.zeros(2)
        )
        mask = losses.make_sparse_mask(cloud, np.array([True, False]), calib, (20, 40))
        assert mask.state[10, 20] == BACKGROUND

    def test_supervision_bounded_by_valid_count(self, rng):
        calib = make_calib(f=100.0, cx=96.0, cy=32.0)
        cloud = PointCloud(
            xyz=rng.uniform([1, -20, -2], [50, 20, 2], size=(500, 3)),
            reflectance=np.zeros(500),
        )
        labels = rng.random(500) < 0.3
        mask = losses.make_sparse_mask(cloud, labels, calib, (64, 192))
        pixels = geometry.project_points(cloud, calib, (64, 192))
        assert mask.supervised.sum() <= pixels.valid.sum()

    def test_point_order_independent(self, rng):
        calib = make_calib(f=50.0, cx=16.0, cy=16.0)
        xyz = rng.uniform([1, -5, -2], [30, 5, 2], size=(300, 3))
        labels = rng.random(300) < 0.5
        cloud = PointCloud(xyz=xyz, reflectance=np.zeros(300))
        m1 = losses.make_sparse_mask(cloud, labels, calib, (32, 32))
        perm = rng.permutation(300)
        cloud2 = PointCloud(xyz=xyz[perm], reflectance=np.zeros(300))
        m2 = losses.make_sparse_mask(cloud2, labels[perm], calib, (32, 32))
        np.testing.assert_array_equal(m1.state, m2.state)

    def test_dontcare_region_blanked(self):
        calib = make_calib(f=100.0, cx=20.0, cy=10.0)
        cloud = PointCloud(xyz=np.array([[10.0, 0.0, 0.0]]), reflectance=np.zeros(1))
        dc = Box3D(x=0.0, y=1.0, z=10.0, h=2, w=2, l=2, ry=0.0, dontcare=True)
        mask = losses.make_sparse_mask(
            cloud, np.array([True]), calib, (20, 40), dontcare_boxes=[dc]
        )
        assert mask.state[10, 20] == UNSUPERVISED

    def test_pgm_export(self, tmp_path):
        state = np.array([[UNSUPERVISED, BACKGROUND, FOREGROUND], [FOREGROUND, FOREGROUND, UNSUPERVISED]])
        mask = SparseMask(state=state.astype(np.uint8))
        path = tmp_path / "mask.pgm"
        mask.to_pgm(path)
        np.testing.assert_array_equal(read_p5(path, 2, 3), [[0, 128, 255], [255, 255, 0]])

    @pytest.mark.parametrize("dtype, value, message", [
        (np.uint8, 3, "mask state 3 is not 0, 1 or 2"),
        (np.uint8, 255, "mask state 255 is not 0, 1 or 2"),
        (np.int8, -1, "mask state -1 is not 0, 1 or 2"),
        (np.int64, 256, "mask state 256 is not 0, 1 or 2"),
        (np.float64, 1.5, "mask state dtype float64 is not an integer type"),
        (np.float32, 1.0, "mask state dtype float32 is not an integer type"),
    ])
    def test_pgm_export_rejects_a_bad_state(self, tmp_path, dtype, value, message):
        state = np.array([[UNSUPERVISED, FOREGROUND], [value, BACKGROUND]], dtype=dtype)
        path = tmp_path / "mask.pgm"
        with pytest.raises(ValueError, match=rf"^{message}$"):
            SparseMask(state=state).to_pgm(path)
        assert not path.exists()
