import numpy as np

from pacfusion import gradcheck, losses


def test_max_fd_error_restores_every_probed_entry():
    rng = np.random.default_rng(4)
    arrays = [rng.uniform(0.05, 0.95, size=(3, 4)), rng.normal(size=5)]
    coeffs = [rng.normal(size=a.shape) for a in arrays]
    before = [a.copy() for a in arrays]
    changed = []

    def objective() -> float:
        changed.append(sum(int(np.count_nonzero(a != b)) for a, b in zip(arrays, before)))
        return float(sum(np.sum(c * a) for c, a in zip(coeffs, arrays)))

    # a linear objective: its exact gradient is the coefficients
    assert gradcheck.max_fd_error(objective, arrays, coeffs, range) < 1e-8
    assert changed == [1] * (2 * (12 + 5))
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


def test_focal_check_perturbs_one_prediction_at_a_time(monkeypatch):
    unperturbed, changed = {}, []

    def recording_focal_loss(preds, mask, *args):
        # an instance's first call, the analytic gradient's, sees its unperturbed predictions
        base = unperturbed.setdefault(id(mask), (mask, preds.copy()))[1]
        changed.append(int(np.count_nonzero(preds != base)))
        return focal_loss(preds, mask, *args)

    focal_loss = losses.focal_loss
    monkeypatch.setattr(losses, "focal_loss", recording_focal_loss)
    for seed in range(5):
        assert gradcheck.check_focal_gradients(n_instances=20, seed=seed) < 1e-4
    assert len(unperturbed) == 100 and len(changed) > 100
    assert max(changed) == 1


def test_rel_error_floor():
    """Below 1e-8 the denominator is the floor, so a tiny gradient cannot pass the check by scale alone."""
    assert gradcheck.rel_error(0.0, 1e-10) == 1e-2
    assert gradcheck.rel_error(2.0, 1.0) == 0.5
