import numpy as np
import pytest

from pacfusion import cli, fusion, gradcheck, losses

H = gradcheck.FD_STEP


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
    worst, unjudged = gradcheck.max_fd_error(objective, arrays, coeffs, range)
    assert worst < 1e-8 and unjudged == 0
    assert changed == [0] + [1] * (2 * (12 + 5))  # the unmoved objective, then each entry moved up and down
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()


def test_focal_check_perturbs_one_prediction_at_a_time(monkeypatch):
    unperturbed, changed = {}, []

    def recording_focal_loss(preds, mask, *args, **kwargs):
        # an instance's first call, the analytic gradient's, sees its unperturbed predictions
        base = unperturbed.setdefault(id(mask), (mask, preds.copy()))[1]
        changed.append(int(np.count_nonzero(preds != base)))
        return focal_loss(preds, mask, *args, **kwargs)

    focal_loss = losses.focal_loss
    monkeypatch.setattr(losses, "focal_loss", recording_focal_loss)
    for seed in range(5):
        assert all(error < 1e-4 for error, _ in gradcheck.check_focal_gradients(n_instances=20, seed=seed))
    assert len(unperturbed) == 100 and len(changed) > 100
    assert max(changed) == 1


def test_rel_error_floor():
    """Below 1e-8 the denominator is the floor, so a tiny gradient cannot pass the check by scale alone."""
    assert gradcheck.rel_error(0.0, 1e-10) == 1e-2
    assert gradcheck.rel_error(2.0, 1.0) == 0.5


def test_probe_at_a_kink_is_left_unjudged():
    """|x| at 0.3 * FD_STEP: the one-sided slopes 1 and 3/7 straddle the kink, so the central 0.3 cannot judge 1."""
    x = np.array([0.3 * H, 2.0])
    objective = lambda: float(abs(x[0]) + x[1] ** 2)
    assert gradcheck.max_fd_error(objective, [x], [np.array([1.0, 4.0])], range) == (pytest.approx(0.0, abs=1e-9), 1)
    # an analytic value outside the one-sided slopes is judged, and a kink-only array is never a pass
    assert gradcheck.max_fd_error(objective, [x], [np.array([1.5, 4.0])], range)[0] == pytest.approx(0.8)
    assert gradcheck.max_fd_error(objective, [x[:1]], [np.array([1.0])], range) == (np.inf, 1)


@pytest.mark.parametrize("seed", [24, 89, 146, 213, 219, 284])
def test_correct_gradients_pass_across_kinks_and_rounding(seed):
    """Seeds whose check once failed on correct gradients: kinks within FD_STEP, and seed 213's rounding of a
    weight gradient of 8.1e-8 by 1.8e-11, 2.2e-4 of it."""
    errors, unjudged = zip(*gradcheck.check_pacf_gradients(n_instances=20, seed=seed))
    assert max(errors) < gradcheck.TOLERANCE
    assert 1 <= sum(unjudged) <= 4  # of 640 probes


def test_gradient_off_by_one_part_in_a_thousand_fails(monkeypatch, capsys):
    backward = fusion.pacf_backward

    def scaled_backward(*args):
        gw, gb, ga, grows = backward(*args)
        return [gw[0] * (1 + 1e-3), *gw[1:]], gb, ga, grows

    monkeypatch.setattr(fusion, "pacf_backward", scaled_backward)
    for seed in range(10):
        assert max(error for error, _ in gradcheck.check_pacf_gradients(n_instances=20, seed=seed)) >= 9e-4
    assert cli.main(["gradcheck", "--instances", "2"]) == cli.EXIT_VERIFY
    assert capsys.readouterr().out.endswith("FAIL\n")
