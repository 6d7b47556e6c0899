"""Finite-difference verification of every backward pass, and of the harness."""

import numpy as np
import pytest

from ggnet import losses, model as mdl
from ggnet.tensor import Tensor, on_tape, tape

from gradcheck import CHECKS, GradCheckError, finite_diff_check, run_check, weighted_sum


@pytest.mark.parametrize("name, build", CHECKS, ids=[name for name, _ in CHECKS])
def test_op_passes_over_three_seeds(name, build):
    failed = [r for r in (run_check(name, build, seed) for seed in range(3)) if not r.passed]
    assert not failed, "\n".join(f"{r.name}: {r.worst}" for r in failed)


def test_check_battery_covers_all_differentiable_ops():
    names = [n for n, _ in CHECKS]
    assert len(names) == len(set(names)) and set(names) == {
        "conv2d", "conv2d_strided", "relu", "sigmoid", "add", "slice_channels",
        "group_mean_channels", "combine_scalars", "deform_aggregate",
        "hna_loss", "centernet_focal", "matching_loss", "detection_losses",
    }


def test_finite_diff_check_raises_on_nonfinite_forward():
    x = Tensor((1, 1, 1, 1), [float("nan")])
    with pytest.raises(GradCheckError, match="non-finite"):
        finite_diff_check(lambda: weighted_sum(x), [("x", x)], name="nan_case")


def test_finite_diff_check_flags_wrong_backward():
    x = Tensor((1, 1, 1, 4), [0.5, -0.3, 0.8, 0.1])

    def overclaiming_sum():
        out = Tensor((1, 1, 1, 1), [float(x.data.sum())])
        out.exact = float(x.data.sum(dtype=np.float64))
        # deliberately wrong: claims d(sum)/dx = 2 instead of 1
        on_tape(out, lambda g: x.add_grad(np.full(x.shape, 2.0) * float(g.reshape(-1)[0])), x)
        return out

    report = finite_diff_check(overclaiming_sum, [("x", x)], name="broken")
    assert not report.passed
    assert report.max_abs_err > 1.0


def test_total_loss_scales_detached_aux_gradient_by_lambda():
    cfg = mdl.ModelConfig(num_verbs=2, num_objects=2, channels=4, stride=4,
                          num_points=9, input_size=32)
    net = mdl.GGNet(cfg, seed=3)
    rng = np.random.default_rng(0)
    images = Tensor.from_array(rng.uniform(0, 1, (1, 3, 32, 32)).astype(np.float32),
                               requires_grad=False)
    mask = rng.uniform(0.0, 0.9, (1, 2, 8, 8))
    w = net.params["glance_trunk"].weight

    def glance_loss():
        feat, heat = mdl.glance_step(net, mdl.toy_backbone(net, images))
        return losses.hna_loss(heat, mask, 3)

    net.zero_grads()
    with tape() as tp:
        tp.backward(glance_loss())
    g_alone = w.grad.copy()

    net.zero_grads()
    with tape() as tp:
        # constants participate in no recorded op, so only the aux term
        # reaches the glance weight
        total = losses.total_loss(Tensor((1, 1, 1, 1), [0.7]),
                                  aux_interactions=[glance_loss()],
                                  matching=Tensor((1, 1, 1, 1), [0.4]),
                                  detection=Tensor((1, 1, 1, 1), [1.3]),
                                  lambda_aux=0.1)
        tp.backward(total)
    np.testing.assert_allclose(w.grad, 0.1 * g_alone, rtol=1e-4, atol=1e-7)
