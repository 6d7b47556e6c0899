"""Model configuration, head wiring, degeneration identity, checkpoints."""

import math

import numpy as np
import pytest

from ggnet import model as mdl, ops, tensor
from ggnet.model import (
    ActPointField,
    ForwardOutputs,
    GGNet,
    ModelConfig,
    forward_infer,
    forward_train,
)
from ggnet.tensor import ConfigError, ShapeError, Tensor


def _cfg(**kw):
    base = dict(num_verbs=3, num_objects=4, channels=8, stride=4,
                num_points=9, input_size=32)
    base.update(kw)
    return ModelConfig(**base)


def _images(rng, batch=1, size=32):
    return Tensor.from_array(rng.uniform(0, 1, (batch, 3, size, size)).astype(np.float32),
                             requires_grad=False)


# ===== configuration =====

def test_config_validates_num_points():
    for bad in (16, 15, 4, 0):  # even square, non-square, even square, empty
        with pytest.raises(ConfigError):
            _cfg(num_points=bad)
    for ok in (1, 9, 25, 49):
        assert _cfg(num_points=ok).point_kernel == math.isqrt(ok)


def test_config_validates_stride_and_size():
    with pytest.raises(ConfigError):
        _cfg(stride=3)
    with pytest.raises(ConfigError):
        _cfg(stride=0)
    with pytest.raises(ConfigError):
        _cfg(input_size=30)
    assert _cfg(stride=8, input_size=64).feat_size == 8


def test_config_gaze2_requires_gaze1():
    with pytest.raises(ConfigError):
        _cfg(use_gaze1=False, use_gaze2=True)
    cfg = _cfg(use_gaze1=False, use_gaze2=False)
    assert not cfg.use_gaze2


def test_act_point_field_pairing():
    off = Tensor((1, 18, 4, 4))
    wts = Tensor((1, 9, 4, 4))
    field = ActPointField(off, wts)
    assert field.taps == 9
    with pytest.raises(ShapeError):
        ActPointField(Tensor((1, 17, 4, 4)), wts)
    with pytest.raises(ShapeError):
        ActPointField(off, Tensor((1, 9, 5, 4)))


# ===== parameters =====

def test_param_set_tracks_enabled_heads():
    full = GGNet(_cfg())
    names = set(full.params)
    assert {"gaze1_points", "gaze1_agg", "gaze1_cls",
            "gaze2_points", "gaze2_agg", "gaze2_cls", "gaze2_context_agg"} <= names
    glance_only = GGNet(_cfg(use_gaze1=False, use_gaze2=False))
    assert not any(n.startswith("gaze") for n in glance_only.params)


def test_classifier_bias_gives_low_initial_probability():
    net = GGNet(_cfg())
    rng = np.random.default_rng(0)
    out = forward_train(net, _images(rng))
    for heat in (out.glance_heatmap, out.gaze1_heatmap, out.gaze2_heatmap):
        assert 0.05 < heat.data.mean() < 0.15  # sigmoid(-log 9) ~ 0.1


def test_point_convs_start_at_degenerate_values():
    net = GGNet(_cfg())
    for name in ("gaze1_points", "gaze2_points"):
        p = net.params[name]
        assert np.all(p.weight.data == 0.0)
        bias = p.bias.data.reshape(-1)
        taps = net.config.num_points
        assert np.all(bias[:2 * taps] == 0.0)  # offsets
        assert np.all(bias[2 * taps:] == 1.0)  # aggregation weights


# ===== forward pass =====

def test_forward_shapes_full_config():
    cfg = _cfg()
    net = GGNet(cfg)
    rng = np.random.default_rng(1)
    out = forward_train(net, _images(rng, batch=2))
    f = cfg.feat_size
    assert out.glance_heatmap.shape == (2, 3, f, f)
    assert out.gaze1_heatmap.shape == (2, 3, f, f)
    assert out.gaze2_heatmap.shape == (2, 3, f, f)
    assert out.points_coarse.offsets.shape == (2, 18, f, f)
    assert out.points_final.weights.shape == (2, 9, f, f)
    assert out.match_offsets.shape == (2, 12, f, f)
    assert out.det_center.shape == (2, 5, f, f)
    assert out.det_wh.shape == (2, 2, f, f)
    assert out.det_reg.shape == (2, 2, f, f)
    assert out.interaction_map is out.gaze2_heatmap


def test_interaction_map_picks_deepest_enabled_head():
    rng = np.random.default_rng(2)
    net1 = GGNet(_cfg(use_gaze2=False))
    out1 = forward_train(net1, _images(rng))
    assert out1.gaze2_heatmap is None
    assert out1.interaction_map is out1.gaze1_heatmap
    net0 = GGNet(_cfg(use_gaze1=False, use_gaze2=False))
    out0 = forward_train(net0, _images(rng))
    assert out0.interaction_map is out0.glance_heatmap


def test_apm_disabled_collapses_to_single_group():
    rng = np.random.default_rng(3)
    net = GGNet(_cfg(use_apm=False))
    out = forward_train(net, _images(rng))
    assert out.match_offsets.shape[1] == 4


def test_backbone_validates_input():
    net = GGNet(_cfg())
    with pytest.raises(ShapeError):
        mdl.toy_backbone(net, Tensor((1, 4, 32, 32)))
    with pytest.raises(ConfigError):
        mdl.toy_backbone(net, Tensor((1, 3, 30, 30)))


# ===== degeneration identity =====

def test_initial_gaze_steps_degenerate_to_plain_convs():
    """With zeroed offset branches and unit weights (the init state), each
    deformable aggregation equals its plain odd-kernel convolution bitwise."""
    cfg = _cfg(num_points=25, channels=8)
    net = GGNet(cfg, seed=7)
    rng = np.random.default_rng(4)
    out = forward_train(net, _images(rng))

    assert np.all(out.points_coarse.offsets.data == 0.0)
    assert np.all(out.points_coarse.weights.data == 1.0)
    assert np.all(out.points_final.offsets.data == 0.0)
    assert np.all(out.points_final.weights.data == 1.0)

    plain1 = ops.conv2d(out.glance_feat, net.params["gaze1_agg"])
    assert np.array_equal(out.gaze1_feat.data, plain1.data)
    plain2 = ops.conv2d(out.gaze1_feat, net.params["gaze2_agg"])
    assert np.array_equal(out.gaze2_feat.data, plain2.data)


def test_trained_style_offsets_break_degeneration():
    cfg = _cfg()
    net = GGNet(cfg, seed=8)
    rng = np.random.default_rng(5)
    # knock the point conv off its zero init
    net.params["gaze1_points"].weight.data[...] = rng.normal(
        0, 0.5, net.params["gaze1_points"].weight.shape).astype(np.float32)
    out = forward_train(net, _images(rng))
    plain = ops.conv2d(out.glance_feat, net.params["gaze1_agg"])
    assert not np.array_equal(out.gaze1_feat.data, plain.data)


# ===== inference graph =====

def test_forward_infer_matches_train_bitwise_with_fewer_convs():
    cfg = _cfg()
    net = GGNet(cfg, seed=9)
    rng = np.random.default_rng(6)
    images = _images(rng, batch=2)

    ops.op_counts.clear()
    train_out = forward_train(net, images)
    train_counts = dict(ops.op_counts)
    ops.op_counts.clear()
    infer_out = forward_infer(net, images)
    infer_counts = dict(ops.op_counts)

    assert infer_out.glance_heatmap is None
    assert infer_out.gaze1_heatmap is None
    pairs = [
        (train_out.backbone_feat, infer_out.backbone_feat),
        (train_out.glance_feat, infer_out.glance_feat),
        (train_out.gaze1_feat, infer_out.gaze1_feat),
        (train_out.gaze2_feat, infer_out.gaze2_feat),
        (train_out.gaze2_heatmap, infer_out.gaze2_heatmap),
        (train_out.points_final.offsets, infer_out.points_final.offsets),
        (train_out.match_offsets, infer_out.match_offsets),
        (train_out.det_center, infer_out.det_center),
        (train_out.det_wh, infer_out.det_wh),
        (train_out.det_reg, infer_out.det_reg),
    ]
    for t_train, t_infer in pairs:
        assert np.array_equal(t_train.data, t_infer.data)
    assert infer_counts["conv2d"] < train_counts["conv2d"]
    assert infer_counts["deform_aggregate"] == train_counts["deform_aggregate"]


def test_forward_infer_keeps_deepest_head_when_shallower_model():
    net = GGNet(_cfg(use_gaze1=False, use_gaze2=False))
    rng = np.random.default_rng(7)
    out = forward_infer(net, _images(rng))
    assert out.glance_heatmap is not None  # it IS the deepest head here


# ===== checkpoints =====

def test_save_load_roundtrip_bitwise(tmp_path):
    cfg = _cfg()
    net = GGNet(cfg, seed=11)
    path = tmp_path / "model.ckpt"
    net.save(path)
    # the config rides in the manifest's header: no sidecar beside the pair
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt", "model.ckpt.manifest"]
    back = GGNet.load(path)
    assert back.config == cfg
    orig = dict(net.named_tensors())
    for name, t in back.named_tensors():
        assert np.array_equal(t.data, orig[name].data), name


def test_load_rejects_missing_and_extra_tensors(tmp_path):
    net = GGNet(_cfg(), seed=12)
    path = tmp_path / "model.ckpt"
    net.save(path)
    manifest = tmp_path / "model.ckpt.manifest"
    lines = manifest.read_text().strip().splitlines()
    first = lines.index("") + 1
    manifest.write_text("\n".join(lines[:first] + lines[first + 1:]) + "\n")  # drop one tensor
    with pytest.raises(ConfigError, match="missing"):
        GGNet.load(path)


def test_load_rejects_config_model_shape_mismatch(tmp_path):
    net = GGNet(_cfg(channels=8), seed=13)
    path = tmp_path / "model.ckpt"
    net.save(path)
    # rewrite the manifest's config header with a different width; stored
    # records no longer fit the rebuilt model
    manifest = tmp_path / "model.ckpt.manifest"
    manifest.write_text(manifest.read_text().replace("channels = 8", "channels = 16"))
    with pytest.raises(ShapeError):
        GGNet.load(path)


@pytest.mark.parametrize("old,new,why", [
    ("channels = 8", "channels = four", "key 'channels': bad value 'four'"),
    ("channels = 8", "chanels = 8", "unknown config keys: chanels"),
    ("num_points = 9", "num_points = 4", "num_points=4 must be an odd perfect square"),
])
def test_load_names_the_manifest_of_a_bad_config_header(tmp_path, old, new, why):
    path = tmp_path / "model.ckpt"
    GGNet(_cfg(), seed=15).save(path)
    manifest = tmp_path / "model.ckpt.manifest"
    manifest.write_text(manifest.read_text().replace(old, new))
    with pytest.raises(ConfigError) as err:
        GGNet.load(path)
    assert str(err.value).startswith(f"{manifest}: ") and why in str(err.value)


def test_save_that_fails_partway_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    GGNet(_cfg(), seed=14).save(path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_write, written = tensor.write_tensor, []

    def write_then_fail(f, t):
        if len(written) == 3:
            raise OSError("disk full")
        written.append(t)
        real_write(f, t)

    monkeypatch.setattr(tensor, "write_tensor", write_then_fail)
    with pytest.raises(OSError, match="disk full"):
        GGNet(_cfg(), seed=15).save(path)
    monkeypatch.undo()
    # same two files, same bytes: no torn record and no temporary left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    orig = dict(GGNet(_cfg(), seed=14).named_tensors())
    for name, t in GGNet.load(path).named_tensors():
        assert np.array_equal(t.data, orig[name].data), name
