"""Interaction-detector forward graph: parameters, heads, checkpoints.

A small strided backbone feeds three increasingly focused interaction
classifiers — a dense per-pixel glance pass, then two gaze refinements that
each regress per-pixel sampling offsets/weights and aggregate features
deformably — plus a point->center matching head and a center/size/sub-pixel
detection head. Inference mode skips the shallower classifier convolutions;
everything else is bitwise-identical to training mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ops
from .configio import dataclass_from_kv, dataclass_to_kv, format_kv, parse_kv_text
from .ops import ConvParams
from .tensor import ConfigError, ShapeError, Tensor, load_checkpoint, save_checkpoint

# Classifier-conv bias start; keeps initial heatmaps near 0.1 so the focal
# background term does not swamp early steps.
_CLS_BIAS = -math.log(9.0)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs; the dataset supplies num_verbs/num_objects."""

    num_verbs: int
    num_objects: int
    channels: int = 16
    stride: int = 4
    num_points: int = 25
    input_size: int = 64
    use_gaze1: bool = True
    use_gaze2: bool = True
    use_apm: bool = True

    def __post_init__(self):
        if self.num_verbs < 1 or self.num_objects < 1:
            raise ConfigError("need at least one verb and one object class")
        if self.channels < 1:
            raise ConfigError("channels must be positive")
        side = math.isqrt(self.num_points)
        if side * side != self.num_points or side % 2 == 0:
            # the tap grid doubles as a same-size conv kernel, so its side
            # must be odd
            raise ConfigError(f"num_points={self.num_points} must be an odd perfect square")
        if self.stride < 1 or (self.stride & (self.stride - 1)) != 0:
            raise ConfigError(f"stride {self.stride} must be a power of two")
        if self.input_size % self.stride != 0:
            raise ConfigError(f"input size {self.input_size} not divisible by stride {self.stride}")
        if self.use_gaze2 and not self.use_gaze1:
            raise ConfigError("the second gaze step needs the first one enabled")

    @property
    def point_kernel(self) -> int:
        return math.isqrt(self.num_points)

    @property
    def feat_size(self) -> int:
        return self.input_size // self.stride


@dataclass
class ActPointField:
    """Per-pixel deformable sampling pattern for one gaze step.

    offsets: (batch, 2*taps, h, w), interleaved (dx, dy) per tap, in
    feature-map pixels relative to the regular tap grid. weights: (batch,
    taps, h, w), raw (no activation).
    """

    offsets: Tensor
    weights: Tensor

    def __post_init__(self):
        ob, oc, oh, ow = self.offsets.shape
        wb, wc, wh, ww = self.weights.shape
        if (ob, oh, ow) != (wb, wh, ww) or oc != 2 * wc:
            raise ShapeError(f"offsets {self.offsets.shape} do not pair with weights {self.weights.shape}")

    @property
    def taps(self) -> int:
        return self.weights.shape[1]


@dataclass
class ForwardOutputs:
    """Everything one forward pass produces; pruned fields are None."""

    backbone_feat: Tensor
    glance_feat: Tensor
    glance_heatmap: Tensor | None
    points_coarse: ActPointField | None
    gaze1_feat: Tensor | None
    gaze1_heatmap: Tensor | None
    gaze2_context: Tensor | None
    points_final: ActPointField | None
    gaze2_feat: Tensor | None
    gaze2_heatmap: Tensor | None
    match_offsets: Tensor
    match_groups: int
    det_center: Tensor
    det_wh: Tensor
    det_reg: Tensor

    @property
    def interaction_map(self) -> Tensor:
        """Deepest interaction heatmap that was computed."""
        for heat in (self.gaze2_heatmap, self.gaze1_heatmap, self.glance_heatmap):
            if heat is not None:
                return heat
        raise ValueError("forward pass produced no interaction heatmap")


class GGNet:
    """Parameter store plus the head functions below."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, ConvParams] = {}
        rng = np.random.default_rng(seed)

        def make(name, cin, cout, ksize, stride=1, mode="kaiming", bias=None):
            if mode == "kaiming":
                std = math.sqrt(2.0 / (cin * ksize * ksize))
                w = rng.normal(0.0, std, (cout, cin, ksize, ksize))
            elif mode == "head":
                w = rng.normal(0.0, 0.01, (cout, cin, ksize, ksize))
            elif mode == "zero":
                w = np.zeros((cout, cin, ksize, ksize))
            else:
                raise ValueError(mode)
            bvec = np.zeros(cout, np.float32) if bias is None else np.asarray(bias, np.float32)
            weight = Tensor((cout, cin, ksize, ksize), w.astype(np.float32))
            self.params[name] = ConvParams(weight, bvec, stride=stride, padding=ksize // 2)

        ch = config.channels
        kk = config.point_kernel
        taps = config.num_points
        verbs = config.num_verbs
        cls_bias = np.full(verbs, _CLS_BIAS, np.float32)
        # tap-conv init: zero weights, offset biases 0, weight biases 1, so
        # the gaze pipeline starts exactly at its plain-conv degeneration
        point_bias = np.zeros(3 * taps, np.float32)
        point_bias[2 * taps:] = 1.0

        cin = 3
        for i in range(config.stride.bit_length() - 1):
            make(f"backbone{i}", cin, ch, 3, stride=2)
            cin = ch
        make("glance_trunk", ch, ch, 3)
        make("glance_cls", ch, verbs, 1, mode="head", bias=cls_bias)
        if config.use_gaze1:
            make("gaze1_points", ch, 3 * taps, kk, mode="zero", bias=point_bias)
            make("gaze1_agg", ch, ch, kk)
            make("gaze1_cls", ch, verbs, 1, mode="head", bias=cls_bias)
        if config.use_gaze2:
            make("gaze2_context_agg", ch, ch, kk)
            make("gaze2_points", ch, 3 * taps, kk, mode="zero", bias=point_bias.copy())
            make("gaze2_agg", ch, ch, kk)
            make("gaze2_cls", ch, verbs, 1, mode="head", bias=cls_bias)
        make("apm_trunk", ch, ch, 3)
        make("apm_out", ch, 4 * verbs, 1, mode="head")
        make("det_center_trunk", ch, ch, 3)
        make("det_center_out", ch, 1 + config.num_objects, 1, mode="head",
             bias=np.full(1 + config.num_objects, _CLS_BIAS, np.float32))
        make("det_wh_trunk", ch, ch, 3)
        make("det_wh_out", ch, 2, 1, mode="head")
        make("det_reg_trunk", ch, ch, 3)
        make("det_reg_out", ch, 2, 1, mode="head")

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, p in self.params.items():
            out.append((f"{name}.weight", p.weight))
            out.append((f"{name}.bias", p.bias))
        return out

    def zero_grads(self) -> None:
        for _, t in self.named_tensors():
            t.zero_grad()

    def save(self, path) -> None:
        save_checkpoint(path, self.named_tensors(), format_kv(dataclass_to_kv(self.config)))

    @classmethod
    def load(cls, path) -> "GGNet":
        header, stored = load_checkpoint(path)
        try:
            config = dataclass_from_kv(ModelConfig, parse_kv_text(header))
        except ConfigError as exc:
            raise ConfigError(f"{path}.manifest: {exc}") from None
        model = cls(config, seed=0)
        expected = dict(model.named_tensors())
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        if missing or extra:
            raise ConfigError(f"checkpoint mismatch: missing {missing}, unexpected {extra}")
        for name, t in expected.items():
            src = stored[name]
            if src.shape != t.shape:
                raise ShapeError(f"{name}: checkpoint shape {src.shape} != model shape {t.shape}")
            t.data[...] = src.data
        return model


def _conv_block(model: GGNet, x: Tensor, name: str) -> Tensor:
    return ops.relu(ops.conv2d(x, model.params[name]))


def toy_backbone(model: GGNet, images: Tensor) -> Tensor:
    """Stack of stride-2 conv+relu blocks taking 3-channel input down to the
    feature stride."""
    _, c, h, w = images.shape
    if c != 3:
        raise ShapeError(f"expected 3-channel images, got {c}")
    stride = model.config.stride
    if h % stride or w % stride:
        raise ConfigError(f"image {h}x{w} not divisible by stride {stride}")
    x = images
    for i in range(stride.bit_length() - 1):
        x = _conv_block(model, x, f"backbone{i}")
    return x


def glance_step(model: GGNet, backbone_feat: Tensor, classify: bool = True):
    """Dense per-pixel interaction screening; its trunk feature feeds both
    gaze steps and the matching head."""
    feat = _conv_block(model, backbone_feat, "glance_trunk")
    heat = None
    if classify:
        heat = ops.sigmoid(ops.conv2d(feat, model.params["glance_cls"]))
    return feat, heat


def _split_points(raw: Tensor, taps: int) -> ActPointField:
    offsets = ops.slice_channels(raw, 0, 2 * taps)
    weights = ops.slice_channels(raw, 2 * taps, 3 * taps)
    return ActPointField(offsets, weights)


def gaze_step1(model: GGNet, glance_feat: Tensor, classify: bool = True):
    """Coarse sampling-point regression + first deformable aggregation."""
    taps = model.config.num_points
    raw = ops.conv2d(glance_feat, model.params["gaze1_points"])
    points = _split_points(raw, taps)
    feat = ops.deform_aggregate(glance_feat, points.offsets, points.weights,
                                model.params["gaze1_agg"])
    heat = None
    if classify:
        heat = ops.sigmoid(ops.conv2d(feat, model.params["gaze1_cls"]))
    return points, feat, heat


def gaze_step2(model: GGNet, gaze1_feat: Tensor, points_coarse: ActPointField,
               classify: bool = True):
    """Residual refinement of the coarse points + second aggregation.

    Shares no parameters with the first gaze step. The residual conv reads a
    context feature aggregated from gaze1_feat at the coarse points; final
    offsets are coarse + residual.
    """
    taps = model.config.num_points
    context = ops.deform_aggregate(gaze1_feat, points_coarse.offsets, points_coarse.weights,
                                   model.params["gaze2_context_agg"])
    raw = ops.conv2d(context, model.params["gaze2_points"])
    residual = _split_points(raw, taps)
    points = ActPointField(ops.add(points_coarse.offsets, residual.offsets), residual.weights)
    feat = ops.deform_aggregate(gaze1_feat, points.offsets, points.weights,
                                model.params["gaze2_agg"])
    heat = None
    if classify:
        heat = ops.sigmoid(ops.conv2d(feat, model.params["gaze2_cls"]))
    return points, context, feat, heat


def apm_head(model: GGNet, glance_feat: Tensor) -> tuple[Tensor, int]:
    """Point->center offset regressors: 4 channels per verb in layout
    (human dx, human dy, object dx, object dy), measured interaction point
    minus entity center, in feature-map pixels.

    With use_apm off the per-verb regressors are averaged into one shared
    4-channel group; returns (offset map, group count).
    """
    x = _conv_block(model, glance_feat, "apm_trunk")
    offsets = ops.conv2d(x, model.params["apm_out"])
    if model.config.use_apm:
        return offsets, model.config.num_verbs
    return ops.group_mean_channels(offsets, model.config.num_verbs), 1


def detection_head(model: GGNet, backbone_feat: Tensor):
    """Three parallel conv3x3+relu -> conv1x1 branches: center heatmaps
    (1 human + object classes, sigmoid), box sizes, sub-pixel offsets."""
    center = ops.sigmoid(ops.conv2d(_conv_block(model, backbone_feat, "det_center_trunk"),
                                    model.params["det_center_out"]))
    wh = ops.conv2d(_conv_block(model, backbone_feat, "det_wh_trunk"),
                    model.params["det_wh_out"])
    reg = ops.conv2d(_conv_block(model, backbone_feat, "det_reg_trunk"),
                     model.params["det_reg_out"])
    return center, wh, reg


def _forward(model: GGNet, images: Tensor, train_mode: bool) -> ForwardOutputs:
    cfg = model.config
    backbone_feat = toy_backbone(model, images)
    if cfg.use_gaze2:
        deepest = "gaze2"
    elif cfg.use_gaze1:
        deepest = "gaze1"
    else:
        deepest = "glance"
    glance_feat, glance_heat = glance_step(model, backbone_feat,
                                           classify=train_mode or deepest == "glance")
    points1 = gaze1_feat = gaze1_heat = None
    points2 = context = gaze2_feat = gaze2_heat = None
    if cfg.use_gaze1:
        points1, gaze1_feat, gaze1_heat = gaze_step1(
            model, glance_feat, classify=train_mode or deepest == "gaze1")
    if cfg.use_gaze2:
        points2, context, gaze2_feat, gaze2_heat = gaze_step2(model, gaze1_feat, points1)
    match_offsets, match_groups = apm_head(model, glance_feat)
    det_center, det_wh, det_reg = detection_head(model, backbone_feat)
    return ForwardOutputs(
        backbone_feat=backbone_feat,
        glance_feat=glance_feat,
        glance_heatmap=glance_heat,
        points_coarse=points1,
        gaze1_feat=gaze1_feat,
        gaze1_heatmap=gaze1_heat,
        gaze2_context=context,
        points_final=points2,
        gaze2_feat=gaze2_feat,
        gaze2_heatmap=gaze2_heat,
        match_offsets=match_offsets,
        match_groups=match_groups,
        det_center=det_center,
        det_wh=det_wh,
        det_reg=det_reg,
    )


def forward_train(model: GGNet, images: Tensor) -> ForwardOutputs:
    """Forward pass with every enabled classifier computed (for losses)."""
    return _forward(model, images, train_mode=True)


def forward_infer(model: GGNet, images: Tensor) -> ForwardOutputs:
    """Forward pass for decoding: skips the classifier convs of all but the
    deepest enabled interaction head; shared outputs match forward_train
    bitwise."""
    return _forward(model, images, train_mode=False)
