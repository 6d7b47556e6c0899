"""Supervision construction and loss terms.

The interaction heatmaps train against signed Gaussian masks: +1 Gaussians at
annotated interaction points, -1 Gaussians at inferred hard negatives (other
meaningful verbs sharing the positive's object class, unless themselves
positive at that point). ``hna_loss`` consumes the signed mask; with a
nonnegative mask it reduces to the standard penalty-reduced focal loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import combine_scalars, slice_channels
from .tensor import ShapeError, Tensor, on_tape


class DataError(ValueError):
    """Dataset content is invalid: an annotation inconsistent with the
    category table or its split, or an image with non-finite pixels."""


Box = tuple[float, float, float, float]


def box_center(box: Box) -> tuple[float, float]:
    return (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0


def check_box(box: Box) -> None:
    """Reject a box unless its corners are finite with x2 > x1 and y2 > y1.
    A NaN corner fails every comparison, so it is rejected too."""
    x1, y1, x2, y2 = box
    if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
        raise DataError(f"box {box} needs finite corners with x2 > x1 and y2 > y1")


@dataclass(frozen=True)
class HoiCategoryTable:
    """Verb/object vocabulary: which pairs occur at all, and which are rare."""

    num_verbs: int
    num_objects: int
    meaningful: frozenset
    rare: frozenset

    def __post_init__(self):
        if not self.rare <= self.meaningful:
            raise DataError("rare categories must be a subset of meaningful ones")
        for v, o in self.meaningful:
            if not (0 <= v < self.num_verbs and 0 <= o < self.num_objects):
                raise DataError(f"pair ({v},{o}) outside {self.num_verbs}x{self.num_objects}")


def save_table(path, table: HoiCategoryTable) -> None:
    lines = [f"verbs {table.num_verbs}", f"objects {table.num_objects}"]
    for v, o in sorted(table.meaningful):
        flag = "rare" if (v, o) in table.rare else "common"
        lines.append(f"pair {v} {o} {flag}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_table(path) -> HoiCategoryTable:
    """Read ``save_table``'s format; any other line is a DataError quoting it."""
    header = {}
    meaningful = set()
    rare = set()
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            key, fields = parts[0], parts[1:]
            try:
                if key in ("verbs", "objects") and len(fields) == 1:
                    header[key] = int(fields[0])
                elif key == "pair" and len(fields) == 3 and fields[2] in ("rare", "common"):
                    v, o = int(fields[0]), int(fields[1])
                    meaningful.add((v, o))
                    if fields[2] == "rare":
                        rare.add((v, o))
                else:
                    raise ValueError
            except ValueError:
                raise DataError(f"{path} line {ln}: malformed table line {line.strip()!r}: "
                                "want 'verbs N', 'objects N' or 'pair V O rare|common'") from None
    if len(header) != 2:
        raise DataError(f"{path}: table file missing verbs/objects header")
    return HoiCategoryTable(header["verbs"], header["objects"], frozenset(meaningful),
                            frozenset(rare))


@dataclass(frozen=True)
class HoiAnnotation:
    """One <human, verb, object> instance; boxes in input-image pixels."""

    human_box: Box
    object_box: Box
    verb: int
    object_class: int

    def __post_init__(self):
        check_box(self.human_box)
        check_box(self.object_box)
        if self.verb < 0 or self.object_class < 0:
            raise DataError(f"verb {self.verb} and object class {self.object_class} "
                            "must be nonnegative")

    def interaction_point(self, stride: int) -> tuple[float, float]:
        """Midpoint of the two box centers, on the stride-d feature map."""
        hx, hy = box_center(self.human_box)
        ox, oy = box_center(self.object_box)
        return (hx + ox) / 2.0 / stride, (hy + oy) / 2.0 / stride


def format_annotation(image_id: str, a: HoiAnnotation) -> str:
    nums = [*a.human_box, *a.object_box]
    return " ".join([image_id, str(a.verb), str(a.object_class)] + [str(float(v)) for v in nums])


def parse_annotation_line(line: str) -> tuple[str, HoiAnnotation]:
    parts = line.split()
    if len(parts) != 11:
        raise DataError(f"annotation line needs 11 fields, got {len(parts)}: {line!r}")
    image_id = parts[0]
    try:
        verb, cls = int(parts[1]), int(parts[2])
        vals = [float(v) for v in parts[3:]]
        return image_id, HoiAnnotation(tuple(vals[0:4]), tuple(vals[4:8]), verb, cls)
    except ValueError as exc:
        raise DataError(f"bad annotation line {line!r}: {exc}") from None


def parse_annotations(lines) -> dict:
    """Group annotation lines by image id, preserving order; a bad line is a
    DataError that begins ``line <n>: ``."""
    out: dict[str, list[HoiAnnotation]] = {}
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            image_id, a = parse_annotation_line(line)
        except DataError as exc:
            raise DataError(f"line {ln}: {exc}") from None
        out.setdefault(image_id, []).append(a)
    return out


# ===== Gaussian mask construction =====

def gaussian_radius(box_w: float, box_h: float, min_overlap: float = 0.7) -> float:
    """Largest center shift keeping IoU >= min_overlap, three-case quadratic."""
    w, h = float(box_w), float(box_h)
    o = float(min_overlap)

    b1 = h + w
    c1 = w * h * (1 - o) / (1 + o)
    r1 = (b1 - math.sqrt(b1 * b1 - 4 * c1)) / 2

    a2 = 4.0
    b2 = 2 * (h + w)
    c2 = (1 - o) * w * h
    r2 = (b2 - math.sqrt(b2 * b2 - 4 * a2 * c2)) / (2 * a2)

    a3 = 4.0 * o
    b3 = -2 * o * (h + w)
    c3 = (o - 1) * w * h
    r3 = (-b3 + math.sqrt(b3 * b3 - 4 * a3 * c3)) / (2 * a3)

    return max(0.0, min(r1, r2, r3))


def splat_gaussian(mask: np.ndarray, center, radius: float, sign: int, channel: int) -> None:
    """Stamp sign * exp(-(dx^2+dy^2) / (2 sigma^2)) onto mask[channel] in place.

    Positives max-combine with what is there; negatives min-combine but never
    touch a pixel whose current value is > 0 (positive precedence).
    """
    _, h, w = mask.shape
    cx, cy = int(center[0]), int(center[1])
    if not (0 <= cx < w and 0 <= cy < h):
        raise ValueError(f"splat center ({cx},{cy}) outside {w}x{h} map")
    r = int(radius)
    sigma = (2.0 * radius + 1.0) / 6.0
    x0, x1 = max(0, cx - r), min(w, cx + r + 1)
    y0, y1 = max(0, cy - r), min(h, cy + r + 1)
    ys, xs = np.ogrid[y0 - cy:y1 - cy, x0 - cx:x1 - cx]
    g = np.exp(-(xs * xs + ys * ys) / (2.0 * sigma * sigma)).astype(np.float32)
    region = mask[channel, y0:y1, x0:x1]
    if sign > 0:
        np.maximum(region, g, out=region)
    else:
        mask[channel, y0:y1, x0:x1] = np.where(region > 0, region, np.minimum(region, -g))


def _union_radius(a: HoiAnnotation, stride: int) -> float:
    # Radius from the union extent of the pair's two boxes, on the feature map.
    x1 = min(a.human_box[0], a.object_box[0])
    y1 = min(a.human_box[1], a.object_box[1])
    x2 = max(a.human_box[2], a.object_box[2])
    y2 = max(a.human_box[3], a.object_box[3])
    return gaussian_radius((x2 - x1) / stride, (y2 - y1) / stride)


def _splat_pixel(point, h, w) -> tuple[int, int]:
    px = min(max(int(point[0]), 0), w - 1)
    py = min(max(int(point[1]), 0), h - 1)
    return px, py


def build_mask(annotations, table: HoiCategoryTable, shape, stride: int,
               hard_negatives: bool = True) -> np.ndarray:
    """Signed supervision mask (V, H, W) for one image's interaction heatmap.

    With hard_negatives=False only the +1 Gaussians are stamped (plain focal
    training target).
    """
    v_count, h, w = shape
    if v_count != table.num_verbs:
        raise ShapeError(f"mask wants {v_count} verb channels, table has {table.num_verbs}")
    mask = np.zeros(shape, np.float32)
    placed = []
    positives = set()
    for a in annotations:
        if (a.verb, a.object_class) not in table.meaningful:
            raise DataError(f"annotation pair ({a.verb},{a.object_class}) not meaningful")
        px, py = _splat_pixel(a.interaction_point(stride), h, w)
        radius = _union_radius(a, stride)
        placed.append((a, px, py, radius))
        positives.add((a.verb, px, py))
    for a, px, py, radius in placed:
        splat_gaussian(mask, (px, py), radius, +1, a.verb)
    if hard_negatives:
        for a, px, py, radius in placed:
            for vj in range(table.num_verbs):
                if vj == a.verb or (vj, a.object_class) not in table.meaningful:
                    continue
                if (vj, px, py) in positives:
                    continue
                splat_gaussian(mask, (px, py), radius, -1, vj)
    return mask


# ===== Loss terms =====

def hna_loss(pred: Tensor, mask: np.ndarray, num_points: int) -> Tensor:
    """Focal loss over a signed mask; hard negatives (M < 0) weighted (1-M)^beta.

    Per pixel: M = 1 -> (1-P)^alpha log P; M < 0 -> (1-M)^beta P^alpha log(1-P);
    otherwise (1-M)^gamma P^alpha log(1-P). Negated sum / max(num_points, 1).
    alpha = 2 and gamma = 4 are CenterNet's focal exponents and beta = 7 the
    hard-negative exponent; all three are fixed.
    """
    alpha, gamma, beta = 2.0, 4.0, 7.0
    mask = np.asarray(mask, np.float64).reshape(pred.shape)
    p_raw = pred.data.astype(np.float64)
    if p_raw.min() < 0.0 or p_raw.max() > 1.0:
        raise ValueError("predictions must be probabilities in [0, 1]")
    if mask.min() < -1.0 or mask.max() > 1.0:
        raise ValueError("mask values must lie in [-1, 1]")
    p = np.clip(p_raw, 1e-6, 1.0 - 1e-6)
    pos = mask == 1.0
    neg = mask < 0.0
    log_p = np.log(p)
    log_np = np.log1p(-p)
    w_other = np.where(neg, (1.0 - mask) ** beta, (1.0 - mask) ** gamma)
    terms = np.where(pos, (1.0 - p) ** alpha * log_p, w_other * p ** alpha * log_np)
    denom = float(max(num_points, 1))
    out = Tensor.from_scalar(-terms.sum() / denom)

    def backward(g):
        g = float(g.reshape(-1)[0])
        d_pos = -alpha * (1.0 - p) ** (alpha - 1) * log_p + (1.0 - p) ** alpha / p
        d_other = w_other * (alpha * p ** (alpha - 1) * log_np - p ** alpha / (1.0 - p))
        d = np.where(pos, d_pos, d_other)
        pred.add_grad((-g / denom) * d)
    on_tape(out, backward, pred)
    return out


def centernet_focal(pred: Tensor, target: np.ndarray, num_points: int) -> Tensor:
    """Penalty-reduced focal loss; same code path as hna_loss on a sign-free mask."""
    target = np.asarray(target, np.float64)
    if target.min() < 0.0:
        raise ValueError("focal target must be nonnegative")
    return hna_loss(pred, target, num_points)


def matching_loss(offset_map: Tensor, annos_per_image, stride: int) -> Tensor:
    """L1 between predicted and true point->center offsets at interaction points.

    offset_map is (B, 4*groups, H, W) with one group per verb or one shared
    by all verbs; the group count is read off the channels. Each annotation
    is scored on its verb's 4-channel group (group 0 when there is one).
    Targets are (pixel - human center, pixel - object center) in feature-map
    units, measured from the integer pixel the point splats to. Sum of human
    and object parts, normalized by annotation count.
    """
    b, c, h, w = offset_map.shape
    if c % 4:
        raise ShapeError(f"offset map has {c} channels, not a multiple of 4")
    groups = c // 4
    rows = []
    targets = []
    for bi, annos in enumerate(annos_per_image):
        for a in annos:
            if groups > 1 and a.verb >= groups:
                raise DataError(f"verb {a.verb} outside {groups} offset groups")
            grp = a.verb if groups > 1 else 0
            px, py = _splat_pixel(a.interaction_point(stride), h, w)
            hx, hy = box_center(a.human_box)
            ox, oy = box_center(a.object_box)
            rows.append((bi, 4 * grp, py, px))
            targets.append((px - hx / stride, py - hy / stride,
                            px - ox / stride, py - oy / stride))
    return _sparse_l1(offset_map, rows, targets)


def _sparse_l1(pred: Tensor, rows, targets) -> Tensor:
    """L1 at sparse pixels, averaged over rows.

    Each row is (batch, first_channel, y, x) and scores the channels
    first_channel .. first_channel + C - 1 against its (C,) target. Rows may
    repeat a pixel; the backward pass accumulates every repeat.
    """
    count = len(rows)
    if count == 0:
        return Tensor.from_scalar(0.0)
    tgt = np.asarray(targets, np.float64)
    bi, ch, y, x = np.asarray(rows, np.int64).T[:, :, None]
    at = (bi, ch + np.arange(tgt.shape[1]), y, x)
    diff = pred.data[at].astype(np.float64) - tgt
    out = Tensor.from_scalar(np.abs(diff).sum() / count)

    def backward(g):
        g = float(g.reshape(-1)[0])
        s = np.sign(diff) * (g / count)
        np.add.at(pred.ensure_grad(), at, s.astype(np.float32))
    on_tape(out, backward, pred)
    return out


def detection_losses(det_center: Tensor, det_wh: Tensor, det_reg: Tensor,
                     annos_per_image, table: HoiCategoryTable, stride: int):
    """Center focal + size/sub-pixel L1 losses against box ground truth; the
    size L1 is weighted 0.1, the other three terms 1.

    Returns (scalar loss, {"det_center_h", "det_center_o", "det_wh", "det_reg"}).
    """
    b, ch, h, w = det_center.shape
    if ch != 1 + table.num_objects:
        raise ShapeError(f"center map has {ch} channels, expected {1 + table.num_objects}")
    heat = np.zeros((b, ch, h, w), np.float32)
    rows = []
    wh_targets = []
    reg_targets = []
    n_human = 0
    n_object = 0
    for bi, annos in enumerate(annos_per_image):
        seen = set()
        boxes = []
        for a in annos:
            if (a.human_box, 0) not in seen:
                seen.add((a.human_box, 0))
                boxes.append((a.human_box, 0))
            key = (a.object_box, 1 + a.object_class)
            if key not in seen:
                seen.add(key)
                boxes.append(key)
        for box, channel in boxes:
            if channel == 0:
                n_human += 1
            else:
                n_object += 1
            cx, cy = box_center(box)
            cx, cy = cx / stride, cy / stride
            px, py = _splat_pixel((cx, cy), h, w)
            bw = (box[2] - box[0]) / stride
            bh = (box[3] - box[1]) / stride
            radius = gaussian_radius(bw, bh)
            splat_gaussian(heat[bi], (px, py), radius, +1, channel)
            rows.append((bi, 0, py, px))
            wh_targets.append((bw, bh))
            reg_targets.append((cx - px, cy - py))
    loss_h = centernet_focal(slice_channels(det_center, 0, 1), heat[:, 0:1], n_human)
    loss_o = centernet_focal(slice_channels(det_center, 1, ch), heat[:, 1:], n_object)
    loss_wh = _sparse_l1(det_wh, rows, wh_targets)
    loss_reg = _sparse_l1(det_reg, rows, reg_targets)
    total = combine_scalars([(1.0, loss_h), (1.0, loss_o),
                             (0.1, loss_wh), (1.0, loss_reg)])
    parts = {"det_center_h": loss_h.item(), "det_center_o": loss_o.item(),
             "det_wh": loss_wh.item(), "det_reg": loss_reg.item()}
    return total, parts


def total_loss(interaction: Tensor, aux_interactions, matching: Tensor, detection: Tensor,
               lambda_aux: float = 0.1) -> Tensor:
    """Full objective: the deepest interaction head and detection at weight 1;
    each shallower head in ``aux_interactions`` (possibly none) and the
    matching term at lambda_aux."""
    terms = [(1.0, interaction)] + [(lambda_aux, aux) for aux in aux_interactions]
    return combine_scalars(terms + [(lambda_aux, matching), (1.0, detection)])
