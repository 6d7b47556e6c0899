"""Post-processing: peak candidates, point matching, box decoding, triplets.

Decoding takes the deepest interaction heatmap's peaks, pulls the verb's
matching offsets at each peak, snaps human/object center candidates to the
offset targets (cost = L1 distance / candidate score), decodes boxes from the
size/sub-pixel maps, and multiplies the three scores. Per image it builds one
(peaks x humans) and one (peaks x objects) cost matrix; everything after that
is array code over all peaks at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import Box, HoiCategoryTable, check_box
from .model import ForwardOutputs
from .ops import check_index, maxpool_nms, topk
from .tensor import Tensor


# Running tally of interaction peaks that assemble_triplets drops, each under
# the first reason that applies, in this order.
DROP_REASONS = ("empty_pool", "degenerate_box", "table_filter")
drop_counts: dict[str, int] = {}


def reset_drop_counts() -> None:
    drop_counts.clear()


def _drop(reason: str, n) -> None:
    if n:
        drop_counts[reason] = drop_counts.get(reason, 0) + int(n)


@dataclass(frozen=True)
class HoiTriplet:
    human_box: Box
    object_box: Box
    verb: int
    object_class: int
    score: float


def select_candidates(heatmap: Tensor, k: int = 100, batch: int = 0) -> np.ndarray:
    """Peak-isolate one image with a 3x3 max filter, then take its k best
    pixels across all channels as ``topk`` rows (score, channel, y, x).
    Suppressed (zeroed) pixels never become candidates."""
    check_index("batch", batch, heatmap.shape[0])
    rows = topk(maxpool_nms(Tensor.from_array(heatmap.data[batch][None])), k)
    return rows[rows[:, 0] > 0.0]


def _nearest(tx: np.ndarray, ty: np.ndarray, pool: np.ndarray, norm: str) -> np.ndarray:
    """Per target, the index of the pool row minimizing distance over score.
    The pool is in selection order (descending score, then ascending index),
    so argmin's first minimum breaks a cost tie toward the higher score, then
    the earlier row."""
    score, _, y, x = pool.T
    dx = np.abs(tx[:, None] - x)
    dy = np.abs(ty[:, None] - y)
    if norm == "l1":
        dist = dx + dy
    elif norm == "l2":
        dist = np.sqrt(dx * dx + dy * dy)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    return np.argmin(dist / score, axis=1)


def _decode_boxes(x: np.ndarray, y: np.ndarray, wh: np.ndarray, reg: np.ndarray,
                  stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Center pixels of one image -> (n, 4) input-image-pixel boxes, clamped to
    the image bounds, and a mask that is False for degenerate (nonpositive-size)
    boxes. ``wh`` and ``reg`` are that image's (2, h, w) size and sub-pixel maps."""
    _, fh, fw = wh.shape
    xi, yi = x.astype(np.intp), y.astype(np.intp)
    bw, bh = wh[:, yi, xi].astype(np.float64)
    cx = x + reg[0, yi, xi].astype(np.float64)
    cy = y + reg[1, yi, xi].astype(np.float64)
    boxes = np.stack([cx - bw / 2.0, cy - bh / 2.0, cx + bw / 2.0, cy + bh / 2.0], axis=1)
    bounds = np.array([fw, fh, fw, fh], np.float64) * stride
    boxes = np.clip(boxes * stride, 0.0, bounds)
    # NaN sizes and corners compare False here, so they pass as they always did.
    bad = (bw <= 0.0) | (bh <= 0.0) | (boxes[:, 2] <= boxes[:, 0]) | (boxes[:, 3] <= boxes[:, 1])
    return boxes, ~bad


def _meaningful(table: HoiCategoryTable, verbs: int, objects: int) -> np.ndarray:
    """Boolean (verb, object) lookup of the table's meaningful pairs, large
    enough for both the table and the heatmaps' channel counts."""
    lut = np.zeros((max(table.num_verbs, verbs), max(table.num_objects, objects)), bool)
    for v, o in table.meaningful:
        lut[v, o] = True
    return lut


def assemble_triplets(outputs: ForwardOutputs, stride: int, k: int = 100,
                      table: HoiCategoryTable | None = None,
                      batch: int = 0) -> list[HoiTriplet]:
    """Full decode for one image of a forward_infer pass; at most k triplets,
    sorted by descending combined score (stable). Passing a category table
    drops pairs outside its meaningful set. Every peak that yields no triplet
    is counted in ``drop_counts``."""
    check_index("batch", batch, outputs.det_center.shape[0])
    det = outputs.det_center.data[batch][None]
    interactions = select_candidates(outputs.interaction_map, k, batch=batch)
    humans = select_candidates(Tensor.from_array(det[:, :1]), k)
    objects = select_candidates(Tensor.from_array(det[:, 1:]), k)
    if len(interactions) == 0 or len(humans) == 0 or len(objects) == 0:
        _drop("empty_pool", len(interactions))
        return []
    ip_score, verb, y, x = interactions.T
    verb = verb.astype(np.intp)
    grp = verb if outputs.match_offsets.shape[1] > 4 else np.zeros_like(verb)
    rows = 4 * grp[:, None] + np.arange(4)
    off = outputs.match_offsets.data[batch][rows, y.astype(np.intp)[:, None],
                                            x.astype(np.intp)[:, None]].astype(np.float64)
    hum = humans[_nearest(x - off[:, 0], y - off[:, 1], humans, "l1")]
    obj = objects[_nearest(x - off[:, 2], y - off[:, 3], objects, "l1")]
    wh, reg = outputs.det_wh.data[batch], outputs.det_reg.data[batch]
    human_box, human_ok = _decode_boxes(hum[:, 3], hum[:, 2], wh, reg, stride)
    object_box, object_ok = _decode_boxes(obj[:, 3], obj[:, 2], wh, reg, stride)
    keep = human_ok & object_ok
    _drop("degenerate_box", len(keep) - keep.sum())
    obj_class = obj[:, 1].astype(np.intp)
    if table is not None:
        lut = _meaningful(table, outputs.interaction_map.shape[1], det.shape[1] - 1)
        allowed = lut[verb, obj_class]
        _drop("table_filter", (keep & ~allowed).sum())
        keep &= allowed
    score = ip_score * hum[:, 0] * obj[:, 0]
    kept = np.flatnonzero(keep)
    order = kept[np.argsort(-score[kept], kind="stable")]
    return [HoiTriplet(tuple(hb), tuple(ob), v, c, s) for hb, ob, v, c, s in zip(
        human_box[order].tolist(), object_box[order].tolist(), verb[order].tolist(),
        obj_class[order].tolist(), score[order].tolist())]


# ===== Text interchange =====

def format_triplet(image_id: str, t: HoiTriplet) -> str:
    nums = [t.score, *t.human_box, *t.object_box]
    return " ".join([image_id, str(t.verb), str(t.object_class)] + [str(float(v)) for v in nums])


def parse_triplet_line(line: str) -> tuple[str, HoiTriplet]:
    """Read one ``format_triplet`` line. Ids must be nonnegative, the score
    finite and both boxes pass ``check_box``; the decoder does not enforce
    this on what it writes, so a diverged model's triplets can fail here."""
    parts = line.split()
    if len(parts) != 12:
        raise ValueError(f"triplet line needs 12 fields, got {len(parts)}: {line!r}")
    image_id = parts[0]
    try:
        verb, cls = int(parts[1]), int(parts[2])
        score, *vals = [float(v) for v in parts[3:]]
        if verb < 0 or cls < 0:
            raise ValueError(f"verb {verb} and object class {cls} must be nonnegative")
        if not math.isfinite(score):
            raise ValueError(f"score {score} is not finite")
        check_box(tuple(vals[0:4]))
        check_box(tuple(vals[4:8]))
    except ValueError as exc:
        raise ValueError(f"bad triplet line {line!r}: {exc}") from None
    return image_id, HoiTriplet(tuple(vals[0:4]), tuple(vals[4:8]), verb, cls, score)


def save_triplets(path, per_image: dict) -> None:
    with open(path, "w") as f:
        for image_id in sorted(per_image):
            for t in per_image[image_id]:
                f.write(format_triplet(image_id, t) + "\n")


def load_triplets(path) -> dict:
    out: dict[str, list[HoiTriplet]] = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                image_id, t = parse_triplet_line(line)
            except ValueError as exc:
                raise ValueError(f"{path} line {ln}: {exc}") from None
            out.setdefault(image_id, []).append(t)
    return out
