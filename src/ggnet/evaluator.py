"""Role-mAP evaluation of <human, verb, object> triplets.

A detection is a true positive only when BOTH its boxes reach the IoU
threshold against one still-unmatched ground truth of the same category,
matched greedily in score order. Categories with no ground truth are excluded
from the mean. DT mode scores every image; KO mode scores each category only
on images whose ground truth contains that category's object class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .losses import Box, HoiCategoryTable


def iou(a: Box, b: Box) -> float:
    ix1, iy1 = max(a[0], b[0]), max(a[1], b[1])
    ix2, iy2 = min(a[2], b[2]), min(a[3], b[3])
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _pr_area(tp_flags: list[bool], num_gt: int) -> float:
    """All-point area under the precision envelope, as V-COCO and HICO-DET score."""
    precisions = []
    recalls = []
    tp = fp = 0
    for flag in tp_flags:
        if flag:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / num_gt)
    # monotone envelope from the right
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    area = 0.0
    prev_r = 0.0
    for p, r in zip(precisions, recalls):
        if r > prev_r:
            area += (r - prev_r) * p
            prev_r = r
    return area


def average_precision(detections, gts, iou_thresh: float = 0.5) -> float | None:
    """AP for one category.

    detections: (image_id, score, human_box, object_box) tuples, any order;
    gts: (image_id, human_box, object_box) tuples. Returns None when there is
    no ground truth (category undefined). Detections are ranked by descending
    score and equal scores keep their given order (the sort is stable), so
    reordering tied detections can change the AP.
    """
    if not gts:
        return None
    if not detections:
        return 0.0
    gt_by_image: dict[str, list[int]] = {}
    for gi, (image_id, _, _) in enumerate(gts):
        gt_by_image.setdefault(image_id, []).append(gi)
    matched = [False] * len(gts)
    order = sorted(range(len(detections)), key=lambda i: -detections[i][1])
    tp_flags = []
    for di in order:
        image_id, _, human_box, object_box = detections[di]
        best_gi = -1
        best_quality = 0.0
        for gi in gt_by_image.get(image_id, ()):
            if matched[gi]:
                continue
            _, gt_h, gt_o = gts[gi]
            iou_h = iou(human_box, gt_h)
            iou_o = iou(object_box, gt_o)
            if iou_h < iou_thresh or iou_o < iou_thresh:
                continue
            quality = min(iou_h, iou_o)
            if quality > best_quality:
                best_quality, best_gi = quality, gi
        if best_gi >= 0:
            matched[best_gi] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return _pr_area(tp_flags, len(gts))


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass
class EvalResult:
    mode: str
    per_category: dict = field(default_factory=dict)
    full_map: float | None = None
    rare_map: float | None = None
    nonrare_map: float | None = None
    dropped_detections: int = 0

    def lines(self) -> list[str]:
        def fmt(v):
            return "n/a" if v is None else f"{v:.6f}"
        out = [f"mode = {self.mode}",
               f"full_map = {fmt(self.full_map)}",
               f"rare_map = {fmt(self.rare_map)}",
               f"nonrare_map = {fmt(self.nonrare_map)}",
               f"dropped_detections = {self.dropped_detections}"]
        for (verb, ocls), ap in sorted(self.per_category.items()):
            out.append(f"ap_verb{verb}_obj{ocls} = {fmt(ap)}")
        return out

    def to_json(self) -> str:
        return json.dumps({
            "mode": self.mode,
            "full_map": self.full_map,
            "rare_map": self.rare_map,
            "nonrare_map": self.nonrare_map,
            "dropped_detections": self.dropped_detections,
            "per_category": [
                {"verb": v, "object": o, "ap": ap}
                for (v, o), ap in sorted(self.per_category.items())
            ],
        }, indent=2, sort_keys=True)


def evaluate(dets_per_image: dict, gts_per_image: dict, table: HoiCategoryTable,
             mode: str = "dt", iou_thresh: float = 0.5) -> EvalResult:
    """dets_per_image: image_id -> list of HoiTriplet; gts_per_image:
    image_id -> list of HoiAnnotation (include empty lists for images with no
    ground truth so DT mode knows the image universe)."""
    mode = mode.lower()
    if mode not in ("dt", "ko"):
        raise ValueError(f"mode must be 'dt' or 'ko', got {mode!r}")
    all_images = set(gts_per_image) | set(dets_per_image)
    dropped = 0
    dets_by_cat: dict[tuple[int, int], list] = {}
    for image_id, dets in dets_per_image.items():
        for t in dets:
            key = (t.verb, t.object_class)
            if key not in table.meaningful:
                dropped += 1
                continue
            dets_by_cat.setdefault(key, []).append(
                (image_id, t.score, t.human_box, t.object_box))
    images_with_class: dict[int, set] = {}
    gts_by_cat: dict[tuple[int, int], list] = {}
    for image_id, annos in gts_per_image.items():
        for a in annos:
            images_with_class.setdefault(a.object_class, set()).add(image_id)
            gts_by_cat.setdefault((a.verb, a.object_class), []).append(
                (image_id, a.human_box, a.object_box))

    result = EvalResult(mode=mode, dropped_detections=dropped)
    for cat in sorted(table.meaningful):
        gts = gts_by_cat.get(cat, [])
        dets = dets_by_cat.get(cat, [])
        if mode == "ko":
            scope = images_with_class.get(cat[1], set())
            dets = [d for d in dets if d[0] in scope]
        else:
            dets = [d for d in dets if d[0] in all_images]
        result.per_category[cat] = average_precision(dets, gts, iou_thresh)

    defined = {cat: ap for cat, ap in result.per_category.items() if ap is not None}
    result.full_map = _mean(list(defined.values()))
    result.rare_map = _mean([ap for cat, ap in defined.items() if cat in table.rare])
    result.nonrare_map = _mean([ap for cat, ap in defined.items() if cat not in table.rare])
    return result
