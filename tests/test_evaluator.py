"""IoU, per-category average precision, and the two-protocol evaluator."""

import json

import pytest

from ggnet.decoder import HoiTriplet
from ggnet.evaluator import EvalResult, average_precision, evaluate, iou
from ggnet.losses import HoiAnnotation, HoiCategoryTable

H1 = (0.0, 0.0, 10.0, 10.0)
O1 = (20.0, 0.0, 30.0, 10.0)
H2 = (50.0, 0.0, 60.0, 10.0)
O2 = (70.0, 0.0, 80.0, 10.0)
FAR_H = (0.0, 40.0, 10.0, 50.0)
FAR_O = (20.0, 40.0, 30.0, 50.0)


# ===== IoU =====

def test_iou_frozen_half_overlap():
    assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3)


def test_iou_properties():
    a, b = (0, 0, 10, 10), (5, 5, 9, 9)
    assert iou(a, a) == pytest.approx(1.0)
    assert iou(a, b) == iou(b, a) == pytest.approx(16 / 100)  # containment
    assert iou(a, (10, 0, 20, 10)) == 0.0  # touching edges
    assert iou(a, (30, 30, 40, 40)) == 0.0


# ===== average precision =====

def _tp_fp_tp_case():
    gts = [("a", H1, O1), ("a", H2, O2)]
    dets = [("a", 0.9, H1, O1),        # TP
            ("a", 0.8, FAR_H, FAR_O),  # FP
            ("a", 0.7, H2, O2)]        # TP
    return dets, gts


def test_average_precision_frozen_five_sixths():
    dets, gts = _tp_fp_tp_case()
    # precision/recall points (1.0, 0.5), (0.5, 0.5), (2/3, 1.0)
    assert average_precision(dets, gts) == pytest.approx(5 / 6, abs=1e-9)


def test_average_precision_keeps_arrival_order_among_equal_scores():
    # Not invariant to detection order: tied detections are ranked in the
    # order they arrive (stable sort), so a TP ahead of an equal-score FP
    # scores 1.0 and behind it 0.5.
    gts = [("a", H1, O1)]
    tp, fp = ("a", 0.5, H1, O1), ("a", 0.5, FAR_H, FAR_O)
    assert average_precision([tp, fp], gts) == 1.0
    assert average_precision([fp, tp], gts) == 0.5


def test_average_precision_trivial_cases():
    gts = [("a", H1, O1)]
    assert average_precision([("a", 1.0, H1, O1)], gts) == pytest.approx(1.0)
    assert average_precision([], gts) == 0.0
    assert average_precision([("a", 1.0, H1, O1)], []) is None


def test_average_precision_sorts_by_score():
    gts = [("a", H1, O1)]
    dets = [("a", 0.3, H1, O1), ("a", 0.9, FAR_H, FAR_O)]
    # the FP outranks the TP: flags [FP, TP] -> AP = 0.5
    assert average_precision(dets, gts) == pytest.approx(0.5)


def test_average_precision_requires_both_boxes_above_threshold():
    gts = [("a", H1, O1)]
    shifted_o = (24.0, 0.0, 34.0, 10.0)  # object IoU 6/14 < 0.5, human exact
    dets = [("a", 1.0, H1, shifted_o)]
    assert average_precision(dets, gts) == 0.0


def test_average_precision_prefers_min_iou_quality_match():
    human = (0.0, 20.0, 10.0, 30.0)
    gt_a = ("a", human, (0.0, 0.0, 10.0, 10.0))
    gt_b = ("a", human, (2.0, 0.0, 12.0, 10.0))
    # det1 overlaps both objects (0.6 vs 0.905) and must claim gt_b;
    # det2 then only overlaps gt_b (0.667) which is taken -> FP
    det1 = ("a", 0.9, human, (2.5, 0.0, 12.5, 10.0))
    det2 = ("a", 0.8, human, (4.0, 0.0, 14.0, 10.0))
    assert average_precision([det1, det2], [gt_a, gt_b]) == pytest.approx(0.5)


def test_average_precision_never_reuses_ground_truth():
    gts = [("a", H1, O1)]
    dets = [("a", 0.9, H1, O1), ("a", 0.8, H1, O1)]
    assert average_precision(dets, gts) == pytest.approx(1.0)  # second is FP past full recall


def test_average_precision_scopes_by_image():
    gts = [("a", H1, O1)]
    dets = [("b", 0.9, H1, O1)]  # right boxes, wrong image
    assert average_precision(dets, gts) == 0.0


# ===== evaluator =====

def _table():
    return HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1), (0, 1)}),
                            frozenset({(1, 1)}))


def _trip(verb, ocls, score, h=H1, o=O1):
    return HoiTriplet(h, o, verb, ocls, score)


def _anno(verb, ocls, h=H1, o=O1):
    return HoiAnnotation(h, o, verb, ocls)


def test_evaluate_dt_vs_ko_scoping():
    table = _table()
    gts = {"a": [_anno(0, 0)], "b": [_anno(1, 1)], "c": []}
    dets = {"a": [_trip(0, 0, 0.5)],
            "b": [_trip(0, 0, 0.9)]}  # class-0 claim on an image without class 0
    dt = evaluate(dets, gts, table, mode="dt")
    ko = evaluate(dets, gts, table, mode="ko")
    assert dt.per_category[(0, 0)] == pytest.approx(0.5)  # FP outranks the TP
    assert ko.per_category[(0, 0)] == pytest.approx(1.0)  # off-scope FP removed
    assert dt.per_category[(1, 1)] == 0.0
    assert dt.per_category[(0, 1)] is None  # no ground truth anywhere
    assert dt.full_map == pytest.approx((0.5 + 0.0) / 2)
    assert ko.full_map == pytest.approx((1.0 + 0.0) / 2)
    with pytest.raises(ValueError):
        evaluate(dets, gts, table, mode="both")


def test_evaluate_detection_on_image_without_ground_truth_entry():
    table = _table()
    gts = {"a": [_anno(0, 0)]}
    dets = {"a": [_trip(0, 0, 0.5)],
            "z": [_trip(0, 0, 0.9)]}  # "z" has no entry in gts at all
    dt = evaluate(dets, gts, table, mode="dt")
    ko = evaluate(dets, gts, table, mode="ko")
    assert dt.per_category[(0, 0)] == pytest.approx(0.5)  # counted as a false positive
    assert ko.per_category[(0, 0)] == pytest.approx(1.0)  # out of scope, dropped


def test_evaluate_rare_and_nonrare_means():
    table = _table()
    gts = {"a": [_anno(0, 0)], "b": [_anno(1, 1, h=H2, o=O2)]}
    dets = {"a": [_trip(0, 0, 0.9)], "b": [_trip(1, 1, 0.8, h=H2, o=O2)]}
    res = evaluate(dets, gts, table)
    assert res.full_map == pytest.approx(1.0)
    assert res.rare_map == pytest.approx(1.0)      # only (1, 1)
    assert res.nonrare_map == pytest.approx(1.0)   # only (0, 0)
    gts["b"] = []
    res = evaluate(dets, gts, table)
    assert res.rare_map is None  # the one rare category has no ground truth


def test_evaluate_drops_non_meaningful_detections():
    table = _table()
    gts = {"a": [_anno(0, 0)]}
    dets = {"a": [_trip(0, 0, 0.9), _trip(1, 0, 0.8)]}  # (1, 0) is not meaningful
    res = evaluate(dets, gts, table)
    assert res.dropped_detections == 1
    assert res.per_category[(0, 0)] == pytest.approx(1.0)
    assert (1, 0) not in res.per_category


def test_eval_result_lines_and_json():
    res = EvalResult(mode="dt", per_category={(0, 0): 0.75, (1, 1): None},
                     full_map=0.75, rare_map=None, nonrare_map=0.75,
                     dropped_detections=3)
    lines = res.lines()
    assert lines[0] == "mode = dt"
    assert "full_map = 0.750000" in lines
    assert "rare_map = n/a" in lines
    assert "dropped_detections = 3" in lines
    assert "ap_verb0_obj0 = 0.750000" in lines
    assert "ap_verb1_obj1 = n/a" in lines
    blob = json.loads(res.to_json())
    assert blob["full_map"] == 0.75
    assert blob["per_category"][0] == {"verb": 0, "object": 0, "ap": 0.75}


def test_evaluate_end_to_end_matches_direct_ap():
    table = HoiCategoryTable(1, 1, frozenset({(0, 0)}), frozenset())
    gts = {"a": [_anno(0, 0), _anno(0, 0, h=H2, o=O2)]}
    dets = {"a": [_trip(0, 0, 0.9), _trip(0, 0, 0.8, h=FAR_H, o=FAR_O),
                  _trip(0, 0, 0.7, h=H2, o=O2)]}
    res = evaluate(dets, gts, table)
    assert res.full_map == pytest.approx(5 / 6)
