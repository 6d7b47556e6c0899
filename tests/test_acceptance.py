"""Acceptance gate: one test and one printed verdict line per criterion.

Each test builds its own evidence (oracle comparisons, timing, training runs),
records "criterion N (...): PASS/FAIL - details" through the shared reporter,
then asserts. Budgets and tolerances are pinned in the assertions.
"""

import time

import numpy as np
import pytest

from ggnet import ops
from ggnet.evaluator import average_precision, evaluate
from ggnet.losses import (
    HoiAnnotation,
    HoiCategoryTable,
    build_mask,
    centernet_focal,
    hna_loss,
    load_table,
)
from ggnet.model import GGNet, ModelConfig, forward_infer, forward_train
from ggnet.ops import ConvParams, conv2d, conv_output_size, deform_aggregate, maxpool_nms, topk
from ggnet.synth import SceneSpec, load_split, make_dataset
from ggnet.tensor import Tensor
from ggnet.train import TrainConfig, evaluate_model, train
from ggnet.decoder import HoiTriplet

from gradcheck import CHECKS, run_check
from helpers import bilinear_sample, match_point
from oracles import (
    build_mask_ref,
    conv2d_ref,
    bilinear_ref,
    deform_aggregate_ref,
    hna_loss_ref,
    match_point_ref,
    maxpool_nms_ref,
    topk_ref,
)


def _verdict(record, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    record(line)
    assert ok, line


# ===== criterion 1: forward kernels vs brute-force oracles =====

def test_criterion_01_kernel_oracles(criterion_report):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst: dict[str, float] = {}

    errs = []
    for _ in range(100):
        b, cin, cout = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, k // 2 + 2))
        h, w = int(rng.integers(k, k + 6)), int(rng.integers(k, k + 6))
        x = Tensor.from_array(rng.uniform(-0.5, 0.5, (b, cin, h, w)).astype(np.float32))
        weight = rng.uniform(-0.5, 0.5, (cout, cin, k, k)).astype(np.float32)
        bias = rng.uniform(-0.5, 0.5, cout)
        got = conv2d(x, ConvParams(Tensor.from_array(weight), bias, stride, pad))
        errs.append(float(np.abs(got.data - conv2d_ref(x.data, weight, bias, stride, pad)).max()))
    worst["conv2d"] = max(errs)

    errs = []
    for _ in range(100):
        h, w = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        t = Tensor.from_array(rng.uniform(-1, 1, (1, 2, h, w)).astype(np.float32))
        c = int(rng.integers(0, 2))
        px = float(rng.uniform(-2.0, w + 1.0))
        py = float(rng.uniform(-2.0, h + 1.0))
        errs.append(abs(bilinear_sample(t, px, py, c) - bilinear_ref(t.data[0, c], px, py)))
    worst["bilinear_sample"] = max(errs)

    errs = []
    for _ in range(100):
        b, cin, cout = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)))
        k = int(rng.choice([1, 3]))
        taps = k * k
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2)) if k > 1 else 0
        fh, fw = int(rng.integers(k + 1, k + 6)), int(rng.integers(k + 1, k + 6))
        ho, wo = conv_output_size(fh, k, stride, pad), conv_output_size(fw, k, stride, pad)
        feat = Tensor.from_array(rng.uniform(-0.5, 0.5, (b, cin, fh, fw)).astype(np.float32))
        offsets = Tensor.from_array(rng.uniform(-2, 2, (b, 2 * taps, ho, wo)).astype(np.float32))
        weights = Tensor.from_array(rng.uniform(0, 1, (b, taps, ho, wo)).astype(np.float32))
        kernel = rng.uniform(-0.5, 0.5, (cout, cin, k, k)).astype(np.float32)
        bias = rng.uniform(-0.2, 0.2, cout)
        got = deform_aggregate(feat, offsets, weights,
                               ConvParams(Tensor.from_array(kernel), bias, stride, pad))
        want = deform_aggregate_ref(feat.data, offsets.data, weights.data,
                                    kernel, bias, stride, pad)
        errs.append(float(np.abs(got.data - want).max()))
    worst["deform_aggregate"] = max(errs)

    errs = []
    for _ in range(100):
        shape = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                 int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        data = (rng.integers(0, 10, shape) / 10.0).astype(np.float32)  # plateau ties
        got = maxpool_nms(Tensor.from_array(data))
        errs.append(float(np.abs(got.data - maxpool_nms_ref(data)).max()))
    worst["maxpool_nms"] = max(errs)

    mismatches = 0
    for _ in range(100):
        c, h, w = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        data = rng.integers(0, 5, (1, c, h, w)).astype(np.float32)  # abundant ties
        k = int(rng.integers(1, c * h * w + 3))
        if topk(Tensor.from_array(data), k).tolist() != [list(r) for r in topk_ref(data[0], k)]:
            mismatches += 1
    worst["topk"] = float(mismatches)

    elapsed = time.perf_counter() - t0
    max_err = max(v for k, v in worst.items() if k != "topk")
    ok = max_err <= 1e-6 and mismatches == 0 and elapsed < 60.0
    _verdict(criterion_report, 1, "kernel oracles", ok,
             f"100 instances/kernel, max abs err {max_err:.2e} (tol 1e-6), "
             f"topk mismatches {mismatches}, {elapsed:.1f}s (budget 60s)")


# ===== criterion 2: finite-difference gradient suite =====

def test_criterion_02_gradient_suite(criterion_report):
    t0 = time.perf_counter()
    reports = [run_check(name, build, seed) for name, build in CHECKS for seed in range(10)]
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in reports if not r.passed]
    ops_covered = {r.name.split("[")[0] for r in reports}
    max_rel = max(r.max_rel_err for r in reports)
    ok = not failed and len(ops_covered) >= 13 and elapsed < 300.0
    _verdict(criterion_report, 2, "gradient suite", ok,
             f"{len(reports)} checks over {len(ops_covered)} ops x 10 seeds, "
             f"rel tol 1e-3, max rel err {max_rel:.1e}, failures {len(failed)}, "
             f"{elapsed:.1f}s (budget 300s)")


# ===== criterion 3: degeneration to plain convolutions =====

def test_criterion_03_degeneration_identity(criterion_report):
    cfg = ModelConfig(num_verbs=3, num_objects=2, channels=8, stride=4,
                      num_points=25, input_size=32)
    model = GGNet(cfg, seed=7)
    x = Tensor.from_array(
        np.random.default_rng(3).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32),
        requires_grad=False)
    out = forward_train(model, x)
    diffs = [
        float(np.abs(out.points_coarse.offsets.data).max()),
        float(np.abs(out.points_coarse.weights.data - 1.0).max()),
        float(np.abs(out.points_final.offsets.data).max()),
        float(np.abs(out.points_final.weights.data - 1.0).max()),
        float(np.abs(out.gaze1_feat.data
                     - conv2d(out.glance_feat, model.params["gaze1_agg"]).data).max()),
        float(np.abs(out.gaze2_context.data
                     - conv2d(out.gaze1_feat, model.params["gaze2_context_agg"]).data).max()),
        float(np.abs(out.gaze2_feat.data
                     - conv2d(out.gaze1_feat, model.params["gaze2_agg"]).data).max()),
    ]
    ok = max(diffs) == 0.0
    _verdict(criterion_report, 3, "gaze degeneration identity", ok,
             f"fresh 25-point model: both aggregations == plain 5x5 convs, "
             f"max abs diff {max(diffs):.1e} (required exactly 0)")


# ===== criterion 4: focal-loss oracle =====

def test_criterion_04_focal_loss_oracle(criterion_report):
    rng = np.random.default_rng(44)
    max_err = 0.0
    for _ in range(50):
        shape = (1, int(rng.integers(1, 4)), int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        pred = Tensor.from_array(rng.uniform(0.01, 0.99, shape).astype(np.float32))
        mask = rng.uniform(-1, 1, shape).astype(np.float32)
        mask.reshape(-1)[rng.integers(mask.size)] = 1.0
        mask.reshape(-1)[rng.integers(mask.size)] = -1.0
        n = int(rng.integers(0, 5))
        got = hna_loss(pred, mask, n).scalar()
        want = hna_loss_ref(pred.data, mask, n)
        max_err = max(max_err, abs(got - want))

    pred = Tensor((1, 1, 1, 1), [0.5])
    hard = hna_loss(pred, -np.ones((1, 1, 1, 1)), 1).scalar()
    plain = hna_loss(pred, np.zeros((1, 1, 1, 1)), 1).scalar()
    ratio = hard / plain

    nonneg = np.zeros((1, 2, 5, 5), np.float32)
    nonneg[0, 0, 2, 2] = 1.0
    nonneg[0, 1, 1, 3] = 0.6
    pred2 = Tensor.from_array(rng.uniform(0.05, 0.95, (1, 2, 5, 5)).astype(np.float32))
    focal_eq = centernet_focal(pred2, nonneg, 2).scalar() == hna_loss(pred2, nonneg, 2).scalar()

    ok = max_err <= 1e-6 and ratio == 128.0 and focal_eq
    _verdict(criterion_report, 4, "focal-loss oracle", ok,
             f"50 (P,M) pairs max err {max_err:.2e} (tol 1e-6), hard-negative "
             f"center factor {ratio:.1f} (required exactly 2^7), "
             f"no-negative == centernet_focal: {focal_eq}")


# ===== criterion 5: supervision-mask semantics =====

def test_criterion_05_mask_semantics(criterion_report):
    rng = np.random.default_rng(55)
    max_err = 0.0
    for _ in range(50):
        num_verbs = int(rng.integers(2, 6))
        num_objects = int(rng.integers(1, 4))
        stride = int(rng.choice([2, 4]))
        size = int(rng.integers(10, 17))
        img = size * stride
        pairs = set()
        for o in range(num_objects):
            for v in rng.choice(num_verbs, size=min(2, num_verbs), replace=False):
                pairs.add((int(v), o))
        table = HoiCategoryTable(num_verbs, num_objects, frozenset(pairs), frozenset())
        ordered = sorted(pairs)
        annos = []
        for _ in range(int(rng.integers(1, 5))):
            v, o = ordered[int(rng.integers(len(ordered)))]

            def rand_box():
                x1 = float(rng.uniform(0, img - 14))
                y1 = float(rng.uniform(0, img - 14))
                return (x1, y1, x1 + float(rng.uniform(6, 13)),
                        y1 + float(rng.uniform(6, 13)))

            annos.append(HoiAnnotation(rand_box(), rand_box(), v, o))
        got = build_mask(annos, table, (num_verbs, size, size), stride)
        want = build_mask_ref(annos, table.meaningful, num_verbs, size, size, stride)
        max_err = max(max_err, float(np.abs(got - want).max()))

    # crafted: non-meaningful channel untouched; positives never overridden
    table = HoiCategoryTable(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}), frozenset())
    a0 = HoiAnnotation((8, 8, 24, 24), (24, 8, 40, 24), 0, 0)
    a1 = HoiAnnotation((8, 8, 24, 24), (24, 8, 40, 24), 1, 0)
    solo = build_mask([a0], table, (3, 16, 16), stride=4)
    both = build_mask([a0, a1], table, (3, 16, 16), stride=4)
    px = int(((16 + 32) / 2) / 4)
    py = int(((16 + 16) / 2) / 4)
    no_nonmeaningful_negatives = bool(np.all(solo[2] == 0.0))
    negative_stamped = solo[1, py, px] == -1.0
    positive_wins = both[0, py, px] == 1.0 and both[1, py, px] == 1.0 and both.min() >= 0.0

    ok = (max_err <= 1e-6 and no_nonmeaningful_negatives
          and negative_stamped and positive_wins)
    _verdict(criterion_report, 5, "mask semantics", ok,
             f"50 instances vs splat oracle max err {max_err:.2e} (tol 1e-6), "
             f"non-meaningful channels clean: {no_nonmeaningful_negatives}, "
             f"positives never overridden: {positive_wins}")


# ===== criterion 6: point-matching oracle =====

def test_criterion_06_point_matching_oracle(criterion_report):
    rng = np.random.default_rng(66)
    mismatches = 0
    for trial in range(1000):
        norm = "l1" if trial % 2 == 0 else "l2"
        n = int(rng.integers(1, 14))
        drawn = [(float(rng.uniform(0.05, 1.0)), int(rng.integers(0, 16)), int(rng.integers(0, 16)))
                 for _ in range(n)]  # (score, x, y)
        pool = np.array([(s, 0, y, x) for s, x, y in drawn], np.float64)
        x, y = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        off = (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
        if match_point(x, y, off, pool, norm) != match_point_ref((x, y), off, pool, norm):
            mismatches += 1

    # rows (score, channel, y, x); the target is (10, 10) - (2, 0) = (8, 10)
    pool = np.array([(1.0, 0, 10, 6),    # cost |8-6|/1.00 = 2
                     (0.25, 0, 10, 7)])  # cost |8-7|/0.25 = 4
    hand = match_point(10, 10, (2.0, 0.0), pool) == 0

    ok = mismatches == 0 and hand
    _verdict(criterion_report, 6, "point-matching oracle", ok,
             f"1000 candidate sets vs exhaustive argmin, mismatches {mismatches}; "
             f"hand case (cost 2 beats cost 4): {hand}")


# ===== criterion 7: average-precision oracle =====

def test_criterion_07_average_precision_oracle(criterion_report):
    h1, o1 = (0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 30.0, 10.0)
    h2, o2 = (50.0, 0.0, 60.0, 10.0), (70.0, 0.0, 80.0, 10.0)
    far_h, far_o = (0.0, 40.0, 10.0, 50.0), (20.0, 40.0, 30.0, 50.0)
    gts = [("a", h1, o1), ("a", h2, o2)]
    dets = [("a", 0.9, h1, o1), ("a", 0.8, far_h, far_o), ("a", 0.7, h2, o2)]
    frozen = average_precision(dets, gts)
    perfect = average_precision([("a", 1.0, h1, o1)], [("a", h1, o1)])
    empty = average_precision([], gts)
    undefined = average_precision([("a", 1.0, h1, o1)], [])

    table = HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    gt_map = {"a": [HoiAnnotation(h1, o1, 0, 0)], "b": [HoiAnnotation(h1, o1, 1, 1)]}
    det_map = {"a": [HoiTriplet(h1, o1, 0, 0, 0.5)],
               "b": [HoiTriplet(h1, o1, 0, 0, 0.9)]}  # off-scope class-0 claim
    dt = evaluate(det_map, gt_map, table, mode="dt")
    ko = evaluate(det_map, gt_map, table, mode="ko")
    dt_ko = (dt.per_category[(0, 0)] == pytest.approx(0.5)
             and ko.per_category[(0, 0)] == pytest.approx(1.0)
             and ko.full_map > dt.full_map)

    ok = (frozen == pytest.approx(5 / 6, abs=1e-9) and perfect == pytest.approx(1.0)
          and empty == 0.0 and undefined is None and dt_ko)
    _verdict(criterion_report, 7, "average-precision oracle", ok,
             f"[TP,FP,TP]/2GT AP {frozen:.6f} (want 5/6), perfect {perfect}, "
             f"no-dets {empty}, no-gt None: {undefined is None}, DT<KO scoping: {dt_ko}")


# ===== criterion 9: pruned inference graph =====

def test_criterion_09_inference_graph_equivalence(criterion_report):
    cfg = ModelConfig(num_verbs=3, num_objects=2, channels=8, stride=4,
                      num_points=9, input_size=32)
    model = GGNet(cfg, seed=11)
    x = Tensor.from_array(
        np.random.default_rng(9).uniform(0, 1, (2, 3, 32, 32)).astype(np.float32),
        requires_grad=False)
    ops.op_counts.clear()
    full = forward_train(model, x)
    convs_train = ops.op_counts["conv2d"]
    deforms_train = ops.op_counts["deform_aggregate"]
    ops.op_counts.clear()
    lean = forward_infer(model, x)
    convs_infer = ops.op_counts["conv2d"]
    deforms_infer = ops.op_counts["deform_aggregate"]

    shared = [
        (full.backbone_feat, lean.backbone_feat), (full.glance_feat, lean.glance_feat),
        (full.points_coarse.offsets, lean.points_coarse.offsets),
        (full.points_coarse.weights, lean.points_coarse.weights),
        (full.gaze1_feat, lean.gaze1_feat), (full.gaze2_context, lean.gaze2_context),
        (full.points_final.offsets, lean.points_final.offsets),
        (full.points_final.weights, lean.points_final.weights),
        (full.gaze2_feat, lean.gaze2_feat), (full.gaze2_heatmap, lean.gaze2_heatmap),
        (full.match_offsets, lean.match_offsets), (full.det_center, lean.det_center),
        (full.det_wh, lean.det_wh), (full.det_reg, lean.det_reg),
    ]
    bitwise = all(np.array_equal(a.data, b.data) for a, b in shared)
    pruned = lean.glance_heatmap is None and lean.gaze1_heatmap is None

    ok = (bitwise and pruned and convs_infer < convs_train
          and deforms_infer == deforms_train)
    _verdict(criterion_report, 9, "inference graph equivalence", ok,
             f"{len(shared)} shared tensors bitwise equal: {bitwise}, "
             f"convs {convs_infer} < {convs_train}, shallow heads pruned: {pruned}")


# ===== criterion 10: bitwise reproducibility =====

def test_criterion_10_reproducibility(criterion_report, tmp_path):
    data = tmp_path / "data"
    make_dataset(SceneSpec(seed=3, image_size=48), data, n_train=12, n_test=4)
    cfg = TrainConfig(epochs=2, decay_epoch=1, batch_size=4, channels=8,
                      num_points=9, val_fraction=0.25, candidates=20, seed=0)
    m1 = train(cfg, data, tmp_path / "r1")
    m2 = train(cfg, data, tmp_path / "r2")
    ckpt_equal = ((tmp_path / "r1" / "best.ckpt").read_bytes()
                  == (tmp_path / "r2" / "best.ckpt").read_bytes())
    metrics_equal = ((tmp_path / "r1" / "metrics.json").read_bytes()
                     == (tmp_path / "r2" / "metrics.json").read_bytes())
    ok = ckpt_equal and metrics_equal and m1 == m2
    size = (tmp_path / "r1" / "best.ckpt").stat().st_size
    _verdict(criterion_report, 10, "reproducibility", ok,
             f"same seed/config twice: checkpoint ({size} bytes) identical: "
             f"{ckpt_equal}, metrics identical: {metrics_equal}")


# ===== criterion 8: ablation ordering (slowest; runs last) =====

ABLATION_ROWS = [
    ("baseline", dict(use_hna=False, use_gaze1=False, use_gaze2=False, use_apm=False)),
    ("+hna", dict(use_hna=True, use_gaze1=False, use_gaze2=False, use_apm=False)),
    ("+gaze1", dict(use_hna=True, use_gaze1=True, use_gaze2=False, use_apm=False)),
    ("+gaze2", dict(use_hna=True, use_gaze1=True, use_gaze2=True, use_apm=False)),
    ("full", dict(use_hna=True, use_gaze1=True, use_gaze2=True, use_apm=True)),
]


def test_criterion_08_ablation_ordering(criterion_report, tmp_path):
    t0 = time.perf_counter()
    data = tmp_path / "default_scenes"
    make_dataset(SceneSpec(), data)  # the default dataset: 200 train / 50 test
    table = load_table(data / "table.txt")
    test_samples = load_split(data, "test")

    means = {}
    for name, flags in ABLATION_ROWS:
        scores = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(epochs=16, decay_epoch=12, learning_rate=7e-4,
                              lambda_aux=0.25, num_points=9, val_fraction=0.25,
                              seed=seed, **flags)
            run_dir = tmp_path / f"abl_{name.strip('+')}_{seed}"
            train(cfg, data, run_dir)
            model = GGNet.load(run_dir / "best.ckpt")
            scores.append(evaluate_model(model, test_samples, table).full_map)
        means[name] = sum(scores) / len(scores)

    elapsed = time.perf_counter() - t0
    chain = (means["baseline"] < means["+hna"] < means["+gaze1"]
             < means["+gaze2"] <= means["full"])
    margin = means["full"] - means["baseline"]
    ok = chain and margin >= 0.02 and elapsed < 1800.0
    shown = " < ".join(f"{name} {means[name]:.4f}" for name, _ in ABLATION_ROWS[:4])
    _verdict(criterion_report, 8, "ablation ordering", ok,
             f"mean test mAP over seeds 0-2: {shown} <= full {means['full']:.4f}; "
             f"full-baseline +{margin:.3f} (need >=0.02); {elapsed:.0f}s (budget 1800s)")
