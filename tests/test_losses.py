"""Supervision masks, the signed-mask focal loss, matching and box losses."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggnet.losses import (
    DataError,
    HoiAnnotation,
    HoiCategoryTable,
    box_center,
    build_mask,
    centernet_focal,
    detection_losses,
    format_annotation,
    gaussian_radius,
    hna_loss,
    load_table,
    matching_loss,
    parse_annotation_line,
    parse_annotations,
    save_table,
    splat_gaussian,
    total_loss,
)
from ggnet.synth import load_split
from ggnet.tensor import ShapeError, Tensor, tape

from helpers import mutated_fields, valid_box
from oracles import build_mask_ref, gaussian_radius_ref, hna_loss_ref, iou_ref

LN2 = math.log(2.0)


# ===== annotations and tables =====

def test_annotation_rejects_degenerate_boxes():
    with pytest.raises(DataError):
        HoiAnnotation((0, 0, 0, 5), (0, 0, 5, 5), 0, 0)
    with pytest.raises(DataError):
        HoiAnnotation((0, 0, 5, 5), (2, 9, 5, 9), 0, 0)


def test_interaction_point_is_scaled_center_midpoint():
    a = HoiAnnotation((4, 4, 12, 12), (16, 8, 24, 16), 1, 0)
    assert box_center(a.human_box) == (8.0, 8.0)
    assert box_center(a.object_box) == (20.0, 12.0)
    assert a.interaction_point(4) == (3.5, 2.5)
    assert a.interaction_point(1) == (14.0, 10.0)


def test_annotation_text_roundtrip():
    a = HoiAnnotation((1.5, 2.0, 10.0, 20.0), (3.0, 4.0, 8.0, 9.5), 2, 1)
    line = format_annotation("img_0007", a)
    image_id, back = parse_annotation_line(line)
    assert image_id == "img_0007"
    assert back == a
    fields = line.split()
    assert len(fields) == 11
    assert fields[1:3] == ["2", "1"]


def test_annotation_line_field_count_enforced():
    with pytest.raises(DataError):
        parse_annotation_line("img 0 0 1 2 3 4 5 6 7")  # 10 fields


def test_bad_annotation_number_names_the_line():
    bad = "img x 0 1 2 3 4 5 6 7 8"
    with pytest.raises(DataError, match=re.escape(f"bad annotation line {bad!r}")):
        parse_annotation_line(bad)


def test_parse_annotations_groups_by_image():
    lines = [
        "a 0 0 0 0 4 4 5 5 9 9",
        "",
        "b 1 1 0 0 4 4 5 5 9 9",
        "a 1 1 1 1 6 6 7 7 9 9",
    ]
    grouped = parse_annotations(lines)
    assert list(grouped) == ["a", "b"]
    assert len(grouped["a"]) == 2 and grouped["a"][1].verb == 1


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("annos")
    (root / "manifest.txt").write_text("test img\n")
    (root / "annos").mkdir()
    return root


VALID_ANNOTATION = "img 1 0 0.0 0.0 10.0 10.0 20.0 0.0 30.0 10.0"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_fields(VALID_ANNOTATION.split()))
@example("img 0 0 nan 0 10 10 20 0 30 10".split())
@example("img 0 0 0 0 10 10 20 0 inf 10".split())
@example("img -1 0 0 0 10 10 20 0 30 10".split())
def test_annotation_reader_rejects_or_reads_a_valid_record(split_dir, fields):
    path = split_dir / "annos" / "test.txt"
    path.write_text(VALID_ANNOTATION + "\n" + " ".join(fields) + "\n")
    try:
        samples = load_split(split_dir, "test", with_images=False)
    except DataError as exc:
        assert str(exc).startswith(f"{path} line 2: ")
        return
    for a in samples[0].annotations:
        assert valid_box(a.human_box) and valid_box(a.object_box)
        assert a.verb >= 0 and a.object_class >= 0


def test_table_validation_and_roundtrip(tmp_path):
    with pytest.raises(DataError):
        HoiCategoryTable(2, 2, frozenset({(0, 0)}), frozenset({(1, 1)}))
    with pytest.raises(DataError):
        HoiCategoryTable(2, 2, frozenset({(2, 0)}), frozenset())
    table = HoiCategoryTable(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}),
                             frozenset({(2, 1)}))
    path = tmp_path / "table.txt"
    save_table(path, table)
    assert load_table(path) == table
    text = path.read_text()
    assert "verbs 3" in text and "pair 2 1 rare" in text and "pair 0 0 common" in text


def test_table_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("verbs 2\nobjects 2\nwat 1 2 common\n")
    with pytest.raises(DataError):
        load_table(bad)
    headerless = tmp_path / "headerless.txt"
    headerless.write_text("pair 0 0 common\n")
    with pytest.raises(DataError,
                       match=re.escape(f"{headerless}: table file missing verbs/objects header")):
        load_table(headerless)


@pytest.mark.parametrize("line", ["pair 0 0", "verbs", "pair 0 0 rar", "pair 0 0 rare x",
                                  "objects 2 3", "pair 0 one common", "verbs 2.5"])
def test_table_load_rejects_malformed_line_quoting_it(tmp_path, line):
    path = tmp_path / "table.txt"
    path.write_text(f"verbs 2\nobjects 2\n{line}\n")
    with pytest.raises(DataError, match=re.escape(repr(line))):
        load_table(path)


# ===== Gaussian radius & stamps =====

def test_gaussian_radius_matches_root_finder_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = float(rng.uniform(0.5, 40.0))
        h = float(rng.uniform(0.5, 40.0))
        o = float(rng.choice([0.3, 0.5, 0.7, 0.9]))
        assert gaussian_radius(w, h, o) == pytest.approx(gaussian_radius_ref(w, h, o), abs=1e-9)


def test_gaussian_radius_keeps_diagonal_shift_overlap():
    rng = np.random.default_rng(1)
    for _ in range(100):
        w = float(rng.uniform(2.0, 30.0))
        h = float(rng.uniform(2.0, 30.0))
        r = gaussian_radius(w, h, 0.7)
        assert r >= 0.0
        shifted = (r, r, w + r, h + r)
        assert iou_ref((0, 0, w, h), shifted) >= 0.7 - 1e-9


def test_gaussian_radius_shrinks_with_overlap_requirement():
    assert gaussian_radius(10, 10, 0.9) < gaussian_radius(10, 10, 0.5)


def test_splat_gaussian_window_and_values():
    mask = np.zeros((1, 9, 9), np.float32)
    splat_gaussian(mask, (4, 4), 2.9, +1, 0)
    sigma = (2 * 2.9 + 1) / 6.0
    assert mask[0, 4, 4] == pytest.approx(1.0)
    assert mask[0, 4, 6] == pytest.approx(math.exp(-4 / (2 * sigma ** 2)), abs=1e-6)
    assert mask[0, 4, 7] == 0.0  # outside the int(radius) window
    with pytest.raises(ValueError):
        splat_gaussian(mask, (9, 4), 1.0, +1, 0)


def test_splat_gaussian_combination_rules():
    mask = np.zeros((1, 7, 7), np.float32)
    splat_gaussian(mask, (3, 3), 1.8, +1, 0)
    center = mask[0, 3, 3]
    ring = mask[0, 3, 4]
    # second positive max-combines
    splat_gaussian(mask, (4, 3), 1.8, +1, 0)
    assert mask[0, 3, 4] == pytest.approx(1.0)
    assert mask[0, 3, 3] == pytest.approx(center)
    # negative never overwrites a positive pixel, min-combines elsewhere
    splat_gaussian(mask, (3, 3), 1.8, -1, 0)
    assert mask[0, 3, 3] == pytest.approx(center)
    assert mask[0, 3, 4] == pytest.approx(1.0)
    before = mask[0, 1, 1]
    assert before == 0.0
    splat_gaussian(mask, (1, 1), 1.8, -1, 0)
    assert mask[0, 1, 1] == pytest.approx(-1.0)
    assert ring > 0  # sanity: the first stamp really spread


# ===== mask construction =====

def _random_mask_case(rng, num_verbs=4, num_objects=3, size=16, stride=4):
    pairs = set()
    for o in range(num_objects):
        for v in rng.choice(num_verbs, size=2, replace=False):
            pairs.add((int(v), o))
    table = HoiCategoryTable(num_verbs, num_objects, frozenset(pairs), frozenset())
    ordered = sorted(pairs)
    annos = []
    img = size * stride
    for _ in range(int(rng.integers(1, 4))):
        v, o = ordered[int(rng.integers(len(ordered)))]

        def rand_box():
            x1 = float(rng.uniform(0, img - 14))
            y1 = float(rng.uniform(0, img - 14))
            return (x1, y1, x1 + float(rng.uniform(6, 13)), y1 + float(rng.uniform(6, 13)))

        annos.append(HoiAnnotation(rand_box(), rand_box(), v, o))
    return table, annos


@pytest.mark.parametrize("seed", range(8))
def test_build_mask_matches_per_pixel_oracle(seed):
    rng = np.random.default_rng(seed)
    table, annos = _random_mask_case(rng)
    got = build_mask(annos, table, (4, 16, 16), stride=4)
    want = build_mask_ref(annos, table.meaningful, 4, 16, 16, 4)
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_build_mask_without_hard_negatives_is_nonnegative():
    rng = np.random.default_rng(42)
    table, annos = _random_mask_case(rng)
    mask = build_mask(annos, table, (4, 16, 16), stride=4, hard_negatives=False)
    assert mask.min() >= 0.0
    assert mask.max() == pytest.approx(1.0)


def test_build_mask_negative_centers_only_on_meaningful_pairs():
    table = HoiCategoryTable(3, 2, frozenset({(0, 0), (1, 0), (2, 1)}), frozenset())
    anno = HoiAnnotation((8, 8, 24, 24), (24, 8, 40, 24), 0, 0)
    mask = build_mask([anno], table, (3, 16, 16), stride=4)
    px, py = 6, 4  # interaction point (24+16)/2/4=5? computed below
    px = int(((16 + 32) / 2) / 4)
    assert mask[0, py, px] == pytest.approx(1.0)
    assert mask[1, py, px] == pytest.approx(-1.0)  # verb 1 shares object class 0
    assert np.all(mask[2] == 0.0)  # verb 2 never pairs with object class 0


def test_build_mask_positive_beats_negative_at_same_point():
    table = HoiCategoryTable(2, 1, frozenset({(0, 0), (1, 0)}), frozenset())
    a0 = HoiAnnotation((8, 8, 24, 24), (24, 8, 40, 24), 0, 0)
    a1 = HoiAnnotation((8, 8, 24, 24), (24, 8, 40, 24), 1, 0)
    mask = build_mask([a0, a1], table, (2, 16, 16), stride=4)
    assert mask.min() >= 0.0  # both candidate negatives are positives here
    assert mask[0].max() == pytest.approx(1.0)
    assert mask[1].max() == pytest.approx(1.0)


@st.composite
def _shared_class_case(draw, size=16, stride=4):
    """A table whose object classes are shared by several verbs, and
    annotations with random boxes, some sharing an earlier annotation's box
    centers (scaled boxes) so that their interaction points coincide while
    their Gaussian radii differ."""
    num_verbs, num_objects = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    pairs = frozenset((v, o) for o in range(num_objects) for v in draw(
        st.sets(st.integers(0, num_verbs - 1), min_size=1, max_size=num_verbs)))
    table = HoiCategoryTable(num_verbs, num_objects, pairs, frozenset())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    img = size * stride

    def rand_box():  # up to 40 px, so stamps reach radius 2-4
        bw, bh = rng.uniform(6, 40, 2).tolist()
        x1, y1 = float(rng.uniform(0, img - bw)), float(rng.uniform(0, img - bh))
        return (x1, y1, x1 + bw, y1 + bh)

    def scaled(box, f):
        cx, cy = (box[0] + box[2]) / 2.0, (box[1] + box[3]) / 2.0
        hw, hh = f * (box[2] - box[0]) / 2.0, f * (box[3] - box[1]) / 2.0
        return (cx - hw, cy - hh, cx + hw, cy + hh)

    annos = []
    for _ in range(draw(st.integers(1, 5))):
        v, o = draw(st.sampled_from(sorted(pairs)))
        if annos and draw(st.booleans()):
            prev = annos[draw(st.integers(0, len(annos) - 1))]
            f = draw(st.sampled_from([1.0, 0.5, 1.5, 3.0]))
            annos.append(HoiAnnotation(scaled(prev.human_box, f), scaled(prev.object_box, f), v, o))
        else:
            annos.append(HoiAnnotation(rand_box(), rand_box(), v, o))
    return table, annos


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_shared_class_case())
def test_build_mask_positive_precedence_matches_splat_oracle(case):
    table, annos = case
    shape = (table.num_verbs, 16, 16)
    got = build_mask(annos, table, shape, stride=4)
    want = build_mask_ref(annos, table.meaningful, *shape, 4)
    np.testing.assert_allclose(got, want, atol=1e-6)
    # every positive Gaussian survives unchanged, and negatives only fill the rest
    plain = build_mask(annos, table, shape, stride=4, hard_negatives=False)
    assert np.array_equal(got[plain > 0], plain[plain > 0])
    assert (plain[got < 0] == 0).all()
    for a in annos:
        x, y = a.interaction_point(4)
        px, py = min(max(int(x), 0), 15), min(max(int(y), 0), 15)
        assert got[a.verb, py, px] == 1.0


def test_build_mask_rejects_non_meaningful_annotation():
    table = HoiCategoryTable(2, 1, frozenset({(0, 0)}), frozenset())
    anno = HoiAnnotation((0, 0, 8, 8), (8, 0, 16, 8), 1, 0)
    with pytest.raises(DataError):
        build_mask([anno], table, (2, 8, 8), stride=4)


def test_build_mask_checks_channel_count():
    table = HoiCategoryTable(2, 1, frozenset({(0, 0)}), frozenset())
    anno = HoiAnnotation((0, 0, 8, 8), (8, 0, 16, 8), 0, 0)
    with pytest.raises(ShapeError):
        build_mask([anno], table, (3, 8, 8), stride=4)


# ===== signed-mask focal loss =====

def test_hna_loss_frozen_single_pixel_values():
    pred = Tensor((1, 1, 1, 1), [0.5])
    pos = hna_loss(pred, np.ones((1, 1, 1, 1)), 1)
    assert pos.scalar() == pytest.approx(0.25 * LN2, abs=1e-9)
    hard = hna_loss(pred, -np.ones((1, 1, 1, 1)), 1)
    assert hard.scalar() == pytest.approx(128 * 0.25 * LN2, abs=1e-6)
    plain = hna_loss(pred, np.zeros((1, 1, 1, 1)), 1)
    assert plain.scalar() == pytest.approx(0.25 * LN2, abs=1e-9)
    # the hard-negative center is weighted exactly (1-(-1))^7 = 2^7 over M=0
    assert hard.scalar() / plain.scalar() == pytest.approx(128.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_hna_loss_matches_elementwise_oracle(seed):
    rng = np.random.default_rng(seed)
    pred = Tensor.from_array(rng.uniform(0.01, 0.99, (1, 3, 5, 5)).astype(np.float32))
    mask = rng.uniform(-1.0, 1.0, (1, 3, 5, 5)).astype(np.float32)
    mask[0, 0, 0, 0] = 1.0
    mask[0, 1, 2, 2] = -1.0
    got = hna_loss(pred, mask, 4)
    want = hna_loss_ref(pred.data, mask, 4)
    assert got.scalar() == pytest.approx(want, abs=1e-6)


def test_hna_loss_guards_inputs():
    with pytest.raises(ValueError, match="probabilities"):
        hna_loss(Tensor((1, 1, 1, 1), [1.5]), np.zeros((1, 1, 1, 1)), 1)
    with pytest.raises(ValueError, match="mask"):
        hna_loss(Tensor((1, 1, 1, 1), [0.5]), np.full((1, 1, 1, 1), -1.5), 1)


def test_hna_loss_accepts_saturated_predictions():
    pred = Tensor((1, 1, 1, 2), [0.0, 1.0])
    mask = np.array([1.0, 0.0], np.float32).reshape(1, 1, 1, 2)
    val = hna_loss(pred, mask, 1).scalar()
    assert math.isfinite(val)


def test_hna_loss_normalizes_by_point_count_with_floor():
    pred = Tensor((1, 1, 1, 2), [0.3, 0.8])
    mask = np.array([1.0, 0.0], np.float32).reshape(1, 1, 1, 2)
    base = hna_loss(pred, mask, 1).scalar()
    assert hna_loss(pred, mask, 2).scalar() == pytest.approx(base / 2)
    assert hna_loss(pred, mask, 0).scalar() == pytest.approx(base)


def test_centernet_focal_equals_beta_zero_path():
    rng = np.random.default_rng(10)
    pred = Tensor.from_array(rng.uniform(0.05, 0.95, (1, 2, 6, 6)).astype(np.float32))
    target = np.zeros((1, 2, 6, 6), np.float32)
    target[0, 0, 3, 3] = 1.0
    target[0, 1, 1, 4] = 0.4
    focal = centernet_focal(pred, target, 2)
    via_hna = hna_loss(pred, target, 2)
    assert focal.scalar() == via_hna.scalar()
    assert focal.scalar() == pytest.approx(0.5 * hna_loss_ref(pred.data, target, 1, beta=0.0), abs=1e-9)
    with pytest.raises(ValueError, match="nonnegative"):
        centernet_focal(pred, target - 0.5, 2)


# ===== matching loss =====

def test_matching_loss_zero_when_predictions_hit_targets():
    a = HoiAnnotation((4, 4, 12, 12), (16, 8, 24, 16), 1, 0)
    pred = Tensor.from_array(np.random.default_rng(0).uniform(-3, 3, (1, 8, 8, 8)).astype(np.float32))
    # interaction point (3.5, 2.5) splats to pixel (3, 2); targets are
    # pixel - center/stride = (1, 0, -2, -1) on verb 1's channel group
    pred.data[0, 4:8, 2, 3] = [1.0, 0.0, -2.0, -1.0]
    loss = matching_loss(pred, [[a]], stride=4)
    assert loss.scalar() == 0.0


def test_matching_loss_l1_magnitude_and_count_normalization():
    a = HoiAnnotation((4, 4, 12, 12), (16, 8, 24, 16), 0, 0)
    pred = Tensor.from_array(np.zeros((1, 4, 8, 8), np.float32))
    # all-zero predictions: |1| + |0| + |-2| + |-1| = 4
    assert matching_loss(pred, [[a]], stride=4).scalar() == pytest.approx(4.0)
    assert matching_loss(pred, [[a, a]], stride=4).scalar() == pytest.approx(4.0)


def test_matching_loss_group_routing_and_validation():
    a = HoiAnnotation((4, 4, 12, 12), (16, 8, 24, 16), 3, 0)
    pred = Tensor.from_array(np.zeros((1, 8, 8, 8), np.float32))
    with pytest.raises(DataError):
        matching_loss(pred, [[a]], stride=4)
    with pytest.raises(ShapeError):
        matching_loss(Tensor.from_array(np.zeros((1, 6, 8, 8), np.float32)), [[a]], stride=4)
    assert matching_loss(pred, [[]], stride=4).scalar() == 0.0


def test_matching_loss_backward_is_signed_and_sparse():
    a = HoiAnnotation((4, 4, 12, 12), (16, 8, 24, 16), 0, 0)
    grads = []
    for annos in ([[a]], [[a, a]]):
        pred = Tensor.from_array(np.zeros((1, 4, 8, 8), np.float32))
        with tape() as tp:
            loss = matching_loss(pred, annos, stride=4)
            tp.backward(loss)
        grads.append(pred.grad)
    g = grads[0]
    # targets (1, 0, -2, -1); predictions 0 → sign(pred - target), which is
    # zero at the exactly-hit dy target
    assert np.count_nonzero(g) == 3
    assert g[0, 0, 2, 3] == pytest.approx(-1.0)
    assert g[0, 1, 2, 3] == 0.0
    assert g[0, 2, 2, 3] == pytest.approx(1.0)
    # [a, a] hits one pixel twice: both half gradients must land
    assert np.array_equal(grads[1], g)


# ===== detection losses =====

def _det_tensors(rng, num_objects=2, size=8):
    center = Tensor.from_array(rng.uniform(0.05, 0.95, (1, 1 + num_objects, size, size)).astype(np.float32))
    wh = Tensor.from_array(rng.uniform(0.5, 3.0, (1, 2, size, size)).astype(np.float32))
    reg = Tensor.from_array(rng.uniform(-0.4, 0.4, (1, 2, size, size)).astype(np.float32))
    return center, wh, reg


def test_detection_losses_parts_and_weighting():
    rng = np.random.default_rng(11)
    table = HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    center, wh, reg = _det_tensors(rng)
    annos = [[HoiAnnotation((4, 4, 13, 12), (18, 10, 27, 20), 0, 0)]]
    total, parts = detection_losses(center, wh, reg, annos, table, stride=4)
    assert set(parts) == {"det_center_h", "det_center_o", "det_wh", "det_reg"}
    recon = (parts["det_center_h"] + parts["det_center_o"]
             + 0.1 * parts["det_wh"] + parts["det_reg"])
    assert total.scalar() == pytest.approx(recon, rel=1e-5)


def test_detection_losses_dedupe_shared_human_box():
    rng = np.random.default_rng(12)
    table = HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    center, wh, reg = _det_tensors(rng)
    human = (4, 4, 13, 12)
    a1 = HoiAnnotation(human, (18, 10, 27, 20), 0, 0)
    a2 = HoiAnnotation(human, (2, 18, 11, 28), 1, 1)
    _, parts_two = detection_losses(center, wh, reg, [[a1, a2]], table, stride=4)
    _, parts_one = detection_losses(center, wh, reg, [[a1]], table, stride=4)
    # the duplicated human stamps once: same heatmap, same normalizer
    assert parts_two["det_center_h"] == pytest.approx(parts_one["det_center_h"])


def test_detection_losses_validates_channel_count():
    rng = np.random.default_rng(13)
    table = HoiCategoryTable(2, 3, frozenset({(0, 0)}), frozenset())
    center, wh, reg = _det_tensors(rng, num_objects=2)  # table wants 1+3
    with pytest.raises(ShapeError):
        detection_losses(center, wh, reg, [[]], table, stride=4)


# ===== total objective =====

def test_total_loss_frozen_arithmetic():
    one = lambda: Tensor((1, 1, 1, 1), [1.0])
    total = total_loss(one(), aux_interactions=[one(), one()], matching=one(),
                       detection=one(), lambda_aux=0.1)
    assert total.scalar() == pytest.approx(2.3)
