"""Peak selection, point matching, box decoding, triplet assembly."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggnet import decoder
from ggnet.decoder import (
    DROP_REASONS,
    HoiTriplet,
    _decode_boxes,
    assemble_triplets,
    format_triplet,
    load_triplets,
    parse_triplet_line,
    save_triplets,
    select_candidates,
)
from ggnet.losses import HoiCategoryTable
from ggnet.model import ForwardOutputs
from ggnet.tensor import ShapeError, Tensor

from helpers import match_point, mutated_fields, valid_box
from oracles import assemble_triplets_ref, match_point_ref


def _t(arr):
    return Tensor.from_array(np.asarray(arr, np.float32))


def _decode_box(x, y, det_wh, det_reg, stride):
    """Image 0's center pixel (x, y) through the decoder's ``_decode_boxes``:
    the box as a tuple of floats, or None if degenerate."""
    boxes, ok = _decode_boxes(np.array([x], np.float64), np.array([y], np.float64),
                              det_wh.data[0], det_reg.data[0], stride)
    return tuple(boxes[0].tolist()) if ok[0] else None


# ===== candidate selection =====

def test_select_candidates_keeps_isolated_peaks_sorted():
    heat = np.zeros((1, 2, 4, 4), np.float32)
    heat[0, 0, 1, 1] = 0.9
    heat[0, 0, 3, 3] = 0.5
    heat[0, 1, 0, 2] = 0.7
    cands = select_candidates(_t(heat), k=10)
    assert cands.dtype == np.float64
    assert cands.tolist() == [  # rows (score, channel, y, x)
        [pytest.approx(0.9), 0, 1, 1],
        [pytest.approx(0.7), 1, 0, 2],
        [pytest.approx(0.5), 0, 3, 3],
    ]


def test_select_candidates_filters_suppressed_pixels():
    heat = np.full((1, 1, 4, 4), 0.2, np.float32)
    heat[0, 0, 2, 2] = 0.8
    cands = select_candidates(_t(heat), k=16)
    # every non-max pixel is zeroed by the 3x3 filter and then dropped;
    # the constant corner pixels far from the peak survive as plateau maxima
    assert cands[0].tolist() == [pytest.approx(0.8), 0, 2, 2]
    assert (cands[:, 0] > 0).all()
    assert len(cands) < 16


def test_select_candidates_keeps_plateau_ties_in_index_order():
    heat = np.zeros((1, 1, 4, 4), np.float32)
    heat[0, 0, 1, 1] = 0.9
    heat[0, 0, 1, 2] = 0.9
    cands = select_candidates(_t(heat), k=4)
    assert cands[:, [3, 2]].tolist() == [[1, 1], [2, 1]]  # (x, y)


def test_select_candidates_respects_k():
    heat = np.zeros((1, 1, 8, 8), np.float32)
    for i, (y, x) in enumerate([(0, 0), (0, 4), (4, 0), (4, 4)]):
        heat[0, 0, y, x] = 0.9 - 0.1 * i
    cands = select_candidates(_t(heat), k=2)
    assert cands[:, 2:].tolist() == [[0, 0], [0, 4]]  # (y, x)


# ===== point matching =====

def _rows(*cands):
    """(score, x, y) triples -> candidate rows (score, channel 0, y, x)."""
    return np.array([(s, 0, y, x) for s, x, y in cands], np.float64).reshape(-1, 4)


def test_match_point_frozen_case_distance_over_score():
    a = (1.0, 6, 10)    # cost |8-6|/1.0  = 2
    b = (0.25, 7, 10)   # cost |8-7|/0.25 = 4
    assert match_point(10, 10, (2.0, 0.0), _rows(a, b)) == 0
    assert match_point(10, 10, (2.0, 0.0), _rows(b, a)) == 1  # order-independent


def test_match_point_empty_pool_raises():
    with pytest.raises(ValueError, match="no candidates"):
        match_point(1, 1, (0.0, 0.0), _rows())


def test_match_point_tie_prefers_higher_score():
    a = (0.5, 4, 6)  # cost 2/0.5 = 4
    b = (1.0, 4, 8)  # cost 4/1.0 = 4
    assert match_point(4, 4, (0.0, 0.0), _rows(a, b)) == 1
    assert match_point(4, 4, (0.0, 0.0), _rows(b, a)) == 0


def test_match_point_norm_selects_different_winner():
    pool = _rows((1.0, 10, 5),   # dist l1=5, l2=5
                 (1.0, 7, 7))    # dist l1=6, l2=4.24
    assert match_point(10, 10, (0.0, 0.0), pool, norm="l1") == 0
    assert match_point(10, 10, (0.0, 0.0), pool, norm="l2") == 1
    with pytest.raises(ValueError):
        match_point(10, 10, (0.0, 0.0), pool, norm="linf")


@pytest.mark.parametrize("norm", ["l1", "l2"])
def test_match_point_matches_exhaustive_oracle(norm):
    rng = np.random.default_rng(hash(norm) % 2**32)
    for _ in range(250):
        n = int(rng.integers(1, 12))
        pool = _rows(*[(float(rng.uniform(0.05, 1.0)), int(rng.integers(0, 16)),
                        int(rng.integers(0, 16))) for _ in range(n)])
        x, y = int(rng.integers(0, 16)), int(rng.integers(0, 16))
        off = (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4)))
        assert match_point(x, y, off, pool, norm) == match_point_ref((x, y), off, pool, norm)


# ===== box decoding =====

def test_decode_box_frozen_case():
    wh = np.zeros((1, 2, 12, 12), np.float32)
    reg = np.zeros((1, 2, 12, 12), np.float32)
    wh[0, :, 8, 8] = [4.0, 6.0]
    box = _decode_box(8, 8, _t(wh), _t(reg), stride=4)
    assert box == (24.0, 20.0, 40.0, 44.0)


def test_decode_box_applies_subpixel_offset():
    wh = np.zeros((1, 2, 8, 8), np.float32)
    reg = np.zeros((1, 2, 8, 8), np.float32)
    wh[0, :, 3, 4] = [2.0, 2.0]
    reg[0, :, 3, 4] = [0.5, -0.25]
    box = _decode_box(4, 3, _t(wh), _t(reg), stride=4)
    assert box == pytest.approx((14.0, 7.0, 22.0, 15.0))


def test_decode_box_degenerate_and_clamped():
    wh = np.zeros((1, 2, 8, 8), np.float32)
    reg = np.zeros((1, 2, 8, 8), np.float32)
    assert _decode_box(2, 2, _t(wh), _t(reg), 4) is None
    wh[0, :, 0, 0] = [50.0, 50.0]
    box = _decode_box(0, 0, _t(wh), _t(reg), 4)
    assert box == (0.0, 0.0, 32.0, 32.0)  # clamped to the 8*4 image
    wh[0, :, 0, 7] = [2.0, 2.0]
    reg[0, 0, 0, 7] = 10.0  # pushes the whole box past the right edge
    assert _decode_box(7, 0, _t(wh), _t(reg), 4) is None


# ===== full assembly =====

def _outputs(interaction, offsets, det_center, det_wh, det_reg):
    dummy = Tensor((1, 1, 1, 1), [0.0])
    return ForwardOutputs(
        backbone_feat=dummy, glance_feat=dummy, glance_heatmap=None,
        points_coarse=None, gaze1_feat=None, gaze1_heatmap=None,
        gaze2_context=None, points_final=None, gaze2_feat=None,
        gaze2_heatmap=_t(interaction), match_offsets=_t(offsets),
        det_center=_t(det_center), det_wh=_t(det_wh),
        det_reg=_t(det_reg))


def _scene():
    """Two interactions on an 8x8 grid: verb 1 with a class-1 object, verb 0
    with a class-0 object, sharing one human."""
    inter = np.zeros((1, 2, 8, 8), np.float32)
    inter[0, 1, 3, 4] = 0.9
    inter[0, 0, 6, 1] = 0.5
    det = np.zeros((1, 3, 8, 8), np.float32)
    det[0, 0, 3, 2] = 0.8   # human
    det[0, 1, 3, 6] = 0.7   # object class 0
    det[0, 2, 6, 6] = 0.6   # object class 1
    off = np.zeros((1, 8, 8, 8), np.float32)
    off[0, 4:8, 3, 4] = [2.0, 0.0, -2.0, -3.0]   # verb-1 group: human (2,3), object (6,6)
    off[0, 0:4, 3, 4] = [99.0, 99.0, 99.0, 99.0]  # wrong group -> garbage targets
    off[0, 0:4, 6, 1] = [-1.0, 3.0, -5.0, 3.0]   # verb-0 group: human (2,3), object (6,3)
    wh = np.zeros((1, 2, 8, 8), np.float32)
    wh[0, :, 3, 2] = [4.0, 6.0]
    wh[0, :, 3, 6] = [2.0, 2.0]
    wh[0, :, 6, 6] = [4.0, 4.0]
    reg = np.zeros((1, 2, 8, 8), np.float32)
    reg[0, :, 6, 6] = [0.5, 0.5]
    return inter, off, det, wh, reg


def test_assemble_triplets_end_to_end():
    outs = _outputs(*_scene())
    trips = assemble_triplets(outs, stride=4)
    assert len(trips) == 2
    first, second = trips
    assert (first.verb, first.object_class) == (1, 1)
    assert first.score == pytest.approx(0.9 * 0.8 * 0.6)
    assert first.human_box == (0.0, 0.0, 16.0, 24.0)
    assert first.object_box == (18.0, 18.0, 32.0, 32.0)
    assert (second.verb, second.object_class) == (0, 0)
    assert second.score == pytest.approx(0.5 * 0.8 * 0.7)
    assert second.object_box == (20.0, 8.0, 28.0, 16.0)
    assert first.score > second.score  # descending order


def test_assemble_triplets_table_filter_and_k():
    outs = _outputs(*_scene())
    only_v1 = HoiCategoryTable(2, 2, frozenset({(1, 1)}), frozenset())
    trips = assemble_triplets(outs, stride=4, table=only_v1)
    assert [(t.verb, t.object_class) for t in trips] == [(1, 1)]
    assert len(assemble_triplets(outs, stride=4, k=1)) == 1


def test_assemble_triplets_without_humans_yields_nothing():
    inter, off, det, wh, reg = _scene()
    det[0, 0] = 0.0
    outs = _outputs(inter, off, det, wh, reg)
    assert assemble_triplets(outs, stride=4) == []


def test_assemble_triplets_single_group_offsets():
    inter, off, det, wh, reg = _scene()
    inter[0, 0, 6, 1] = 0.0  # keep only the verb-1 interaction
    off = off[:, 4:8] * 0 + off[:, 4:8]  # single group uses channels 0:4
    outs = _outputs(inter, off, det, wh, reg)
    trips = assemble_triplets(outs, stride=4)
    assert [(t.verb, t.object_class) for t in trips] == [(1, 1)]


def test_assemble_triplets_returns_python_floats():
    # the verb-1 object box is clamped to the 8*4 image's right and bottom edge
    inter, off, det, wh, reg = _scene()
    trips = assemble_triplets(_outputs(inter, off, det, wh, reg), stride=4)
    assert trips[0].object_box[2:] == (32.0, 32.0)
    for t in trips:
        assert all(type(v) is float for v in (*t.human_box, *t.object_box, t.score))
        assert type(t.verb) is int and type(t.object_class) is int
    wh_map = np.zeros((1, 2, 8, 8), np.float32)
    wh_map[0, :, 0, 0] = [50.0, 50.0]
    box = _decode_box(0, 0, _t(wh_map), _t(np.zeros_like(wh_map)), 4)
    assert [type(v) for v in box] == [float] * 4


def test_decoder_rejects_out_of_range_batch():
    outs = _outputs(*_scene())
    for bad in (-1, 1):
        with pytest.raises(ShapeError, match=rf"batch index {bad} out of range \[0, 1\)"):
            select_candidates(outs.interaction_map, batch=bad)
        with pytest.raises(ShapeError, match=rf"batch index {bad} out of range \[0, 1\)"):
            assemble_triplets(outs, stride=4, batch=bad)


def test_assemble_triplets_counts_each_dropped_peak_once():
    inter, off, det, wh, reg = _scene()
    no_humans = det.copy()
    no_humans[0, 0] = 0.0
    flat = wh.copy()
    flat[0, :, 6, 6] = 0.0  # the verb-1 object has no size
    only_v1 = HoiCategoryTable(2, 2, frozenset({(1, 1)}), frozenset())
    nothing = HoiCategoryTable(2, 2, frozenset(), frozenset())
    cases = [  # (center maps, size maps, table) -> (empty_pool, degenerate_box, table_filter)
        ((det, wh, None), (0, 0, 0)),
        ((no_humans, wh, None), (2, 0, 0)),
        ((det, flat, None), (0, 1, 0)),
        ((det, wh, only_v1), (0, 0, 1)),
        # a degenerate box is counted before the table filter, never twice
        ((det, flat, nothing), (0, 1, 1)),
    ]
    for (centers, sizes, table), want in cases:
        outs = _outputs(inter, off, centers, sizes, reg)
        decoder.reset_drop_counts()
        trips = assemble_triplets(outs, stride=4, table=table)
        drops = tuple(decoder.drop_counts.get(r, 0) for r in DROP_REASONS)
        assert drops == want
        assert sum(drops) + len(trips) == 2  # the scene's two peaks
    decoder.reset_drop_counts()
    assert decoder.drop_counts == {}


# ===== array decoder against the peak-by-peak oracle =====

def _maps(rng, shape, levels, lo, hi):
    """Float32 maps whose entries are, at random, quantised levels (ties and
    plateaus) or free values in [lo, hi]."""
    free = rng.uniform(lo, hi, shape)
    return np.where(rng.random(shape) < 0.5, rng.choice(levels, shape), free).astype(np.float32)


@st.composite
def _forward_case(draw):
    """Hypothesis draws the structure; a drawn seed fills the maps."""
    verbs, objects = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    b, h, w = draw(st.integers(1, 2)), draw(st.integers(2, 7)), draw(st.integers(2, 7))
    groups = draw(st.sampled_from([1, verbs]))
    odd_offsets, odd_sizes, far_centers = (draw(st.booleans()) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = [0.0, 0.25, 0.5, 0.75, 1.0]
    inter = _maps(rng, (b, verbs, h, w), scores, 0.0, 1.0)
    det = _maps(rng, (b, 1 + objects, h, w), scores, 0.0, 1.0)
    empty = draw(st.sampled_from(["none"] * 4 + ["humans", "objects"]))
    if empty == "humans":
        det[:, 0] = 0.0
    elif empty == "objects":
        det[:, 1:] = 0.0
    off_levels = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    if odd_offsets:  # whole rows of NaN or inf costs
        off_levels += [np.nan, np.inf, -np.inf]
    off = _maps(rng, (b, 4 * groups, h, w), off_levels, -8.0, 8.0)
    wh_levels = [1.0, 2.0, 4.0, 50.0] + ([0.0, -1.0] if odd_sizes else [])
    wh = _maps(rng, (b, 2, h, w), wh_levels, 0.125, 6.0)
    reg = _maps(rng, (b, 2, h, w), [-0.5, 0.0, 0.5] + ([8.0] if far_centers else []), -1.0, 1.0)
    outs = _outputs(inter, off, det, wh, reg)
    pairs = [(v, o) for v in range(verbs) for o in range(objects)]
    meaningful = draw(st.one_of(st.none(), st.frozensets(st.sampled_from(pairs))))
    table = None if meaningful is None else HoiCategoryTable(
        verbs, objects, meaningful, frozenset())
    return outs, table, draw(st.sampled_from([1, 2, 3, 5, 100])), \
        draw(st.integers(1, 4)), draw(st.integers(0, b - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_forward_case())
def test_assemble_triplets_matches_peak_by_peak_oracle(case):
    outs, table, k, stride, batch = case
    got = assemble_triplets(outs, stride, k=k, table=table, batch=batch)
    want = assemble_triplets_ref(outs, stride, k=k, batch=batch,
                                 meaningful=None if table is None else table.meaningful)
    assert [(t.human_box, t.object_box, t.verb, t.object_class, t.score) for t in got] == want


# ===== text interchange =====

def test_triplet_text_roundtrip(tmp_path):
    t1 = HoiTriplet((0.0, 0.0, 16.0, 24.0), (18.0, 18.0, 32.0, 32.0), 1, 1, 0.432)
    t2 = HoiTriplet((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0), 0, 0, 0.28)
    line = format_triplet("im9", t1)
    assert len(line.split()) == 12
    assert parse_triplet_line(line) == ("im9", t1)
    path = tmp_path / "trips.txt"
    save_triplets(path, {"b": [t1], "a": [t2]})
    text = path.read_text().splitlines()
    assert text[0].startswith("a ") and text[1].startswith("b ")
    assert load_triplets(path) == {"a": [t2], "b": [t1]}


def test_triplet_line_field_count():
    with pytest.raises(ValueError):
        parse_triplet_line("img 1 1 0.5 0 0 1 1 2 2 3")


def test_bad_triplet_number_names_the_line_and_file(tmp_path):
    bad = "img 1 1 x 0 0 1 1 2 2 3 3"
    with pytest.raises(ValueError, match=re.escape(f"bad triplet line {bad!r}")):
        parse_triplet_line(bad)
    path = tmp_path / "trips.txt"
    path.write_text("img 1 1 0.5 0 0 1 1 2 2 3 3\n\n" + bad + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 3: bad triplet line {bad!r}")):
        load_triplets(path)


VALID_TRIPLET = "img 1 0 0.5 0.0 0.0 10.0 10.0 20.0 0.0 30.0 10.0"


@pytest.fixture(scope="module")
def triplet_path(tmp_path_factory):
    return tmp_path_factory.mktemp("trips") / "trips.txt"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_fields(VALID_TRIPLET.split()))
@example("img 0 0 nan 0 0 10 10 20 0 30 10".split())
@example("img 0 0 0.5 10 0 0 10 20 0 30 10".split())
def test_triplet_reader_rejects_or_reads_a_valid_record(triplet_path, fields):
    triplet_path.write_text(VALID_TRIPLET + "\n" + " ".join(fields) + "\n")
    try:
        dets = load_triplets(triplet_path)
    except ValueError as exc:
        assert str(exc).startswith(f"{triplet_path} line 2: ")
        return
    for t in dets[fields[0]]:
        assert valid_box(t.human_box) and valid_box(t.object_box)
        assert t.verb >= 0 and t.object_class >= 0 and math.isfinite(t.score)
