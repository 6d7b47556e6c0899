"""Kernel ops against the brute-force oracles, plus op-level contracts."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggnet import ops
from ggnet.tensor import ConfigError, ShapeError, Tensor, tape

from oracles import (
    bilinear_ref,
    conv2d_ref,
    deform_aggregate_grad_ref,
    deform_aggregate_ref,
    maxpool_nms_ref,
    topk_ref,
)


def _t(rng, shape, lo=-1.0, hi=1.0):
    return Tensor.from_array(rng.uniform(lo, hi, shape).astype(np.float32))


# ===== conv2d =====

@pytest.mark.parametrize("shape,cout,k,stride,pad", [
    ((1, 1, 5, 5), 1, 3, 1, 1),
    ((2, 3, 6, 6), 4, 3, 1, 1),
    ((1, 2, 7, 7), 3, 3, 2, 1),
    ((2, 2, 8, 8), 2, 5, 1, 2),
    ((1, 3, 6, 5), 2, 1, 1, 0),
    ((1, 2, 9, 9), 2, 3, 3, 0),
])
def test_conv2d_matches_oracle(shape, cout, k, stride, pad):
    rng = np.random.default_rng(hash((shape, cout, k, stride, pad)) % 2**32)
    x = _t(rng, shape)
    p = ops.ConvParams(_t(rng, (cout, shape[1], k, k)), rng.uniform(-1, 1, cout),
                       stride=stride, padding=pad)
    got = ops.conv2d(x, p)
    want = conv2d_ref(x.data, p.weight.data, p.bias.data.reshape(-1), stride, pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, atol=1e-6)


@st.composite
def _conv_case(draw):
    k = draw(st.sampled_from([1, 2, 3, 5]))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    least = max(1, k - 2 * pad)  # smallest input with one output pixel
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(least, least + 6)), draw(st.integers(least, least + 6)))
    return shape, draw(st.integers(1, 3)), k, stride, pad, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_conv_case())
def test_conv2d_matches_oracle_over_random_geometry(case):
    shape, cout, k, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    x = _t(rng, shape)
    p = ops.ConvParams(_t(rng, (cout, shape[1], k, k)), rng.uniform(-1, 1, cout),
                       stride=stride, padding=pad)
    got = ops.conv2d(x, p)
    want = conv2d_ref(x.data, p.weight.data, p.bias.data.reshape(-1), stride, pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, atol=1e-5)


def test_conv2d_validates_channels_and_size():
    rng = np.random.default_rng(0)
    x = _t(rng, (1, 3, 5, 5))
    p = ops.ConvParams(_t(rng, (2, 4, 3, 3)), np.zeros(2))
    with pytest.raises(ShapeError):
        ops.conv2d(x, p)
    small = _t(rng, (1, 2, 2, 2))
    big = ops.ConvParams(_t(rng, (1, 2, 5, 5)), np.zeros(1))
    with pytest.raises(ConfigError):
        ops.conv2d(small, big)


def test_conv_params_bias_forms():
    rng = np.random.default_rng(1)
    w = _t(rng, (3, 2, 3, 3))
    p = ops.ConvParams(w, [0.1, 0.2, 0.3])
    assert p.bias.shape == (1, 3, 1, 1)
    with pytest.raises(ShapeError):
        ops.ConvParams(w, [0.1, 0.2])
    with pytest.raises(ConfigError):
        ops.ConvParams(_t(rng, (1, 1, 2, 3)), [0.0])
    with pytest.raises(ConfigError):
        ops.ConvParams(w, [0, 0, 0], stride=0)


def test_conv2d_backward_accumulates_bias_and_weight():
    rng = np.random.default_rng(2)
    x = _t(rng, (1, 1, 4, 4))
    p = ops.ConvParams(_t(rng, (1, 1, 3, 3)), [0.0], padding=1)
    with tape() as tp:
        out = ops.weighted_sum(ops.conv2d(x, p))
        tp.backward(out)
    # d(sum)/d(bias) counts every output pixel
    assert p.bias.grad.reshape(-1)[0] == pytest.approx(16.0)
    # d(sum)/d(weight[ky,kx]) sums the aligned input window
    want = conv2d_ref(x.data, np.ones((1, 1, 3, 3), np.float32), [0.0], 1, 1).sum()
    assert p.weight.grad.sum() == pytest.approx(float(want), rel=1e-5)


# ===== pointwise & structural ops =====

def test_relu_values_and_grad():
    x = Tensor((1, 1, 1, 4), [-2.0, -0.5, 0.0, 3.0])
    with tape() as tp:
        y = ops.relu(x)
        tp.backward(ops.weighted_sum(y))
    assert y.data.reshape(-1).tolist() == [0.0, 0.0, 0.0, 3.0]
    assert x.grad.reshape(-1).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_sigmoid_values():
    x = Tensor((1, 1, 1, 3), [0.0, 10.0, -10.0])
    y = ops.sigmoid(x).data.reshape(-1)
    assert y[0] == pytest.approx(0.5)
    assert y[1] == pytest.approx(1.0, abs=1e-4)
    assert y[2] == pytest.approx(0.0, abs=1e-4)
    assert ((y >= 0) & (y <= 1)).all()


def test_add_requires_matching_shapes():
    a = Tensor((1, 1, 2, 2), [1, 2, 3, 4])
    b = Tensor((1, 1, 2, 2), [10, 20, 30, 40])
    assert ops.add(a, b).data.reshape(-1).tolist() == [11.0, 22.0, 33.0, 44.0]
    with pytest.raises(ShapeError):
        ops.add(a, Tensor((1, 1, 1, 4)))


def test_slice_channels_values_and_bounds():
    x = Tensor.from_array(np.arange(12, dtype=np.float32).reshape(1, 3, 2, 2))
    y = ops.slice_channels(x, 1, 3)
    assert y.shape == (1, 2, 2, 2)
    assert np.array_equal(y.data, x.data[:, 1:3])
    for lo, hi in [(-1, 2), (2, 2), (1, 4)]:
        with pytest.raises(ShapeError):
            ops.slice_channels(x, lo, hi)


def test_slice_channels_backward_routes_to_source_range():
    x = Tensor.from_array(np.zeros((1, 4, 1, 1), np.float32))
    with tape() as tp:
        y = ops.slice_channels(x, 2, 4)
        tp.backward(ops.weighted_sum(y, np.array([3.0, 5.0]).reshape(1, 2, 1, 1)))
    assert x.grad.reshape(-1).tolist() == [0.0, 0.0, 3.0, 5.0]


def test_group_mean_channels():
    x = Tensor.from_array(np.arange(8, dtype=np.float32).reshape(1, 8, 1, 1))
    y = ops.group_mean_channels(x, 2)
    # two blocks of four channels, averaged blockwise
    assert y.shape == (1, 4, 1, 1)
    assert y.data.reshape(-1).tolist() == [2.0, 3.0, 4.0, 5.0]
    with pytest.raises(ConfigError):
        ops.group_mean_channels(x, 3)


def test_weighted_sum_and_combine_scalars_track_exact():
    x = Tensor((1, 1, 1, 2), [1.5, 2.5])
    s = ops.weighted_sum(x, np.array([2.0, 4.0]).reshape(1, 1, 1, 2))
    assert s.item() == pytest.approx(13.0)
    assert s.exact == 13.0
    tot = ops.combine_scalars([(1.0, s), (0.5, ops.weighted_sum(x))])
    assert tot.scalar() == pytest.approx(15.0)
    with pytest.raises(ShapeError):
        ops.combine_scalars([(1.0, x)])


def test_combine_scalars_backward_scales_by_coef():
    a = Tensor((1, 1, 1, 1), [1.0])
    b = Tensor((1, 1, 1, 1), [2.0])
    with tape() as tp:
        tp.backward(ops.combine_scalars([(1.0, a), (0.1, b)]))
    assert a.grad.reshape(-1)[0] == pytest.approx(1.0)
    assert b.grad.reshape(-1)[0] == pytest.approx(0.1)


# ===== bilinear sampling =====

def test_bilinear_matches_oracle_on_random_points():
    rng = np.random.default_rng(3)
    fm = _t(rng, (1, 2, 6, 7))
    for _ in range(200):
        x = float(rng.uniform(-2.0, 8.0))
        y = float(rng.uniform(-2.0, 7.0))
        ch = int(rng.integers(0, 2))
        got = ops.bilinear_sample(fm, x, y, ch)
        want = bilinear_ref(fm.data[0, ch], x, y)
        assert got == pytest.approx(want, abs=1e-6)


def test_bilinear_integer_coordinates_read_exact_pixel():
    rng = np.random.default_rng(4)
    fm = _t(rng, (1, 1, 5, 5))
    for y in range(5):
        for x in range(5):
            assert ops.bilinear_sample(fm, float(x), float(y), 0) == float(fm.data[0, 0, y, x])


def test_bilinear_zero_outside_map():
    fm = Tensor.from_array(np.ones((1, 1, 4, 4), np.float32))
    assert ops.bilinear_sample(fm, -1.5, 2.0, 0) == 0.0
    assert ops.bilinear_sample(fm, 2.0, 5.0, 0) == 0.0
    # half a pixel outside blends toward zero
    assert ops.bilinear_sample(fm, -0.5, 2.0, 0) == pytest.approx(0.5)
    # all four corners off a negative map: the zero is +0.0, as the oracle's
    neg = np.full((3, 3), -2.0, np.float32)
    got = ops.bilinear_sample(Tensor.from_array(neg[None, None]), -10.0, -10.0, 0)
    assert math.copysign(1.0, got) == math.copysign(1.0, bilinear_ref(neg, -10.0, -10.0)) == 1.0


# ===== deform_aggregate =====

def _deform_case(rng, b=1, c=2, h=6, w=6, cout=2, k=3, stride=1, pad=1):
    n = k * k
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    fm = _t(rng, (b, c, h, w))
    off = _t(rng, (b, 2 * n, ho, wo), -2.0, 2.0)
    wts = _t(rng, (b, n, ho, wo), -0.5, 1.5)
    p = ops.ConvParams(_t(rng, (cout, c, k, k)), rng.uniform(-0.5, 0.5, cout),
                       stride=stride, padding=pad)
    return fm, off, wts, p


@pytest.mark.parametrize("seed,stride,field,k", [
    pytest.param(0, 1, "uniform", 3, id="0-1"),
    pytest.param(1, 1, "uniform", 3, id="1-1"),
    pytest.param(2, 2, "uniform", 3, id="2-2"),
    pytest.param(3, 1, "grid", 3, id="grid-3-1"),
    pytest.param(4, 2, "grid", 3, id="grid-4-2"),
    pytest.param(5, 1, "off_map", 3, id="off_map-5-1"),
    pytest.param(6, 2, "uniform", 1, id="k1-6-2"),
    pytest.param(7, 1, "uniform", 5, id="k5-7-1"),
    pytest.param(8, 1, "grid", 1, id="grid-k1-8-1"),
    pytest.param(9, 2, "grid", 5, id="grid-k5-9-2"),
    pytest.param(10, 2, "off_map", 1, id="off_map-k1-10-2"),
    pytest.param(11, 2, "off_map", 5, id="off_map-k5-11-2"),
])
def test_deform_aggregate_matches_oracle(seed, stride, field, k):
    rng = np.random.default_rng(seed)
    fm, off, wts, p = _deform_case(rng, k=k, stride=stride, pad=k // 2, h=7, w=7)
    if field == "grid":
        # integer offsets put every tap exactly on grid lines (ceil-1 cell rule)
        off.data = np.round(off.data)
    elif field == "off_map":
        # all four corners of every tap fall outside the 7x7 map
        off.data = off.data + np.where(off.data < 0, -20.0, 20.0).astype(np.float32)
    with tape() as tp:
        got = ops.deform_aggregate(fm, off, wts, p)
        tp.backward(ops.weighted_sum(got, rng.uniform(-1, 1, got.shape)))
    want = deform_aggregate_ref(fm.data, off.data, wts.data, p.weight.data,
                                p.bias.data.reshape(-1), stride=stride, padding=k // 2)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, atol=1e-6)
    want_grads = deform_aggregate_grad_ref(fm.data, off.data, wts.data, p.weight.data,
                                           got.grad, stride=stride, padding=k // 2)
    for t, want_grad in zip((fm, off, wts, p.weight, p.bias), want_grads):
        np.testing.assert_allclose(t.grad, want_grad.reshape(t.shape), rtol=1e-6, atol=1e-6)


def _tap_offsets(rng, b, n, h, w, k, stride, pad, ho, wo):
    """Offsets whose taps mix four kinds: on the map, on the integer grid,
    straddling an edge (cell at -1 or w-1 / h-1) and far off the map."""
    tx, ty = np.tile(np.arange(k), k), np.repeat(np.arange(k), k)
    grid = [(tx[:, None, None] + np.arange(wo)[None, None] * stride - pad) * np.ones((1, ho, 1)),
            (ty[:, None, None] + np.arange(ho)[None, :, None] * stride - pad) * np.ones((1, 1, wo))]
    kind = rng.integers(0, 4, (b, n, ho, wo))
    off = np.empty((b, 2 * n, ho, wo))
    for axis, size in ((0, w), (1, h)):
        on_map = rng.uniform(-0.5, size - 0.5, kind.shape)
        edge = np.where(rng.integers(0, 2, kind.shape) == 0,
                        rng.uniform(-1.0, 0.0, kind.shape), rng.uniform(size - 1.0, size, kind.shape))
        far = rng.choice([-1.0, 1.0], kind.shape) * rng.uniform(20.0, 40.0, kind.shape) + size / 2
        target = np.choose(kind, [on_map, np.round(on_map), edge, far])
        off[:, axis::2] = target - grid[axis][None]
    return off.astype(np.float32)


@st.composite
def _deform_geometry(draw):
    k = draw(st.sampled_from([1, 3, 5]))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    least = max(1, k - 2 * pad)  # smallest map with one output pixel
    h = draw(st.integers(least, least + 5))
    w = draw(st.sampled_from([v for v in range(least, least + 6) if v != h]))
    return (draw(st.integers(1, 3)), draw(st.integers(1, 4)), h, w, draw(st.integers(1, 3)),
            k, stride, pad, draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_deform_geometry())
def test_deform_aggregate_matches_oracle_over_random_geometry(case):
    b, c, h, w, cout, k, stride, pad, seed = case
    rng = np.random.default_rng(seed)
    n = k * k
    ho = (h + 2 * pad - k) // stride + 1
    wo = (w + 2 * pad - k) // stride + 1
    fm = _t(rng, (b, c, h, w))
    off = Tensor.from_array(_tap_offsets(rng, b, n, h, w, k, stride, pad, ho, wo))
    wts = _t(rng, (b, n, ho, wo), -0.5, 1.5)
    p = ops.ConvParams(_t(rng, (cout, c, k, k)), rng.uniform(-0.5, 0.5, cout),
                       stride=stride, padding=pad)
    with tape() as tp:
        got = ops.deform_aggregate(fm, off, wts, p)
        tp.backward(ops.weighted_sum(got, rng.uniform(-1, 1, got.shape)))
    want = deform_aggregate_ref(fm.data, off.data, wts.data, p.weight.data,
                                p.bias.data.reshape(-1), stride=stride, padding=pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, atol=1e-5)
    want_grads = deform_aggregate_grad_ref(fm.data, off.data, wts.data, p.weight.data,
                                           got.grad, stride=stride, padding=pad)
    for t, want_grad in zip((fm, off, wts, p.weight, p.bias), want_grads):
        np.testing.assert_allclose(t.grad, want_grad.reshape(t.shape), rtol=1e-5, atol=1e-5)


def test_deform_aggregate_zero_offsets_unit_weights_is_conv2d():
    rng = np.random.default_rng(5)
    fm = _t(rng, (2, 3, 8, 8))
    # negative border: off-map taps read the zero border, and the sum must stay +0.0
    fm.data[:, :, [0, -1], :] = -np.abs(fm.data[:, :, [0, -1], :])
    fm.data[:, :, :, [0, -1]] = -np.abs(fm.data[:, :, :, [0, -1]])
    p = ops.ConvParams(_t(rng, (4, 3, 5, 5)), rng.uniform(-1, 1, 4), padding=2)
    n = 25
    off = Tensor.from_array(np.zeros((2, 2 * n, 8, 8), np.float32))
    wts = Tensor.from_array(np.ones((2, n, 8, 8), np.float32))
    agg = ops.deform_aggregate(fm, off, wts, p)
    conv = ops.conv2d(fm, p)
    assert np.array_equal(agg.data, conv.data)  # bitwise
    # the backward pass degenerates too: featmap, kernel and bias grads match bitwise
    proj = rng.uniform(-1, 1, conv.shape)
    grads = []
    for op in (lambda: ops.deform_aggregate(fm, off, wts, p), lambda: ops.conv2d(fm, p)):
        for t in (fm, p.weight, p.bias):
            t.zero_grad()
        with tape() as tp:
            tp.backward(ops.weighted_sum(op(), proj))
        grads.append([t.grad.copy() for t in (fm, p.weight, p.bias)])
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_deform_aggregate_validates_field_shapes():
    rng = np.random.default_rng(6)
    fm, off, wts, p = _deform_case(rng)
    bad_off = Tensor.from_array(np.zeros((1, 4, 6, 6), np.float32))
    with pytest.raises(ConfigError):
        ops.deform_aggregate(fm, bad_off, wts, p)
    bad_grid = Tensor.from_array(np.zeros((1, 18, 5, 6), np.float32))
    with pytest.raises(ShapeError):
        ops.deform_aggregate(fm, bad_grid, wts, p)
    bad_fm = _t(rng, (1, 3, 6, 6))
    with pytest.raises(ShapeError):
        ops.deform_aggregate(bad_fm, off, wts, p)


def test_deform_aggregate_frozen_inputs_keep_the_other_grads():
    rng = np.random.default_rng(12)
    fm, off, wts, p = _deform_case(rng, b=2, c=3, h=5, w=7, cout=2, k=3, pad=1)
    proj = rng.uniform(-1, 1, (2, 2, 5, 7))
    inputs = (fm, off, wts, p.weight, p.bias)

    def grads():
        for t in inputs:
            t.zero_grad()
        with tape() as tp:
            tp.backward(ops.weighted_sum(ops.deform_aggregate(fm, off, wts, p), proj))
        return [None if t.grad is None else t.grad.tobytes() for t in inputs]

    want = grads()
    assert None not in want
    for i, frozen in enumerate(inputs):
        frozen.requires_grad = False
        got = grads()
        frozen.requires_grad = True
        assert got[i] is None
        assert got[:i] + got[i + 1:] == want[:i] + want[i + 1:]  # byte for byte


def test_deform_aggregate_memory_peak_is_a_few_patch_arrays():
    """At train_full shapes the traced peak of one forward, and of its backward
    above what the forward keeps, stays within a small multiple of the one
    (B, C*n, P) float64 patch array: the sampler walks the feature planes a
    channel at a time, so only the patches and their gradient carry a channel
    axis."""
    rng = np.random.default_rng(13)
    b, c, hw, k = 8, 16, 16, 3
    fm, off, wts, p = _deform_case(rng, b=b, c=c, h=hw, w=hw, cout=c, k=k, pad=1)
    off.data *= 2.0
    patch_bytes = b * c * k * k * hw * hw * 8
    proj = rng.uniform(-1, 1, (b, c, hw, hw))
    with tape() as tp:
        tracemalloc.start()
        try:
            out = ops.deform_aggregate(fm, off, wts, p)
            forward = tracemalloc.get_traced_memory()[1]
            head = ops.weighted_sum(out, proj)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]  # what the forward keeps
            tp.backward(head)
            backward = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert forward <= 2.5 * patch_bytes, forward / patch_bytes
    assert backward <= 5.0 * patch_bytes, backward / patch_bytes


# ===== peak extraction =====

def test_maxpool_nms_matches_oracle():
    rng = np.random.default_rng(7)
    x = Tensor.from_array(rng.uniform(0, 1, (2, 3, 9, 9)).astype(np.float32))
    got = ops.maxpool_nms(x).data
    want = maxpool_nms_ref(x.data)
    assert np.array_equal(got, want)


def test_maxpool_nms_keeps_plateaus_and_borders():
    x = np.zeros((1, 1, 4, 4), np.float32)
    x[0, 0, 1, 1] = x[0, 0, 1, 2] = 0.7  # adjacent equal maxima both survive
    x[0, 0, 3, 3] = 0.9  # corner peak
    out = ops.maxpool_nms(Tensor.from_array(x)).data
    assert out[0, 0, 1, 1] == out[0, 0, 1, 2] == pytest.approx(0.7)
    assert out[0, 0, 3, 3] == pytest.approx(0.9)
    assert out[0, 0, 0, 0] == 0.0


def test_topk_matches_oracle_and_breaks_ties_by_index():
    rng = np.random.default_rng(8)
    vals = rng.integers(0, 5, (1, 2, 4, 4)).astype(np.float32)  # many ties
    t = Tensor.from_array(vals)
    got = ops.topk(t, 10)
    assert got.shape == (10, 4) and got.dtype == np.float64
    assert got.tolist() == [list(r) for r in topk_ref(vals[0], 10)]
    scores = got[:, 0].tolist()
    assert scores == sorted(scores, reverse=True)


@st.composite
def _peak_maps(draw, levels):
    """Float32 maps mixing quantised levels (ties, plateaus) with free values."""
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    free = rng.uniform(-1.0, 1.0, shape)
    return np.where(rng.random(shape) < 0.6, rng.choice(levels, shape), free).astype(np.float32)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_peak_maps([0.0, 0.5, 1.0, -np.inf, np.inf, np.nan]))
def test_maxpool_nms_matches_oracle_over_random_maps(x):
    got = ops.maxpool_nms(Tensor.from_array(x)).data
    assert np.array_equal(got, maxpool_nms_ref(x))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_peak_maps([0.0, 0.5, 1.0, -np.inf, np.inf]), st.integers(1, 200), st.integers(0, 1))
def test_topk_matches_oracle_over_random_maps(x, k, batch):
    batch = min(batch, x.shape[0] - 1)
    assert ops.topk(Tensor.from_array(x), k, batch).tolist() == [list(r) for r in topk_ref(x[batch], k)]


def test_sampler_and_topk_reject_out_of_range_indices():
    fm = Tensor.from_array(np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2))
    for kwargs, name, bad, size in [
            ({"channel": -1}, "channel", -1, 3), ({"channel": 3}, "channel", 3, 3),
            ({"channel": 0, "batch": -1}, "batch", -1, 2),
            ({"channel": 0, "batch": 2}, "batch", 2, 2)]:
        with pytest.raises(ShapeError, match=rf"{name} index {bad} out of range \[0, {size}\)"):
            ops.bilinear_sample(fm, 0.5, 0.5, **kwargs)
    for bad in (-1, 2):
        with pytest.raises(ShapeError, match=rf"batch index {bad} out of range \[0, 2\)"):
            ops.topk(fm, 2, batch=bad)
    assert ops.bilinear_sample(fm, 1.0, 1.0, channel=2, batch=1) == 23.0


def test_topk_clips_k_and_rejects_nonpositive():
    t = Tensor.from_array(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2))
    assert len(ops.topk(t, 99)) == 4
    with pytest.raises(ValueError):
        ops.topk(t, 0)


def test_op_counts_track_invocations():
    ops.reset_op_counts()
    rng = np.random.default_rng(9)
    x = _t(rng, (1, 2, 5, 5))
    p = ops.ConvParams(_t(rng, (2, 2, 3, 3)), np.zeros(2), padding=1)
    ops.conv2d(x, p)
    ops.conv2d(x, p)
    ops.relu(x)
    assert ops.op_counts["conv2d"] == 2
    assert ops.op_counts["relu"] == 1
    ops.reset_op_counts()
    assert ops.op_counts.get("conv2d", 0) == 0
