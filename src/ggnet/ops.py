"""Differentiable kernels: convolution, activations, bilinear sampling, weighted
deformable aggregation, and the small glue ops the heads and losses need.

Every op follows the same pattern: compute the forward value (reductions
accumulate in float64, storage stays float32), define ``backward(g)``, which
accumulates the output gradient ``g`` into the inputs' ``grad`` buffers, and
hand it to ``tensor.on_tape`` with those inputs; ``on_tape`` decides whether
the step runs. ``maxpool_nms`` and ``topk`` are inference-only and record
nothing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import ConfigError, ShapeError, Tensor, on_tape

# Running tally of op invocations, used by the inference-graph audit.
op_counts: dict[str, int] = {}


def reset_op_counts() -> None:
    op_counts.clear()


def _count(name: str) -> None:
    op_counts[name] = op_counts.get(name, 0) + 1


def check_index(name: str, index: int, size: int) -> None:
    """Reject an index outside [0, size): a negative one would wrap silently."""
    if not 0 <= index < size:
        raise ShapeError(f"{name} index {index} out of range [0, {size})")


class ConvParams:
    """Square-kernel convolution parameters.

    ``weight`` is (out_ch, in_ch, k, k); ``bias`` is stored as a (1, out_ch, 1, 1)
    tensor so it rides the same gradient/checkpoint machinery as weights.
    """

    __slots__ = ("weight", "bias", "stride", "padding")

    def __init__(self, weight: Tensor, bias, stride: int = 1, padding: int = 0):
        if weight.shape[2] != weight.shape[3]:
            raise ConfigError(f"kernels must be square, got {weight.shape[2]}x{weight.shape[3]}")
        self.weight = weight
        out_ch = weight.shape[0]
        if isinstance(bias, Tensor):
            if bias.shape != (1, out_ch, 1, 1):
                raise ShapeError(f"bias shape {bias.shape} != (1, {out_ch}, 1, 1)")
            self.bias = bias
        else:
            arr = np.asarray(bias, dtype=np.float32).reshape(-1)
            if arr.size != out_ch:
                raise ShapeError(f"bias needs {out_ch} values, got {arr.size}")
            self.bias = Tensor((1, out_ch, 1, 1), arr)
        if stride < 1:
            raise ConfigError(f"stride must be positive, got {stride}")
        if padding < 0:
            raise ConfigError(f"padding must be nonnegative, got {padding}")
        self.stride = int(stride)
        self.padding = int(padding)

    @property
    def out_channels(self) -> int:
        return self.weight.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weight.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.weight.shape[2]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, padding: int, ho: int, wo: int) -> np.ndarray:
    """Unfold (B, C, H, W) into float64 patch rows (B, C*k*k, ho*wo) with one copy."""
    b, c = x.shape[:2]
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x.strides
    win = as_strided(x, (b, c, k, k, ho, wo), (s0, s1, s2, s3, s2 * stride, s3 * stride))
    return win.astype(np.float64, order="C").reshape(b, c * k * k, ho * wo)


def _col2im(gcol: np.ndarray, b, c, h, w, k, stride, padding, ho, wo) -> np.ndarray:
    """Fold patch-row gradients back onto the (B, C, H, W) input."""
    gx = np.zeros((b, c, h + 2 * padding, w + 2 * padding), dtype=np.float64)
    g6 = gcol.reshape(b, c, k, k, ho, wo)
    for ky in range(k):
        for kx in range(k):
            gx[:, :, ky:ky + ho * stride:stride, kx:kx + wo * stride:stride] += g6[:, :, ky, kx]
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return gx


def _contract(patches64: np.ndarray, params: ConvParams) -> np.ndarray:
    """Shared contraction for conv2d and deform_aggregate: (B,CKK,N) -> (B,out,N).

    Both paths must run through here so the zero-offset/unit-weight degeneration
    is bitwise exact.
    """
    w = params.weight.data.reshape(params.out_channels, -1).astype(np.float64)
    out = np.matmul(w[None], patches64)
    out += params.bias.data.reshape(1, -1, 1).astype(np.float64)
    return out


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Cross-correlation with the given params; output (B, out_ch, Ho, Wo)."""
    _count("conv2d")
    b, c, h, w = x.shape
    if c != params.in_channels:
        raise ShapeError(f"input has {c} channels, kernel expects {params.in_channels}")
    k, stride, pad = params.kernel_size, params.stride, params.padding
    ho = conv_output_size(h, k, stride, pad)
    wo = conv_output_size(w, k, stride, pad)
    if ho < 1 or wo < 1:
        raise ConfigError(f"conv output would be {ho}x{wo} for input {h}x{w}")
    patches = _im2col(x.data, k, stride, pad, ho, wo)
    out64 = _contract(patches, params)
    out = Tensor.from_array(out64.reshape(b, params.out_channels, ho, wo).astype(np.float32))

    def backward(g):
        go = g.reshape(b, params.out_channels, ho * wo).astype(np.float64)
        if params.bias.requires_grad:
            params.bias.add_grad(go.sum(axis=(0, 2)).reshape(1, -1, 1, 1))
        if params.weight.requires_grad:
            p64 = _im2col(x.data, k, stride, pad, ho, wo)
            gw = np.einsum("bon,bkn->ok", go, p64, optimize=True)
            params.weight.add_grad(gw.reshape(params.weight.shape))
        if x.requires_grad:
            wt = params.weight.data.reshape(params.out_channels, -1).astype(np.float64)
            gcol = np.matmul(wt.T[None], go)
            x.add_grad(_col2im(gcol, b, c, h, w, k, stride, pad, ho, wo))
    on_tape(out, backward, x, params.weight, params.bias)
    return out


def relu(x: Tensor) -> Tensor:
    _count("relu")
    out = Tensor.from_array(np.maximum(x.data, 0))
    on_tape(out, lambda g: x.add_grad(g * (x.data > 0)), x)
    return out


def sigmoid(x: Tensor) -> Tensor:
    _count("sigmoid")
    out = Tensor.from_array(1.0 / (1.0 + np.exp(-x.data.astype(np.float64))))
    on_tape(out, lambda g: x.add_grad(g * out.data * (1.0 - out.data)), x)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add shapes differ: {a.shape} vs {b.shape}")
    out = Tensor.from_array(a.data + b.data)
    def backward(g):
        if a.requires_grad:
            a.add_grad(g)
        if b.requires_grad:
            b.add_grad(g)
    on_tape(out, backward, a, b)
    return out


def slice_channels(x: Tensor, lo: int, hi: int) -> Tensor:
    if not (0 <= lo < hi <= x.shape[1]):
        raise ShapeError(f"channel slice [{lo}:{hi}] out of range for {x.shape[1]} channels")
    out = Tensor.from_array(x.data[:, lo:hi].copy())
    def backward(g):
        x.ensure_grad()[:, lo:hi] += g
    on_tape(out, backward, x)
    return out


def group_mean_channels(x: Tensor, groups: int) -> Tensor:
    """Mean over `groups` equal channel blocks: (B, G*S, H, W) -> (B, S, H, W)."""
    b, c, h, w = x.shape
    if groups < 1 or c % groups:
        raise ConfigError(f"{c} channels do not split into {groups} groups")
    s = c // groups
    out64 = x.data.reshape(b, groups, s, h, w).astype(np.float64).mean(axis=1)
    out = Tensor.from_array(out64.astype(np.float32))
    def backward(g):
        gx = np.broadcast_to(g[:, None] / groups, (b, groups, s, h, w))
        x.add_grad(gx.reshape(b, c, h, w))
    on_tape(out, backward, x)
    return out


def weighted_sum(x: Tensor, weights: np.ndarray | None = None) -> Tensor:
    """Scalar projection sum(x * weights); weights default to ones."""
    if weights is None:
        w = None
        val = x.data.sum(dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64).reshape(x.shape)
        val = float((x.data.astype(np.float64) * w).sum())
    out = Tensor.from_scalar(val)
    def backward(g):
        g = float(g.reshape(-1)[0])
        x.add_grad(np.full(x.shape, g, np.float64) if w is None else g * w)
    on_tape(out, backward, x)
    return out


def combine_scalars(terms: list[tuple[float, Tensor]]) -> Tensor:
    """Weighted sum of scalar tensors: sum(coef_i * term_i)."""
    total = 0.0
    for coef, term in terms:
        if term.size != 1:
            raise ShapeError("combine_scalars takes scalar tensors")
        total += float(coef) * term.scalar()
    out = Tensor.from_scalar(total)
    def backward(g):
        g = float(g.reshape(-1)[0])
        for coef, term in terms:
            if term.requires_grad:
                term.add_grad(np.full((1, 1, 1, 1), coef * g, np.float64))
    on_tape(out, backward, *(term for _, term in terms))
    return out


# ===== Bilinear sampling =====

def _planes(data: np.ndarray) -> np.ndarray:
    """(B, C, H, W) map as float64 channel-major planes (C, B*(H+3)*(W+2)): each
    image's H x W block sits in a one-pixel zero border with a spare zero row below."""
    b, c, h, w = data.shape
    planes = np.zeros((c, b, h + 3, w + 2))
    planes[:, :, 1:h + 1, 1:w + 1] = data.transpose(1, 0, 2, 3)
    return planes.reshape(c, -1)


class _Sampling(NamedTuple):
    """Bilinear sampling record for coords (B, n, P) on an H x W map; no channel
    axis. ``idx`` (4, B, n, P) holds the columns of corners 00, 01, 10, 11 (as
    dy, dx) in one ``_planes`` row of that map, ``weight`` (4, B, n, P) their
    bilinear weights; then the in-cell fractions."""

    idx: np.ndarray
    weight: np.ndarray
    fx: np.ndarray
    fy: np.ndarray


def _sampling(xs: np.ndarray, ys: np.ndarray, h: int, w: int) -> _Sampling:
    """Record for float64 coords (B, n, P) against an h x w map.

    The cell is chosen as ceil(coord)-1: identical to floor off the integer
    grid, and yields the left-cell subgradient exactly on it. A cell outside
    [-1, w-1] x [-1, h-1] has all four corners off the map; its corner 00 is
    the start of the bottom border row, so they read the border and spare row.
    """
    x0 = np.ceil(xs) - 1.0
    y0 = np.ceil(ys) - 1.0
    fx = xs - x0
    fy = ys - y0
    x0i = x0.astype(np.int64)
    y0i = y0.astype(np.int64)
    row = w + 2
    inside = (x0i >= -1) & (x0i < w) & (y0i >= -1) & (y0i < h)
    image = np.arange(xs.shape[0], dtype=np.int64).reshape(-1, 1, 1)
    base = np.where(inside, (y0i + 1) * row + x0i + 1, (h + 1) * row) + image * (h + 3) * row
    idx = base + np.array([0, 1, row, row + 1]).reshape(4, 1, 1, 1)
    weight = np.stack(((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx))
    return _Sampling(idx, weight, fx, fy)


def _blend(rec: _Sampling, reads: np.ndarray) -> np.ndarray:
    """Bilinear values (B, n, P) from the four corner reads (4, B, n, P) of one
    plane: each weighted in place, then added in corner order."""
    reads *= rec.weight
    vals = reads[0]
    for term in reads[1:]:
        vals += term
    return vals


def _interpolate(rec: _Sampling, planes: np.ndarray, mw) -> np.ndarray:
    """Patches (B, C*n, P) float64 from ``_planes``, one channel at a time: the
    blended corner reads times the tap weights ``mw`` (B, n, P)."""
    c = planes.shape[0]
    _, b, n, p = rec.idx.shape
    patches = np.empty((b, c, n, p))
    for ch, plane in enumerate(planes):
        np.multiply(_blend(rec, np.take(plane, rec.idx)), mw, out=patches[:, ch])
    return patches.reshape(b, c * n, p)


def bilinear_sample(featmap: Tensor, x: float, y: float, channel: int, batch: int = 0) -> float:
    """Bilinear read of one channel at continuous (x, y); zero outside the map.
    A one-point call of the sampler that ``deform_aggregate`` runs."""
    b, c, h, w = featmap.shape
    check_index("batch", batch, b)
    check_index("channel", channel, c)
    rec = _sampling(np.full((1, 1, 1), x, np.float64), np.full((1, 1, 1), y, np.float64), h, w)
    planes = _planes(featmap.data[batch, channel][None, None])
    return float(_interpolate(rec, planes, 1.0)[0, 0, 0])


def _tap_grid(k: int, stride: int, padding: int, ho: int, wo: int):
    """Regular sampling positions: (n, ho, wo) x and y, tap-major row order."""
    tx = np.tile(np.arange(k, dtype=np.float64), k)
    ty = np.repeat(np.arange(k, dtype=np.float64), k)
    ox = np.arange(wo, dtype=np.float64) * stride - padding
    oy = np.arange(ho, dtype=np.float64) * stride - padding
    gx = tx[:, None, None] + ox[None, None, :] + np.zeros((1, ho, 1))
    gy = ty[:, None, None] + oy[None, :, None] + np.zeros((1, 1, wo))
    return gx, gy


def deform_aggregate(featmap: Tensor, offsets: Tensor, weights: Tensor,
                     params: ConvParams) -> Tensor:
    """Weighted deformable aggregation.

    For each output pixel and each of the n = k*k taps, sample ``featmap``
    bilinearly at (regular grid position + per-pixel offset), scale by the
    tap's per-pixel weight, then contract with the kernel exactly like conv2d.
    Corners outside the map read the zero border of the sampler's planes.
    Offsets channel layout: [2t] = tap t's x offset, [2t+1] = its y offset,
    taps in row-major kernel order. Forward and backward walk the planes one
    channel at a time. The backward pass re-reads the corners from the kept
    planes and sampling record; the tap-weight and offset grads, linear in the
    corner reads v_i, come from the four channel sums a_i = sum_c gpatch * v_i,
    and the feature grad is one bincount per channel over the record's index.
    """
    _count("deform_aggregate")
    b, c, h, w = featmap.shape
    if c != params.in_channels:
        raise ShapeError(f"featmap has {c} channels, kernel expects {params.in_channels}")
    k, stride, pad = params.kernel_size, params.stride, params.padding
    n = k * k
    if offsets.shape[1] != 2 * n or weights.shape[1] != n:
        raise ConfigError(
            f"kernel area {n} needs {2 * n} offset / {n} weight channels, "
            f"got {offsets.shape[1]} / {weights.shape[1]}")
    ho = conv_output_size(h, k, stride, pad)
    wo = conv_output_size(w, k, stride, pad)
    if ho < 1 or wo < 1:
        raise ConfigError(f"deform output would be {ho}x{wo} for input {h}x{w}")
    if offsets.shape != (b, 2 * n, ho, wo) or weights.shape != (b, n, ho, wo):
        raise ShapeError(
            f"offset/weight fields {offsets.shape} / {weights.shape} do not match "
            f"(batch {b}, taps {n}, out {ho}x{wo})")
    p = ho * wo
    gx, gy = _tap_grid(k, stride, pad, ho, wo)
    xs = (gx[None] + offsets.data[:, 0::2].astype(np.float64)).reshape(b, n, p)
    ys = (gy[None] + offsets.data[:, 1::2].astype(np.float64)).reshape(b, n, p)
    rec = _sampling(xs, ys, h, w)
    planes = _planes(featmap.data)
    mw = weights.data.astype(np.float64).reshape(b, n, p)
    out64 = _contract(_interpolate(rec, planes, mw), params)
    out = Tensor.from_array(out64.reshape(b, params.out_channels, ho, wo).astype(np.float32))

    def backward(g):
        go = g.reshape(b, params.out_channels, p).astype(np.float64)
        wt = params.weight.data.reshape(params.out_channels, -1).astype(np.float64)
        gpatch = np.matmul(wt.T[None], go).reshape(b, c, n, p)
        patches = np.empty((b, c, n, p))
        a = np.zeros((4, b, n, p))  # per corner: sum over channels of gpatch * read
        if featmap.requires_grad:
            gplanes = np.empty_like(planes)
            contrib = np.empty((4, b, n, p))
        for ch, plane in enumerate(planes):
            reads = np.take(plane, rec.idx)
            a += gpatch[:, ch] * reads  # before _blend weights the reads in place
            np.multiply(_blend(rec, reads), mw, out=patches[:, ch])
            if featmap.requires_grad:
                # adjoint of the read: each pixel sums corner by corner, then
                # in sample order; off-map corners land in the dropped border
                np.multiply(rec.weight, gpatch[:, ch] * mw, out=contrib)
                gplanes[ch] = np.bincount(rec.idx.reshape(-1), contrib.reshape(-1),
                                          minlength=planes.shape[1])
        if params.bias.requires_grad:
            params.bias.add_grad(go.sum(axis=(0, 2)).reshape(1, -1, 1, 1))
        if params.weight.requires_grad:
            gw = np.einsum("bon,bkn->ok", go, patches.reshape(b, c * n, p), optimize=True)
            params.weight.add_grad(gw.reshape(params.weight.shape))
        a00, a01, a10, a11 = a
        if weights.requires_grad:
            w00, w01, w10, w11 = rec.weight
            gwt = w00 * a00 + w01 * a01 + w10 * a10 + w11 * a11
            weights.add_grad(gwt.reshape(b, n, ho, wo))
        if offsets.requires_grad:
            fx, fy = rec.fx, rec.fy
            gx = mw * ((1 - fy) * (a01 - a00) + fy * (a11 - a10))
            gy = mw * ((1 - fx) * (a10 - a00) + fx * (a11 - a01))
            offsets.ensure_grad()
            offsets.grad[:, 0::2] += gx.reshape(b, n, ho, wo)
            offsets.grad[:, 1::2] += gy.reshape(b, n, ho, wo)
        if featmap.requires_grad:
            gmap = gplanes.reshape(c, b, h + 3, w + 2)[:, :, 1:h + 1, 1:w + 1]
            featmap.add_grad(gmap.transpose(1, 0, 2, 3))
    on_tape(out, backward, featmap, offsets, weights, params.weight, params.bias)
    return out


# ===== Peak extraction (inference only) =====

def maxpool_nms(heatmap: Tensor) -> Tensor:
    """Keep values equal to their 3x3 neighborhood max, zero the rest.

    The 3x3 max is separable: three row-shifted slices of a ``-inf``-bordered
    copy, then three column-shifted ones. Max is exact in any order, and a NaN
    in the window makes the max NaN, so NaN pixels and their neighbors drop."""
    x = heatmap.data
    h, w = x.shape[-2:]
    xp = np.full(x.shape[:-2] + (h + 2, w + 2), -np.inf, np.float32)
    xp[..., 1:-1, 1:-1] = x
    rows = np.maximum(np.maximum(xp[..., :-2, :], xp[..., 1:-1, :]), xp[..., 2:, :])
    local_max = np.maximum(np.maximum(rows[..., :-2], rows[..., 1:-1]), rows[..., 2:])
    return Tensor.from_array(np.where(x == local_max, x, 0.0))


def topk(heatmap: Tensor, k: int, batch: int = 0) -> np.ndarray:
    """Top-k entries of one batch item as the rows (score, channel, y, x) of
    an (n, 4) float64 array, descending by score.

    Ties break by ascending linear index over (channel, y, x), so output is
    deterministic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    b, c, h, w = heatmap.shape
    check_index("batch", batch, b)
    flat = heatmap.data[batch].reshape(-1)
    order = np.argsort(-flat, kind="stable")[:k]
    ch, rest = np.divmod(order, h * w)
    y, x = np.divmod(rest, w)
    return np.stack([flat[order], ch, y, x], axis=1, dtype=np.float64)
