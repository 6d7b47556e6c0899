"""Finite-difference verification of every backward pass.

``finite_diff_check`` runs a scalar-valued function once under a tape to
collect analytic gradients, then probes each watched tensor with central
differences. ``CHECKS`` pairs each differentiable op's name with the builder
of its check, and ``run_check`` runs one builder for one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ggnet import losses, ops
from ggnet.tensor import Tensor, on_tape, tape


class GradCheckError(RuntimeError):
    """Non-finite value met while checking; message carries the location."""


@dataclass
class GradCheckReport:
    name: str
    passed: bool
    max_rel_err: float
    max_abs_err: float
    worst: str = ""


def finite_diff_check(func, wrt, *, rng=None, name: str = "op") -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``func`` against central differences.

    ``wrt`` is a list of (label, Tensor); ``func`` takes no arguments, reads
    the tensors' current data, and returns a scalar Tensor. Each watched
    tensor gets 12 probes at eps = 1e-3. Each probe perturbs one whole
    tensor along a random +-1 direction and compares the symmetric
    difference (f(x + eps*d) - f(x - eps*d)) / (2*eps) against the tape
    gradient projected onto the step actually realized in float32.
    Directional probes keep the perturbation signal ~sqrt(n) above the
    float32 rounding of stored activations; per-entry probes at the same eps
    would drown milli-scale gradient entries in that rounding noise. A probe
    passes when |analytic - numeric| <= atol + rel_tol * max(|analytic|,
    |numeric|) with atol = 5e-3 and rel_tol = 1e-3; probes inside the
    absolute floor are reported as rel 0.
    """
    eps, rel_tol, atol, max_entries = 1e-3, 1e-3, 5e-3, 12
    if rng is None:
        rng = np.random.default_rng(0)
    for _, t in wrt:
        t.zero_grad()
    with tape() as tp:
        out = func()
        base = out.scalar()
        if not math.isfinite(base):
            raise GradCheckError(f"{name}: non-finite forward value {base}")
        tp.backward(out)
    analytic = []
    for label, t in wrt:
        g = np.zeros(t.shape, np.float64) if t.grad is None else t.grad.astype(np.float64)
        if not np.isfinite(g).all():
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise GradCheckError(f"{name}: non-finite analytic grad at {label}[{bad}]")
        analytic.append(g)

    max_rel = 0.0
    max_abs = 0.0
    worst = ""
    passed = True
    for (label, t), g in zip(wrt, analytic):
        base_data = t.data.copy()
        base64 = base_data.astype(np.float64)
        for probe in range(max_entries):
            d = rng.integers(0, 2, size=t.shape).astype(np.float64) * 2.0 - 1.0
            x_plus = (base64 + eps * d).astype(np.float32)
            x_minus = (base64 - eps * d).astype(np.float32)
            step = x_plus.astype(np.float64) - x_minus.astype(np.float64)
            t.data[...] = x_plus
            f_plus = func().scalar()
            t.data[...] = x_minus
            f_minus = func().scalar()
            t.data[...] = base_data
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise GradCheckError(f"{name}: non-finite probe value at {label} probe {probe}")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float((g * step).sum()) / (2.0 * eps)
            abs_err = abs(a - numeric)
            if abs_err > atol + rel_tol * max(abs(a), abs(numeric)):
                passed = False
            if abs_err > atol:
                rel_err = abs_err / max(abs(a), abs(numeric), 1e-12)
                if rel_err > max_rel:
                    worst = f"worst {label} probe {probe} analytic={a:.6g} numeric={numeric:.6g}"
                max_rel = max(max_rel, rel_err)
            max_abs = max(max_abs, abs_err)
    return GradCheckReport(name, passed, max_rel, max_abs, worst)



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


# ===== Per-op check battery =====
#
# Each builder takes the check's rng, draws its inputs from it, and returns
# (func, wrt) for finite_diff_check, which goes on drawing its probe
# directions from the same rng.

def _rand_t(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor.from_array(rng.uniform(lo, hi, shape).astype(np.float32))


def _off_eighths(t: Tensor) -> Tensor:
    # L1 regression targets land on multiples of 1/8 (builder boxes sit on
    # half-pixel centers over stride 4); keep probes off those kinks.
    x = t.data
    near = np.abs(x * 8.0 - np.round(x * 8.0)) < 0.16
    t.data = np.where(near, x + 0.05, x).astype(np.float32)
    return t


def _projected(rng, shape, op):
    """Scalar func: ``op()`` weighted by a fixed random projection drawn now.

    The projection keeps per-entry grads from cancelling to ~0.
    """
    w = rng.uniform(0.5, 1.5, shape)
    return lambda: weighted_sum(op(), w)


def _conv2d(rng, x_shape, w_shape, stride, out_shape):
    x = _rand_t(rng, x_shape)
    p = ops.ConvParams(_rand_t(rng, w_shape), rng.uniform(-0.5, 0.5, w_shape[0]),
                       stride=stride, padding=1)
    return (_projected(rng, out_shape, lambda: ops.conv2d(x, p)),
            [("input", x), ("weight", p.weight), ("bias", p.bias)])


def _relu(rng):
    x = _rand_t(rng, (2, 3, 5, 5))
    # keep probes away from the kink at 0
    x.data[np.abs(x.data) < 0.02] += 0.05
    return _projected(rng, x.shape, lambda: ops.relu(x)), [("input", x)]


def _sigmoid(rng):
    x = _rand_t(rng, (2, 2, 4, 4), -3, 3)
    return _projected(rng, x.shape, lambda: ops.sigmoid(x)), [("input", x)]


def _add(rng):
    a, b = _rand_t(rng, (2, 4, 3, 3)), _rand_t(rng, (2, 4, 3, 3))
    return _projected(rng, a.shape, lambda: ops.add(a, b)), [("a", a), ("b", b)]


def _slice_channels(rng):
    x = _rand_t(rng, (2, 6, 4, 4))
    return _projected(rng, (2, 3, 4, 4), lambda: ops.slice_channels(x, 1, 4)), [("input", x)]


def _group_mean_channels(rng):
    x = _rand_t(rng, (2, 8, 3, 3))
    return _projected(rng, (2, 4, 3, 3), lambda: ops.group_mean_channels(x, 2)), [("input", x)]


def _combine_scalars(rng):
    a, b = _rand_t(rng, (1, 2, 3, 3)), _rand_t(rng, (1, 2, 3, 3))
    func = lambda: ops.combine_scalars([(1.0, weighted_sum(a)), (0.1, weighted_sum(b))])
    return func, [("a", a), ("b", b)]


def _deform_aggregate(rng):
    n = 9  # a 3x3 kernel's taps
    fm = _rand_t(rng, (1, 2, 6, 6))
    p = ops.ConvParams(_rand_t(rng, (2, 2, 3, 3)), rng.uniform(-0.5, 0.5, 2), stride=1, padding=1)
    # fractional offsets keep sampling away from integer-coordinate kinks
    off = _rand_t(rng, (1, 2 * n, 6, 6), -1.5, 1.5)
    off.data[np.abs(off.data - np.round(off.data)) < 0.05] += 0.13
    wts = _rand_t(rng, (1, n, 6, 6), 0.2, 1.2)
    func = _projected(rng, (1, 2, 6, 6), lambda: ops.deform_aggregate(fm, off, wts, p))
    return func, [("featmap", fm), ("offsets", off), ("weights", wts),
                  ("kernel", p.weight), ("bias", p.bias)]


def _hna_loss(rng):
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    mask = np.zeros((1, 2, 6, 6), np.float32)
    mask[0, 0, 2, 2] = 1.0
    mask[0, 1, 2, 2] = -1.0
    mask[0, 0, 4, 4] = 0.6
    mask[0, 1, 1, 3] = -0.4
    return lambda: losses.hna_loss(pred, mask, 1), [("pred", pred)]


def _centernet_focal(rng):
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    target = np.zeros((1, 2, 6, 6), np.float32)
    target[0, 0, 3, 3] = 1.0
    target[0, 1, 2, 4] = 0.7
    return lambda: losses.centernet_focal(pred, target, 1), [("pred", pred)]


def _matching_loss(rng):
    pred = _off_eighths(_rand_t(rng, (1, 8, 8, 8)))
    annos = [[losses.HoiAnnotation((4.0, 4.0, 12.0, 12.0), (16.0, 8.0, 24.0, 16.0), 1, 0)]]
    return lambda: losses.matching_loss(pred, annos, stride=4), [("offsets", pred)]


def _detection_losses(rng):
    table = losses.HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    center = _rand_t(rng, (1, 3, 8, 8), 0.05, 0.95)
    wh = _off_eighths(_rand_t(rng, (1, 2, 8, 8), 0.5, 3.0))
    reg = _off_eighths(_rand_t(rng, (1, 2, 8, 8), -0.4, 0.4))
    annos = [[losses.HoiAnnotation((4.0, 4.0, 13.0, 12.0), (18.0, 10.0, 27.0, 20.0), 0, 0)]]
    func = lambda: losses.detection_losses(center, wh, reg, annos, table, stride=4)[0]
    return func, [("center", center), ("wh", wh), ("reg", reg)]


CHECKS = [
    ("conv2d", lambda rng: _conv2d(rng, (2, 3, 6, 6), (4, 3, 3, 3), 1, (2, 4, 6, 6))),
    ("conv2d_strided", lambda rng: _conv2d(rng, (1, 2, 7, 7), (3, 2, 3, 3), 2, (1, 3, 4, 4))),
    ("relu", _relu),
    ("sigmoid", _sigmoid),
    ("add", _add),
    ("slice_channels", _slice_channels),
    ("group_mean_channels", _group_mean_channels),
    ("combine_scalars", _combine_scalars),
    ("deform_aggregate", _deform_aggregate),
    ("hna_loss", _hna_loss),
    ("centernet_focal", _centernet_focal),
    ("matching_loss", _matching_loss),
    ("detection_losses", _detection_losses),
]


def run_check(name: str, build, seed: int) -> GradCheckReport:
    """Build one check on a fresh rng for ``seed`` and run it."""
    rng = np.random.default_rng(seed)
    func, wrt = build(rng)
    return finite_diff_check(func, wrt, rng=rng, name=f"{name}[seed={seed}]")
