"""Central finite-difference verification of every backward pass.

``finite_diff_check`` runs a scalar-valued function once under a tape to
collect analytic gradients, then probes sampled entries of each watched
tensor with central differences. ``CHECKS`` holds one builder per
differentiable op, and ``standard_checks`` runs them, so both the test suite
and the ``gradcheck`` CLI subcommand drive the identical battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses, ops
from .tensor import Tensor, tape


class GradCheckError(RuntimeError):
    """Non-finite value met while checking; message carries the location."""


@dataclass
class GradCheckReport:
    name: str
    passed: bool
    max_rel_err: float
    max_abs_err: float
    entries_checked: int
    worst: str = ""

    def line(self) -> str:
        status = "ok" if self.passed else "FAIL"
        return (f"{self.name:<28s} {status:<4s} entries={self.entries_checked:<4d} "
                f"max_rel={self.max_rel_err:.3e} max_abs={self.max_abs_err:.3e} {self.worst}")


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
    checked = 0
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
            checked += 1
            if abs_err > atol + rel_tol * max(abs(a), abs(numeric)):
                passed = False
            if abs_err > atol:
                rel_err = abs_err / max(abs(a), abs(numeric), 1e-12)
                if rel_err > max_rel:
                    worst = f"worst {label} probe {probe} analytic={a:.6g} numeric={numeric:.6g}"
                max_rel = max(max_rel, rel_err)
            max_abs = max(max_abs, abs_err)
    return GradCheckReport(name, passed, max_rel, max_abs, checked, worst)


# ===== Per-op check battery =====
#
# Each builder takes the check's rng, draws its inputs from it, and returns
# (func, wrt) for finite_diff_check, which goes on drawing its probe
# directions from the same rng.

CHECKS: list = []


def _check(op: str):
    """Register the decorated ``build(rng) -> (func, wrt)`` as the check of ``op``."""
    def register(build):
        CHECKS.append((op, build))
        return build
    return register


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
    return lambda: ops.weighted_sum(op(), w)


def _conv2d(rng, x_shape, w_shape, stride, out_shape):
    x = _rand_t(rng, x_shape)
    p = ops.ConvParams(_rand_t(rng, w_shape), rng.uniform(-0.5, 0.5, w_shape[0]),
                       stride=stride, padding=1)
    return (_projected(rng, out_shape, lambda: ops.conv2d(x, p)),
            [("input", x), ("weight", p.weight), ("bias", p.bias)])


@_check("conv2d")
def _(rng):
    return _conv2d(rng, (2, 3, 6, 6), (4, 3, 3, 3), 1, (2, 4, 6, 6))


@_check("conv2d_strided")
def _(rng):
    return _conv2d(rng, (1, 2, 7, 7), (3, 2, 3, 3), 2, (1, 3, 4, 4))


@_check("relu")
def _(rng):
    x = _rand_t(rng, (2, 3, 5, 5))
    # keep probes away from the kink at 0
    x.data[np.abs(x.data) < 0.02] += 0.05
    return _projected(rng, x.shape, lambda: ops.relu(x)), [("input", x)]


@_check("sigmoid")
def _(rng):
    x = _rand_t(rng, (2, 2, 4, 4), -3, 3)
    return _projected(rng, x.shape, lambda: ops.sigmoid(x)), [("input", x)]


@_check("add")
def _(rng):
    a, b = _rand_t(rng, (2, 4, 3, 3)), _rand_t(rng, (2, 4, 3, 3))
    return _projected(rng, a.shape, lambda: ops.add(a, b)), [("a", a), ("b", b)]


@_check("slice_channels")
def _(rng):
    x = _rand_t(rng, (2, 6, 4, 4))
    return _projected(rng, (2, 3, 4, 4), lambda: ops.slice_channels(x, 1, 4)), [("input", x)]


@_check("group_mean_channels")
def _(rng):
    x = _rand_t(rng, (2, 8, 3, 3))
    return _projected(rng, (2, 4, 3, 3), lambda: ops.group_mean_channels(x, 2)), [("input", x)]


@_check("combine_scalars")
def _(rng):
    a, b = _rand_t(rng, (1, 2, 3, 3)), _rand_t(rng, (1, 2, 3, 3))
    func = lambda: ops.combine_scalars([(1.0, ops.weighted_sum(a)), (0.1, ops.weighted_sum(b))])
    return func, [("a", a), ("b", b)]


@_check("deform_aggregate")
def _(rng):
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


@_check("hna_loss")
def _(rng):
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    mask = np.zeros((1, 2, 6, 6), np.float32)
    mask[0, 0, 2, 2] = 1.0
    mask[0, 1, 2, 2] = -1.0
    mask[0, 0, 4, 4] = 0.6
    mask[0, 1, 1, 3] = -0.4
    return lambda: losses.hna_loss(pred, mask, 1), [("pred", pred)]


@_check("centernet_focal")
def _(rng):
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    target = np.zeros((1, 2, 6, 6), np.float32)
    target[0, 0, 3, 3] = 1.0
    target[0, 1, 2, 4] = 0.7
    return lambda: losses.centernet_focal(pred, target, 1), [("pred", pred)]


@_check("matching_loss")
def _(rng):
    pred = _off_eighths(_rand_t(rng, (1, 8, 8, 8)))
    annos = [[losses.HoiAnnotation((4.0, 4.0, 12.0, 12.0), (16.0, 8.0, 24.0, 16.0), 1, 0)]]
    return lambda: losses.matching_loss(pred, annos, stride=4), [("offsets", pred)]


@_check("detection_losses")
def _(rng):
    table = losses.HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    center = _rand_t(rng, (1, 3, 8, 8), 0.05, 0.95)
    wh = _off_eighths(_rand_t(rng, (1, 2, 8, 8), 0.5, 3.0))
    reg = _off_eighths(_rand_t(rng, (1, 2, 8, 8), -0.4, 0.4))
    annos = [[losses.HoiAnnotation((4.0, 4.0, 13.0, 12.0), (18.0, 10.0, 27.0, 20.0), 0, 0)]]
    func = lambda: losses.detection_losses(center, wh, reg, annos, table, stride=4)[0]
    return func, [("center", center), ("wh", wh), ("reg", reg)]


def standard_checks(op: str | None = None, seeds=range(3)) -> list[GradCheckReport]:
    """Run the battery (or only ``op``'s check) once per seed, each on a fresh rng."""
    selected = [(n, b) for n, b in CHECKS if op is None or n == op]
    if not selected:
        known = ", ".join(n for n, _ in CHECKS)
        raise ValueError(f"unknown op {op!r}; known: {known}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("no seeds given: the seed range is empty")
    reports = []
    for name, build in selected:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            func, wrt = build(rng)
            reports.append(finite_diff_check(func, wrt, rng=rng, name=f"{name}[seed={seed}]"))
    return reports
