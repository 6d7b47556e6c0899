"""Central finite-difference verification of every backward pass.

``finite_diff_check`` runs a scalar-valued function once under a tape to
collect analytic gradients, then probes sampled entries of each watched
tensor with central differences. ``standard_checks`` registers one
constructor per differentiable op so both the test suite and the
``gradcheck`` CLI subcommand drive the identical battery.
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


def finite_diff_check(func, wrt, *, eps: float = 1e-3, rel_tol: float = 1e-3,
                      atol: float = 5e-3, max_entries: int = 12,
                      rng=None, name: str = "op") -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``func`` against central differences.

    ``wrt`` is a list of (label, Tensor); ``func`` takes no arguments, reads
    the tensors' current data, and returns a scalar Tensor. Each probe
    perturbs one whole tensor along a random +-1 direction and compares the
    symmetric difference (f(x + eps*d) - f(x - eps*d)) / (2*eps) against the
    tape gradient projected onto the step actually realized in float32.
    Directional probes keep the perturbation signal ~sqrt(n) above the
    float32 rounding of stored activations; per-entry probes at the same eps
    would drown milli-scale gradient entries in that rounding noise. A probe
    passes when |analytic - numeric| <= atol + rel_tol * max(|analytic|,
    |numeric|); probes inside the absolute floor are reported as rel 0.
    """
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

def _rand_t(rng, shape, lo=-1.0, hi=1.0) -> Tensor:
    return Tensor.from_array(rng.uniform(lo, hi, shape).astype(np.float32))


def _off_eighths(t: Tensor) -> Tensor:
    # L1 regression targets land on multiples of 1/8 (builder boxes sit on
    # half-pixel centers over stride 4); keep probes off those kinks.
    x = t.data
    near = np.abs(x * 8.0 - np.round(x * 8.0)) < 0.16
    t.data = np.where(near, x + 0.05, x).astype(np.float32)
    return t


def _proj(rng, shape) -> np.ndarray:
    # Fixed random projection keeps per-entry grads from cancelling to ~0.
    return rng.uniform(0.5, 1.5, shape)


def _check_conv2d(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (2, 3, 6, 6))
    p = ops.ConvParams(_rand_t(rng, (4, 3, 3, 3)), rng.uniform(-0.5, 0.5, 4), stride=1, padding=1)
    w = _proj(rng, (2, 4, 6, 6))
    func = lambda: ops.weighted_sum(ops.conv2d(x, p), w)
    return finite_diff_check(func, [("input", x), ("weight", p.weight), ("bias", p.bias)],
                             rng=rng, name="conv2d")


def _check_conv2d_strided(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (1, 2, 7, 7))
    p = ops.ConvParams(_rand_t(rng, (3, 2, 3, 3)), rng.uniform(-0.5, 0.5, 3), stride=2, padding=1)
    w = _proj(rng, (1, 3, 4, 4))
    func = lambda: ops.weighted_sum(ops.conv2d(x, p), w)
    return finite_diff_check(func, [("input", x), ("weight", p.weight), ("bias", p.bias)],
                             rng=rng, name="conv2d_strided")


def _check_relu(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (2, 3, 5, 5))
    # keep probes away from the kink at 0
    x.data[np.abs(x.data) < 0.02] += 0.05
    w = _proj(rng, (2, 3, 5, 5))
    func = lambda: ops.weighted_sum(ops.relu(x), w)
    return finite_diff_check(func, [("input", x)], rng=rng, name="relu")


def _check_sigmoid(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (2, 2, 4, 4), -3, 3)
    w = _proj(rng, (2, 2, 4, 4))
    func = lambda: ops.weighted_sum(ops.sigmoid(x), w)
    return finite_diff_check(func, [("input", x)], rng=rng, name="sigmoid")


def _check_add(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (2, 4, 3, 3))
    b = _rand_t(rng, (2, 4, 3, 3))
    w = _proj(rng, (2, 4, 3, 3))
    func = lambda: ops.weighted_sum(ops.add(a, b), w)
    return finite_diff_check(func, [("a", a), ("b", b)], rng=rng, name="add")


def _check_slice_channels(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (2, 6, 4, 4))
    w = _proj(rng, (2, 3, 4, 4))
    func = lambda: ops.weighted_sum(ops.slice_channels(x, 1, 4), w)
    return finite_diff_check(func, [("input", x)], rng=rng, name="slice_channels")


def _check_group_mean(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    x = _rand_t(rng, (2, 8, 3, 3))
    w = _proj(rng, (2, 4, 3, 3))
    func = lambda: ops.weighted_sum(ops.group_mean_channels(x, 2), w)
    return finite_diff_check(func, [("input", x)], rng=rng, name="group_mean_channels")


def _check_combine_scalars(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    a = _rand_t(rng, (1, 2, 3, 3))
    b = _rand_t(rng, (1, 2, 3, 3))
    func = lambda: ops.combine_scalars([(1.0, ops.weighted_sum(a)), (0.1, ops.weighted_sum(b))])
    return finite_diff_check(func, [("a", a), ("b", b)], rng=rng, name="combine_scalars")


def _deform_setup(rng):
    fm = _rand_t(rng, (1, 2, 6, 6))
    k = 3
    n = k * k
    p = ops.ConvParams(_rand_t(rng, (2, 2, k, k)), rng.uniform(-0.5, 0.5, 2), stride=1, padding=1)
    # fractional offsets keep sampling away from integer-coordinate kinks
    off = Tensor.from_array(rng.uniform(-1.5, 1.5, (1, 2 * n, 6, 6)).astype(np.float32))
    off.data[np.abs(off.data - np.round(off.data)) < 0.05] += 0.13
    wts = _rand_t(rng, (1, n, 6, 6), 0.2, 1.2)
    return fm, off, wts, p


def _check_deform(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    fm, off, wts, p = _deform_setup(rng)
    w = _proj(rng, (1, 2, 6, 6))
    func = lambda: ops.weighted_sum(ops.deform_aggregate(fm, off, wts, p), w)
    return finite_diff_check(
        func,
        [("featmap", fm), ("offsets", off), ("weights", wts),
         ("kernel", p.weight), ("bias", p.bias)],
        rng=rng, name="deform_aggregate")


def _check_hna_loss(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    mask = np.zeros((1, 2, 6, 6), np.float32)
    mask[0, 0, 2, 2] = 1.0
    mask[0, 1, 2, 2] = -1.0
    mask[0, 0, 4, 4] = 0.6
    mask[0, 1, 1, 3] = -0.4
    func = lambda: losses.hna_loss(pred, mask, 1)
    return finite_diff_check(func, [("pred", pred)], rng=rng, name="hna_loss")


def _check_focal(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    pred = _rand_t(rng, (1, 2, 6, 6), 0.05, 0.95)
    target = np.zeros((1, 2, 6, 6), np.float32)
    target[0, 0, 3, 3] = 1.0
    target[0, 1, 2, 4] = 0.7
    func = lambda: losses.centernet_focal(pred, target, 1)
    return finite_diff_check(func, [("pred", pred)], rng=rng, name="centernet_focal")


def _check_matching_loss(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    from .losses import HoiAnnotation
    pred = _off_eighths(_rand_t(rng, (1, 8, 8, 8)))
    annos = [[HoiAnnotation((4.0, 4.0, 12.0, 12.0), (16.0, 8.0, 24.0, 16.0), 1, 0)]]
    func = lambda: losses.matching_loss(pred, annos, stride=4, groups=2)
    return finite_diff_check(func, [("offsets", pred)], rng=rng, name="matching_loss")


def _check_detection_losses(seed: int) -> GradCheckReport:
    rng = np.random.default_rng(seed)
    from .losses import HoiAnnotation, HoiCategoryTable
    table = HoiCategoryTable(2, 2, frozenset({(0, 0), (1, 1)}), frozenset())
    center = _rand_t(rng, (1, 3, 8, 8), 0.05, 0.95)
    wh = _off_eighths(_rand_t(rng, (1, 2, 8, 8), 0.5, 3.0))
    reg = _off_eighths(_rand_t(rng, (1, 2, 8, 8), -0.4, 0.4))
    annos = [[HoiAnnotation((4.0, 4.0, 13.0, 12.0), (18.0, 10.0, 27.0, 20.0), 0, 0)]]
    func = lambda: losses.detection_losses(center, wh, reg, annos, table, stride=4)[0]
    return finite_diff_check(func, [("center", center), ("wh", wh), ("reg", reg)],
                             rng=rng, name="detection_losses")


CHECKS = [
    ("conv2d", _check_conv2d),
    ("conv2d_strided", _check_conv2d_strided),
    ("relu", _check_relu),
    ("sigmoid", _check_sigmoid),
    ("add", _check_add),
    ("slice_channels", _check_slice_channels),
    ("group_mean_channels", _check_group_mean),
    ("combine_scalars", _check_combine_scalars),
    ("deform_aggregate", _check_deform),
    ("hna_loss", _check_hna_loss),
    ("centernet_focal", _check_focal),
    ("matching_loss", _check_matching_loss),
    ("detection_losses", _check_detection_losses),
]


def standard_checks(op: str | None = None, seeds=range(3)) -> list[GradCheckReport]:
    selected = [(n, f) for n, f in CHECKS if op is None or n == op]
    if not selected:
        known = ", ".join(n for n, _ in CHECKS)
        raise ValueError(f"unknown op {op!r}; known: {known}")
    reports = []
    for n, f in selected:
        for seed in seeds:
            r = f(int(seed))
            r.name = f"{n}[seed={seed}]"
            reports.append(r)
    return reports
