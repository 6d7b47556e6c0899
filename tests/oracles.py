"""Brute-force reference implementations the test suite checks the package against.

Everything here favors obviousness over speed: direct loops, float64
accumulation, and no code shared with the package. Test tolerances absorb
the package's float32 storage.
"""

from __future__ import annotations

import math

import numpy as np


def conv2d_ref(x, weight, bias, stride=1, padding=0):
    """Sliding-window convolution, one output element at a time."""
    b, cin, h, w = x.shape
    cout, cin_w, k, _ = weight.shape
    assert cin == cin_w
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    xp = np.zeros((b, cin, h + 2 * padding, w + 2 * padding), np.float64)
    xp[:, :, padding:padding + h, padding:padding + w] = x
    out = np.zeros((b, cout, ho, wo), np.float64)
    for bi in range(b):
        for co in range(cout):
            for yo in range(ho):
                for xo in range(wo):
                    patch = xp[bi, :, yo * stride:yo * stride + k,
                               xo * stride:xo * stride + k]
                    out[bi, co, yo, xo] = float(bias[co]) + float(
                        (np.asarray(weight[co], np.float64) * patch).sum())
    return out


def bilinear_ref(plane, x, y):
    """Four-corner bilinear read; zero weight outside the map."""
    h, w = plane.shape
    x0 = math.floor(x)
    y0 = math.floor(y)
    fx = x - x0
    fy = y - y0
    val = 0.0
    for dy, dx, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                        (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        yy, xx = y0 + dy, x0 + dx
        if wgt and 0 <= yy < h and 0 <= xx < w:
            val += wgt * float(plane[yy, xx])
    return val


def deform_aggregate_ref(featmap, offsets, weights, kernel, bias, stride=1, padding=0):
    """Per-tap bilinear gather, scaled by the tap weight, contracted like a conv.

    Tap t of a k*k kernel sits at row t//k, column t%k; its sampling point is
    the regular grid position plus (offsets[2t], offsets[2t+1]) = (dx, dy).
    """
    b, c, h, w = featmap.shape
    cout, cin, k, _ = kernel.shape
    assert cin == c
    n = k * k
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((b, cout, ho, wo), np.float64)
    for bi in range(b):
        for yo in range(ho):
            for xo in range(wo):
                patch = np.zeros((c, k, k), np.float64)
                for t in range(n):
                    ty, tx = divmod(t, k)
                    sx = xo * stride - padding + tx + float(offsets[bi, 2 * t, yo, xo])
                    sy = yo * stride - padding + ty + float(offsets[bi, 2 * t + 1, yo, xo])
                    wt = float(weights[bi, t, yo, xo])
                    for ci in range(c):
                        patch[ci, ty, tx] = bilinear_ref(featmap[bi, ci], sx, sy) * wt
                for co in range(cout):
                    out[bi, co, yo, xo] = float(bias[co]) + float(
                        (np.asarray(kernel[co], np.float64) * patch).sum())
    return out


def _bilinear_corners_ref(h, w, x, y):
    """In-map corners of (x, y) as (row, col, weight, d weight/dx, d weight/dy).

    The cell is ceil(coord)-1, so a coordinate on a grid line takes the
    derivative of the cell to its left (above it).
    """
    x0 = math.ceil(x) - 1
    y0 = math.ceil(y) - 1
    fx = x - x0
    fy = y - y0
    out = []
    for dy in (0, 1):
        for dx in (0, 1):
            wx, dwx = (fx, 1.0) if dx else (1.0 - fx, -1.0)
            wy, dwy = (fy, 1.0) if dy else (1.0 - fy, -1.0)
            if 0 <= y0 + dy < h and 0 <= x0 + dx < w:
                out.append((y0 + dy, x0 + dx, wx * wy, dwx * wy, wx * dwy))
    return out


def deform_aggregate_grad_ref(featmap, offsets, weights, kernel, gout, stride=1, padding=0):
    """Gradients of sum(gout * deform_aggregate_ref(...)), one element at a time.

    Returns (featmap, offsets, weights, kernel, bias) gradients in float64.
    """
    b, c, h, w = featmap.shape
    cout, _, k, _ = kernel.shape
    ho, wo = gout.shape[2:]
    gf = np.zeros((b, c, h, w), np.float64)
    goff = np.zeros(offsets.shape, np.float64)
    gwt = np.zeros(weights.shape, np.float64)
    gk = np.zeros(kernel.shape, np.float64)
    gb = np.asarray(gout, np.float64).sum(axis=(0, 2, 3))
    for bi in range(b):
        for yo in range(ho):
            for xo in range(wo):
                g = [float(gout[bi, co, yo, xo]) for co in range(cout)]
                for t in range(k * k):
                    ty, tx = divmod(t, k)
                    sx = xo * stride - padding + tx + float(offsets[bi, 2 * t, yo, xo])
                    sy = yo * stride - padding + ty + float(offsets[bi, 2 * t + 1, yo, xo])
                    wt = float(weights[bi, t, yo, xo])
                    corners = _bilinear_corners_ref(h, w, sx, sy)
                    for ci in range(c):
                        # d loss / d (sampled value * tap weight)
                        gp = sum(g[co] * float(kernel[co, ci, ty, tx]) for co in range(cout))
                        val = dvx = dvy = 0.0
                        for yy, xx, cw, cdx, cdy in corners:
                            f = float(featmap[bi, ci, yy, xx])
                            val += cw * f
                            dvx += cdx * f
                            dvy += cdy * f
                            gf[bi, ci, yy, xx] += gp * wt * cw
                        gwt[bi, t, yo, xo] += gp * val
                        goff[bi, 2 * t, yo, xo] += gp * wt * dvx
                        goff[bi, 2 * t + 1, yo, xo] += gp * wt * dvy
                        for co in range(cout):
                            gk[co, ci, ty, tx] += g[co] * val * wt
    return gf, goff, gwt, gk, gb


def maxpool_nms_ref(x):
    """Keep values equal to their 3x3 neighborhood max (plateaus included)."""
    b, c, h, w = x.shape
    out = np.zeros_like(x)
    for bi in range(b):
        for ci in range(c):
            for y in range(h):
                for xx in range(w):
                    nb = x[bi, ci, max(0, y - 1):y + 2, max(0, xx - 1):xx + 2]
                    if x[bi, ci, y, xx] >= nb.max():
                        out[bi, ci, y, xx] = x[bi, ci, y, xx]
    return out


def topk_ref(plane3d, k):
    """Every entry sorted by (-score, linear index over (c, y, x)), first k."""
    c, h, w = plane3d.shape
    items = []
    for ci in range(c):
        for y in range(h):
            for x in range(w):
                items.append((float(plane3d[ci, y, x]), ci, y, x))
    items.sort(key=lambda t: (-t[0], (t[1] * h + t[2]) * w + t[3]))
    return items[:k]


def gaussian_radius_ref(box_w, box_h, min_overlap):
    """The three box-shift tangency cases solved with numpy's root finder."""
    w, h, o = float(box_w), float(box_h), float(min_overlap)

    def real_roots(a, b, c):
        return sorted(float(np.real(r)) for r in np.roots([a, b, c])
                      if abs(np.imag(r)) < 1e-9)

    r1 = real_roots(1.0, -(h + w), w * h * (1 - o) / (1 + o))[0]
    r2 = real_roots(4.0, -2.0 * (h + w), (1 - o) * w * h)[0]
    r3 = real_roots(4.0 * o, -2.0 * o * (h + w), (o - 1) * w * h)[-1]
    return max(0.0, min(r1, r2, r3))


def _center_pixel(anno, stride, h, w):
    hx = (anno.human_box[0] + anno.human_box[2]) / 2.0
    hy = (anno.human_box[1] + anno.human_box[3]) / 2.0
    ox = (anno.object_box[0] + anno.object_box[2]) / 2.0
    oy = (anno.object_box[1] + anno.object_box[3]) / 2.0
    px = int((hx + ox) / 2.0 / stride)
    py = int((hy + oy) / 2.0 / stride)
    return min(max(px, 0), w - 1), min(max(py, 0), h - 1)


def _union_radius(anno, stride, min_overlap):
    x1 = min(anno.human_box[0], anno.object_box[0])
    y1 = min(anno.human_box[1], anno.object_box[1])
    x2 = max(anno.human_box[2], anno.object_box[2])
    y2 = max(anno.human_box[3], anno.object_box[3])
    return gaussian_radius_ref((x2 - x1) / stride, (y2 - y1) / stride, min_overlap)


def _stamp_value(px, py, radius, x, y):
    """Gaussian value at (x, y) for a stamp centered on (px, py); 0 outside
    the (2*int(radius)+1)^2 window."""
    r = int(radius)
    if abs(x - px) > r or abs(y - py) > r:
        return 0.0
    sigma = (2.0 * radius + 1.0) / 6.0
    g = math.exp(-((x - px) ** 2 + (y - py) ** 2) / (2.0 * sigma * sigma))
    return float(np.float32(g))


def build_mask_ref(annotations, meaningful, num_verbs, h, w, stride,
                   min_overlap=0.7, hard_negatives=True):
    """Per-pixel signed mask: positive Gaussians win; hard negatives (other
    meaningful verbs for the object class, not positive at that stamp center)
    fill the remaining pixels with the most negative value."""
    placed = [(a, *_center_pixel(a, stride, h, w), _union_radius(a, stride, min_overlap))
              for a in annotations]
    positive_centers = {(a.verb, px, py) for a, px, py, _ in placed}
    mask = np.zeros((num_verbs, h, w), np.float64)
    for v in range(num_verbs):
        for y in range(h):
            for x in range(w):
                pos = [_stamp_value(px, py, r, x, y)
                       for a, px, py, r in placed if a.verb == v]
                pos = [g for g in pos if g > 0.0]
                if pos:
                    mask[v, y, x] = max(pos)
                    continue
                if not hard_negatives:
                    continue
                negs = []
                for a, px, py, r in placed:
                    if v == a.verb or (v, a.object_class) not in meaningful:
                        continue
                    if (v, px, py) in positive_centers:
                        continue
                    g = _stamp_value(px, py, r, x, y)
                    if g > 0.0:
                        negs.append(-g)
                if negs:
                    mask[v, y, x] = min(negs)
    return mask


def hna_loss_ref(pred, mask, num_points, alpha=2.0, beta=7.0, gamma=4.0):
    """One pixel at a time: M=1 positive branch, M<0 hard-negative branch,
    otherwise the penalty-reduced branch."""
    p_flat = np.asarray(pred, np.float64).reshape(-1)
    m_flat = np.asarray(mask, np.float64).reshape(-1)
    total = 0.0
    for p, m in zip(p_flat, m_flat):
        p = min(max(p, 1e-6), 1.0 - 1e-6)
        if m == 1.0:
            total += -((1.0 - p) ** alpha) * math.log(p)
        elif m < 0.0:
            total += -((1.0 - m) ** beta) * (p ** alpha) * math.log(1.0 - p)
        else:
            total += -((1.0 - m) ** gamma) * (p ** alpha) * math.log(1.0 - p)
    return total / max(num_points, 1)


def match_point_ref(ip, offset, candidates, norm="l1"):
    """Exhaustive cost minimization over (distance to ip - offset) / score,
    with ip an (x, y) pair and candidates (score, channel, y, x) rows; ties
    prefer the higher score, then the earlier candidate. Returns its index."""
    tx = ip[0] - offset[0]
    ty = ip[1] - offset[1]
    best = None
    best_key = None
    for order, (score, _, y, x) in enumerate(candidates):
        if norm == "l1":
            dist = abs(x - tx) + abs(y - ty)
        else:
            dist = math.hypot(x - tx, y - ty)
        key = (dist / score, -score, order)
        if best_key is None or key < best_key:
            best_key = key
            best = order
    return best


def _candidates_ref(planes, k):
    """3x3-max peaks of one image's (c, h, w) planes, best k, positive only,
    as (score, channel, y, x) rows."""
    peaks = maxpool_nms_ref(planes[None])[0]
    return [row for row in topk_ref(peaks, k) if row[0] > 0.0]


def _decode_box_ref(x, y, wh, reg, stride):
    _, fh, fw = wh.shape
    bw = float(wh[0, y, x])
    bh = float(wh[1, y, x])
    if bw <= 0.0 or bh <= 0.0:
        return None
    cx = x + float(reg[0, y, x])
    cy = y + float(reg[1, y, x])
    img_w, img_h = fw * stride, fh * stride
    x1 = min(max((cx - bw / 2.0) * stride, 0.0), img_w)
    x2 = min(max((cx + bw / 2.0) * stride, 0.0), img_w)
    y1 = min(max((cy - bh / 2.0) * stride, 0.0), img_h)
    y2 = min(max((cy + bh / 2.0) * stride, 0.0), img_h)
    if x2 <= x1 or y2 <= y1:
        return None
    return (x1, y1, x2, y2)


def assemble_triplets_ref(outputs, stride, k=100, meaningful=None, norm="l1", batch=0):
    """Peak-by-peak decode of one image: match each interaction peak's two
    offset targets against the human and object pools, decode both boxes,
    filter by the (verb, object) pairs in ``meaningful`` when given, and sort
    by descending ip*h*o score (stable). Triplets are tuples
    (human_box, object_box, verb, object_class, score)."""
    det = outputs.det_center.data[batch]
    interactions = _candidates_ref(outputs.interaction_map.data[batch], k)
    humans = _candidates_ref(det[:1], k)
    objects = _candidates_ref(det[1:], k)
    offsets = outputs.match_offsets.data[batch]
    wh, reg = outputs.det_wh.data[batch], outputs.det_reg.data[batch]
    triplets = []
    for score, verb, y, x in interactions:
        if not humans or not objects:
            continue
        grp = verb if outputs.match_groups > 1 else 0
        off = [float(v) for v in offsets[4 * grp:4 * grp + 4, y, x]]
        h_score, _, hy, hx = humans[match_point_ref((x, y), off[0:2], humans, norm)]
        o_score, o_class, oy, ox = objects[match_point_ref((x, y), off[2:4], objects, norm)]
        human_box = _decode_box_ref(hx, hy, wh, reg, stride)
        object_box = _decode_box_ref(ox, oy, wh, reg, stride)
        if human_box is None or object_box is None:
            continue
        if meaningful is not None and (verb, o_class) not in meaningful:
            continue
        triplets.append((human_box, object_box, verb, o_class, score * h_score * o_score))
    triplets.sort(key=lambda t: -t[4])
    return triplets[:k]


def iou_ref(a, b):
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    area = ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)
    return inter / area if area > 0 else 0.0


def adam_step_ref(param, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One float64 update; returns (new_param, new_m, new_v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    return param - lr * mhat / (np.sqrt(vhat) + eps), m, v
