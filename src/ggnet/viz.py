"""Overlay rendering: top interaction point, both sampling-point sets
(weight-shaded), and the decoded boxes, written as a binary portable pixmap.
"""

from __future__ import annotations

import math

import numpy as np

from .decoder import assemble_triplets, select_candidates
from .model import GGNet, forward_infer
from .tensor import Tensor


def tensor_to_rgb8(image: Tensor, batch: int = 0) -> np.ndarray:
    chw = np.clip(image.data[batch], 0.0, 1.0)
    return (chw.transpose(1, 2, 0) * 255.0).round().astype(np.uint8)


def write_ppm(path, rgb: np.ndarray) -> None:
    h, w, c = rgb.shape
    if c != 3 or rgb.dtype != np.uint8:
        raise ValueError("write_ppm wants (h, w, 3) uint8")
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(rgb.tobytes())


def _put(rgb: np.ndarray, x: int, y: int, color) -> None:
    h, w, _ = rgb.shape
    if 0 <= x < w and 0 <= y < h:
        rgb[y, x] = color


def _cross(rgb: np.ndarray, x: int, y: int, color, arm: int = 2) -> None:
    for d in range(-arm, arm + 1):
        _put(rgb, x + d, y, color)
        _put(rgb, x, y + d, color)


def _rect(rgb: np.ndarray, box, color) -> None:
    x1, y1, x2, y2 = (int(round(v)) for v in box)
    for x in range(x1, x2):
        _put(rgb, x, y1, color)
        _put(rgb, x, max(y1, y2 - 1), color)
    for y in range(y1, y2):
        _put(rgb, x1, y, color)
        _put(rgb, max(x1, x2 - 1), y, color)


def _tap_positions(field, px: int, py: int, batch: int = 0) -> list[tuple[float, float, float]]:
    """(x, y, weight) per tap at one feature pixel, feature-map coords."""
    taps = field.taps
    side = math.isqrt(taps)
    offs = field.offsets.data[batch, :, py, px]
    ws = field.weights.data[batch, :, py, px]
    out = []
    for t in range(taps):
        ky, kx = divmod(t, side)
        out.append((px + (kx - side // 2) + float(offs[2 * t]),
                    py + (ky - side // 2) + float(offs[2 * t + 1]),
                    float(ws[t])))
    return out


def _draw_points(rgb: np.ndarray, points, stride: int, hue) -> None:
    if not points:
        return
    ws = [p[2] for p in points]
    lo, hi = min(ws), max(ws)
    span = (hi - lo) or 1.0
    for x, y, w in points:
        shade = 0.35 + 0.65 * (w - lo) / span
        color = tuple(int(round(c * 255 * shade)) for c in hue)
        px = int(round(x * stride + stride / 2))
        py = int(round(y * stride + stride / 2))
        _put(rgb, px, py, color)
        _put(rgb, px + 1, py, color)
        _put(rgb, px, py + 1, color)


def visualize(model: GGNet, image: Tensor, out_path, k: int = 100) -> dict:
    """Render overlays for the highest-scoring interaction; returns a summary
    with the point/box geometry that was drawn."""
    outputs = forward_infer(model, image)
    stride = model.config.stride
    rgb = tensor_to_rgb8(image)
    summary = {"interaction": None, "points_step1": [], "points_final": [],
               "human_box": None, "object_box": None}
    peaks = select_candidates(outputs.interaction_map, k=1)
    if len(peaks):
        score, verb, y, x = peaks[0].tolist()
        x, y = int(x), int(y)
        summary["interaction"] = {"x": x, "y": y, "verb": int(verb), "score": score}
        if outputs.points_coarse is not None:
            summary["points_step1"] = _tap_positions(outputs.points_coarse, x, y)
        if outputs.points_final is not None:
            summary["points_final"] = _tap_positions(outputs.points_final, x, y)
        triplets = assemble_triplets(outputs, stride, k=k)
        if triplets:
            top = triplets[0]
            summary["human_box"] = top.human_box
            summary["object_box"] = top.object_box
            _rect(rgb, top.human_box, (60, 255, 60))
            _rect(rgb, top.object_box, (255, 60, 60))
        _draw_points(rgb, summary["points_step1"], stride, (1.0, 0.85, 0.1))
        _draw_points(rgb, summary["points_final"], stride, (0.2, 0.9, 1.0))
        _cross(rgb, int(round(x * stride + stride / 2)),
               int(round(y * stride + stride / 2)), (255, 255, 255))
    write_ppm(out_path, rgb)
    return summary
