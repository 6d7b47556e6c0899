"""Deterministic synthetic scene generator.

Each verb has a distinct spatial signature (mean human->object displacement
direction, directions evenly spaced on the circle) and a distinct object
texture; each object class has a distinct color and is meaningful for exactly
two verbs, so inferred hard negatives always exist. Scenes are rectangles on
a noisy background; annotation boxes bound the drawn rectangles pixel-exactly.

Placement draws the displacement first and then positions the whole pair
jointly, so border rejection does not bias the displacement statistics.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .losses import (DataError, HoiAnnotation, HoiCategoryTable, format_annotation,
                     parse_annotations, save_table)
from .tensor import ConfigError, Tensor, load_ggt, save_ggt


@dataclass(frozen=True)
class SceneSpec:
    """Scene distribution parameters; (seed, image index) pins every image."""

    seed: int = 0
    image_size: int = 64
    num_verbs: int = 4
    num_objects: int = 4
    min_instances: int = 1
    max_instances: int = 3
    displacement: float = 16.0
    jitter: float = 2.0
    rare_fraction: float = 0.2
    rare_cap: int = 8

    def __post_init__(self):
        if not (1 <= self.num_verbs <= 12):
            # directions are spaced 360/num_verbs degrees apart and need >= 30
            raise ConfigError(f"num_verbs must be in 1..12, got {self.num_verbs}")
        if self.num_objects < 1:
            raise ConfigError("need at least one object class")
        if self.image_size < 48:
            raise ConfigError("image_size below 48 leaves no room for a pair")
        if not (1 <= self.min_instances <= self.max_instances):
            raise ConfigError("bad instance count range")
        if self.displacement <= 0 or self.jitter < 0:
            raise ConfigError("displacement must be positive, jitter nonnegative")
        if not (0.0 <= self.rare_fraction < 1.0) or self.rare_cap < 1 or self.rare_cap >= 10:
            raise ConfigError("rare_fraction in [0,1), rare_cap in 1..9")


def verb_direction(verb: int, num_verbs: int) -> tuple[float, float]:
    angle = 2.0 * math.pi * verb / num_verbs
    return math.cos(angle), math.sin(angle)


def meaningful_pairs(spec: SceneSpec) -> list[tuple[int, int]]:
    pairs = set()
    for ocls in range(spec.num_objects):
        pairs.add((ocls % spec.num_verbs, ocls))
        pairs.add(((ocls + 1) % spec.num_verbs, ocls))
    return sorted(pairs)


def build_table(spec: SceneSpec) -> HoiCategoryTable:
    pairs = meaningful_pairs(spec)
    rare_count = int(round(spec.rare_fraction * len(pairs)))
    rare = frozenset()
    if rare_count:
        rng = np.random.default_rng([spec.seed, 104729])
        picked = rng.choice(len(pairs), size=rare_count, replace=False)
        rare = frozenset(pairs[i] for i in sorted(int(j) for j in picked))
    return HoiCategoryTable(spec.num_verbs, spec.num_objects, frozenset(pairs), rare)


def _place_pair(spec: SceneSpec, rng, verb: int):
    """Integer human/object rectangles with the verb's displacement; None if
    no in-bounds placement found."""
    size = spec.image_size
    hw = int(rng.integers(10, 15))
    hh = int(rng.integers(14, 19))
    ow = int(rng.integers(8, 13))
    oh = int(rng.integers(8, 13))
    dir_x, dir_y = verb_direction(verb, spec.num_verbs)
    for _ in range(100):
        dx = dir_x * spec.displacement + rng.normal(0.0, spec.jitter)
        dy = dir_y * spec.displacement + rng.normal(0.0, spec.jitter)
        # object corner relative to human corner, keeping centers dx/dy apart
        rel_x = round((hw - ow) / 2.0 + dx)
        rel_y = round((hh - oh) / 2.0 + dy)
        lo_x, hi_x = max(0, -rel_x), min(size - hw, size - ow - rel_x)
        lo_y, hi_y = max(0, -rel_y), min(size - hh, size - oh - rel_y)
        if lo_x > hi_x or lo_y > hi_y:
            continue
        hx1 = int(rng.integers(lo_x, hi_x + 1))
        hy1 = int(rng.integers(lo_y, hi_y + 1))
        ox1, oy1 = hx1 + rel_x, hy1 + rel_y
        return (hx1, hy1, hx1 + hw, hy1 + hh), (ox1, oy1, ox1 + ow, oy1 + oh)
    return None


def _draw_human(img: np.ndarray, box) -> None:
    x1, y1, x2, y2 = box
    img[:, y1:y2, x1:x2] = 0.55
    img[:, y1:y1 + max(1, (y2 - y1) // 4), x1:x2] = 0.85


def _draw_object(img: np.ndarray, box, ocls: int, verb: int, num_objects: int) -> None:
    x1, y1, x2, y2 = box
    r, g, b = colorsys.hsv_to_rgb((ocls / num_objects) % 1.0, 0.9, 1.0)
    base = np.array([r, g, b], np.float32).reshape(3, 1, 1)
    pattern = np.ones((y2 - y1, x2 - x1), np.float32)
    style = verb % 4
    if style == 1:
        pattern[0::2, :] = 0.35
    elif style == 2:
        pattern[:, 0::2] = 0.35
    elif style == 3:
        yy, xx = np.indices(pattern.shape)
        pattern[(yy + xx) % 2 == 1] = 0.35
    img[:, y1:y2, x1:x2] = base * pattern


def generate_scene(spec: SceneSpec, rng, pairs=None, draw_once=frozenset()):
    """One rendered scene: (image Tensor (1,3,s,s), annotations).

    pairs restricts the sampled (verb, object) pool; pairs listed in draw_once
    are removed from the pool after their first instance in this scene.
    """
    size = spec.image_size
    img = rng.uniform(0.0, 0.08, (3, size, size)).astype(np.float32)
    pool = list(pairs) if pairs is not None else meaningful_pairs(spec)
    count = int(rng.integers(spec.min_instances, spec.max_instances + 1))
    annos = []
    for _ in range(count):
        if not pool:
            break
        verb, ocls = pool[int(rng.integers(len(pool)))]
        if (verb, ocls) in draw_once:
            pool.remove((verb, ocls))
        placed = _place_pair(spec, rng, verb)
        if placed is None:
            continue
        human, obj = placed
        _draw_human(img, human)
        _draw_object(img, obj, ocls, verb, spec.num_objects)
        annos.append(HoiAnnotation(tuple(float(v) for v in human),
                                   tuple(float(v) for v in obj), verb, ocls))
    image = Tensor((1, 3, size, size), img, requires_grad=False)
    return image, annos


def make_dataset(spec: SceneSpec, out_dir, n_train: int = 200, n_test: int = 50) -> HoiCategoryTable:
    """Write images/<split>.ggt, annos/<split>.txt, table.txt, manifest.txt.

    Each split is one (N, 3, s, s) image pack and one annotation file, in
    manifest order. Rare categories are capped under 10 training instances by
    pre-assigning each one rare_cap train images where it may appear (at most
    once each). Every image is seeded by (seed, split, index) alone, so no
    image depends on the order in which the others are generated.
    """
    if n_train < 0 or n_test < 0:
        raise ConfigError(f"n_train {n_train} and n_test {n_test} must be nonnegative")
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "annos").mkdir(parents=True, exist_ok=True)
    table = build_table(spec)
    save_table(out / "table.txt", table)
    pairs = sorted(table.meaningful)
    alloc_rng = np.random.default_rng([spec.seed, 7919])
    allowance = {}
    for pair in sorted(table.rare):
        picked = alloc_rng.choice(n_train, size=min(spec.rare_cap, n_train), replace=False)
        allowance[pair] = frozenset(int(i) for i in picked)

    manifest_lines = []
    size = spec.image_size
    for split_tag, split, count in ((0, "train", n_train), (1, "test", n_test)):
        pack = np.empty((count, 3, size, size), np.float32)
        anno_lines = []
        for idx in range(count):
            image_id = f"{split}_{idx:04d}"
            manifest_lines.append(f"{split} {image_id}")
            rng = np.random.default_rng([spec.seed, split_tag, idx])
            if split == "train":
                allowed = [p for p in pairs if p not in table.rare or idx in allowance[p]]
                once = table.rare
            else:
                allowed, once = pairs, frozenset()
            image, annos = generate_scene(spec, rng, allowed, once)
            pack[idx] = image.data[0]
            anno_lines.extend(format_annotation(image_id, a) + "\n" for a in annos)
        save_ggt(out / "images" / f"{split}.ggt", Tensor.from_array(pack))
        (out / "annos" / f"{split}.txt").write_text("".join(anno_lines))
    with open(out / "manifest.txt", "w") as f:
        f.write("\n".join(manifest_lines) + "\n")
    return table


@dataclass
class SceneSample:
    image_id: str
    image: Tensor | None
    annotations: list


def load_manifest(data_dir) -> dict[str, list[str]]:
    splits: dict[str, list[str]] = {}
    path = Path(data_dir) / "manifest.txt"
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 2:
                raise ConfigError(f"{path} line {ln}: bad manifest line: {line.strip()!r}")
            splits.setdefault(parts[0], []).append(parts[1])
    return splits


def check_finite(pixels: np.ndarray, path) -> None:
    """Reject NaN or infinite pixels, naming the file they came from."""
    if not np.isfinite(pixels).all():
        raise DataError(f"{path}: image holds non-finite pixel values")


def load_split(data_dir, split: str, with_images: bool = True) -> list[SceneSample]:
    """The split's samples in manifest order; each image is a (1, 3, s, s)
    view into the split's one image pack."""
    root = Path(data_dir)
    splits = load_manifest(root)
    if split not in splits:
        raise ConfigError(f"split {split!r} not in manifest (have {sorted(splits)})")
    ids = splits[split]
    anno_path = root / "annos" / f"{split}.txt"
    with open(anno_path) as f:
        try:
            annos = parse_annotations(f)
        except DataError as exc:
            raise DataError(f"{anno_path} {exc}") from None
    stray = sorted(annos.keys() - set(ids))
    if stray:
        raise DataError(f"{anno_path}: image id {stray[0]!r} is not in split {split!r}")
    images = [None] * len(ids)
    if with_images:
        pack_path = root / "images" / f"{split}.ggt"
        pack = load_ggt(pack_path).data
        if len(pack) != len(ids):
            raise ConfigError(f"{pack_path} holds {len(pack)} images, manifest lists {len(ids)}")
        check_finite(pack, pack_path)
        images = [Tensor.from_array(pack[i:i + 1], requires_grad=False) for i in range(len(ids))]
    return [SceneSample(image_id, image, annos.get(image_id, []))
            for image_id, image in zip(ids, images)]
