"""Synthetic scene generator: determinism, statistics, dataset layout."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

import ggnet
from ggnet.synth import (
    SceneSpec,
    build_table,
    generate_scene,
    load_manifest,
    load_split,
    make_dataset,
    meaningful_pairs,
    verb_direction,
)
from ggnet.losses import DataError
from ggnet.tensor import ConfigError, Tensor, load_ggt, save_ggt


# ===== spec and table =====

def test_scene_spec_validation():
    SceneSpec()  # defaults are valid
    with pytest.raises(ConfigError):
        SceneSpec(num_verbs=13)
    with pytest.raises(ConfigError):
        SceneSpec(image_size=32)
    with pytest.raises(ConfigError):
        SceneSpec(min_instances=3, max_instances=2)
    with pytest.raises(ConfigError):
        SceneSpec(rare_cap=10)
    with pytest.raises(ConfigError):
        SceneSpec(displacement=0.0)


def test_verb_directions_evenly_spaced():
    assert verb_direction(0, 4) == pytest.approx((1.0, 0.0))
    assert verb_direction(1, 4) == pytest.approx((0.0, 1.0), abs=1e-12)
    assert verb_direction(3, 4) == pytest.approx((0.0, -1.0), abs=1e-12)
    for v in range(5):
        x, y = verb_direction(v, 5)
        assert math.hypot(x, y) == pytest.approx(1.0)


def test_meaningful_pairs_two_verbs_per_object():
    spec = SceneSpec(num_verbs=4, num_objects=4)
    pairs = meaningful_pairs(spec)
    assert len(pairs) == 8
    for ocls in range(4):
        verbs = sorted(v for v, o in pairs if o == ocls)
        assert verbs == sorted({ocls % 4, (ocls + 1) % 4})


def test_build_table_deterministic_rare_selection():
    spec = SceneSpec(seed=3)
    t1, t2 = build_table(spec), build_table(spec)
    assert t1 == t2
    assert t1.rare <= t1.meaningful
    assert len(t1.rare) == round(0.2 * len(t1.meaningful))
    assert build_table(SceneSpec(seed=4)).rare != t1.rare or True  # may coincide


# ===== scene generation =====

def test_generate_scene_bitwise_deterministic():
    spec = SceneSpec(seed=0)
    img1, annos1 = generate_scene(spec, np.random.default_rng([7, 1]))
    img2, annos2 = generate_scene(spec, np.random.default_rng([7, 1]))
    assert np.array_equal(img1.data, img2.data)
    assert annos1 == annos2


def test_generate_scene_annotations_are_valid_and_drawn():
    spec = SceneSpec(seed=1)
    table = build_table(spec)
    for trial in range(10):
        img, annos = generate_scene(spec, np.random.default_rng([5, trial]))
        assert img.shape == (1, 3, 64, 64)
        assert not img.requires_grad
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0
        for a in annos:
            assert (a.verb, a.object_class) in table.meaningful
            for box in (a.human_box, a.object_box):
                x1, y1, x2, y2 = box
                assert 0 <= x1 < x2 <= 64 and 0 <= y1 < y2 <= 64
                assert all(float(v).is_integer() for v in box)
            # boxes bound drawn rectangles: interiors are brighter than noise
            hx1, hy1, hx2, hy2 = (int(v) for v in a.human_box)
            assert img.data[0, :, hy1:hy2, hx1:hx2].max() > 0.3


def test_generate_scene_draw_once_limits_pair():
    spec = SceneSpec(seed=2, min_instances=3, max_instances=3)
    for trial in range(5):
        _, annos = generate_scene(spec, np.random.default_rng([9, trial]),
                                  pairs=[(0, 0)], draw_once=frozenset({(0, 0)}))
        assert len(annos) <= 1


def test_displacement_statistics_follow_verb_direction():
    spec = SceneSpec(seed=0, displacement=16.0, jitter=2.0)
    deltas = []
    trial = 0
    while len(deltas) < 300:
        _, annos = generate_scene(spec, np.random.default_rng([11, trial]),
                                  pairs=[(1, 1)])
        trial += 1
        for a in annos:
            hx = (a.human_box[0] + a.human_box[2]) / 2
            hy = (a.human_box[1] + a.human_box[3]) / 2
            ox = (a.object_box[0] + a.object_box[2]) / 2
            oy = (a.object_box[1] + a.object_box[3]) / 2
            deltas.append((ox - hx, oy - hy))
    mean = np.mean(deltas, axis=0)
    # verb 1 of 4 points straight down the +y axis
    assert mean[0] == pytest.approx(0.0, abs=1.0)
    assert mean[1] == pytest.approx(16.0, abs=1.0)


# ===== dataset build =====

def _build(tmp_path: Path, name: str, **kwargs) -> Path:
    out = tmp_path / name
    spec = SceneSpec(seed=5, image_size=48, **kwargs)
    make_dataset(spec, out, n_train=24, n_test=8)
    return out


def test_make_dataset_layout_and_loaders(tmp_path):
    out = _build(tmp_path, "d1")
    assert (out / "table.txt").exists()
    splits = load_manifest(out)
    assert [len(splits["train"]), len(splits["test"])] == [24, 8]
    assert splits["train"][0] == "train_0000"
    assert sorted(p.name for p in (out / "images").iterdir()) == ["test.ggt", "train.ggt"]
    assert sorted(p.name for p in (out / "annos").iterdir()) == ["test.txt", "train.txt"]
    assert load_ggt(out / "images" / "train.ggt").shape == (24, 3, 48, 48)
    assert load_ggt(out / "images" / "test.ggt").shape == (8, 3, 48, 48)
    sample = load_split(out, "test")[3]
    assert sample.image_id == "test_0003"
    assert sample.image.shape == (1, 3, 48, 48)
    assert not sample.image.requires_grad
    train = load_split(out, "train", with_images=False)
    assert len(train) == 24 and train[0].image is None
    with pytest.raises(ConfigError):
        load_split(out, "val")


def test_make_dataset_rejects_negative_counts(tmp_path):
    for counts in ((-3, 5), (5, -1)):
        with pytest.raises(ConfigError, match="must be nonnegative"):
            make_dataset(SceneSpec(seed=5, image_size=48), tmp_path / "neg", *counts)
    assert not (tmp_path / "neg").exists()


def test_make_dataset_respects_rare_cap(tmp_path):
    out = _build(tmp_path, "d2")
    spec = SceneSpec(seed=5, image_size=48)
    table = build_table(spec)
    assert table.rare
    counts = {pair: 0 for pair in table.rare}
    for sample in load_split(out, "train", with_images=False):
        per_image = {}
        for a in sample.annotations:
            key = (a.verb, a.object_class)
            if key in counts:
                counts[key] += 1
                per_image[key] = per_image.get(key, 0) + 1
        assert all(n <= 1 for n in per_image.values())
    assert all(n <= spec.rare_cap for n in counts.values())


def test_make_dataset_bitwise_deterministic(tmp_path):
    out1 = _build(tmp_path, "d3")
    out2 = _build(tmp_path, "d4")
    for rel in ["manifest.txt", "table.txt", "images/train.ggt", "images/test.ggt",
                "annos/train.txt", "annos/test.txt"]:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_load_split_gives_each_generated_scene(tmp_path):
    # without rare categories every image is generate_scene over the full
    # pair pool, seeded by (seed, split, index)
    spec = SceneSpec(seed=5, image_size=48, rare_fraction=0.0)
    out = tmp_path / "d5"
    make_dataset(spec, out, n_train=6, n_test=4)
    for split_tag, split, count in ((0, "train", 6), (1, "test", 4)):
        samples = load_split(out, split)
        assert [s.image_id for s in samples] == [f"{split}_{i:04d}" for i in range(count)]
        for idx, sample in enumerate(samples):
            image, annos = generate_scene(spec, np.random.default_rng([5, split_tag, idx]))
            assert sample.image.data.tobytes() == image.data.tobytes()
            assert not sample.image.requires_grad
            assert sample.annotations == annos
        assert load_split(out, split, with_images=False)[1].annotations == samples[1].annotations


def test_load_split_rejects_inconsistent_files(tmp_path):
    out = _build(tmp_path, "d6")
    annos = out / "annos" / "test.txt"
    good = annos.read_text()
    annos.write_text(good + good.splitlines()[0].replace("test_", "train_", 1) + "\n")
    for with_images in (True, False):
        with pytest.raises(DataError, match="not in split 'test'"):
            load_split(out, "test", with_images=with_images)
    annos.write_text(good)

    pack_path = out / "images" / "test.ggt"
    pack = load_ggt(pack_path).data
    save_ggt(pack_path, Tensor.from_array(pack[:7]))
    with pytest.raises(ConfigError, match="holds 7 images, manifest lists 8"):
        load_split(out, "test")
    assert len(load_split(out, "test", with_images=False)) == 8  # the pack is not read

    pack[5, 1, 2, 3] = np.nan
    save_ggt(pack_path, Tensor.from_array(pack))
    with pytest.raises(DataError, match="test.ggt: image holds non-finite"):
        load_split(out, "test")
    pack[5, 1, 2, 3] = -np.inf
    save_ggt(pack_path, Tensor.from_array(pack))
    with pytest.raises(DataError, match="non-finite"):
        load_split(out, "test")


def test_load_split_names_the_file_of_a_bad_annotation_line(tmp_path):
    out = _build(tmp_path, "d7")
    annos = out / "annos" / "test.txt"
    annos.write_text("test_0000 x 0 1 2 3 4 5 6 7 8\n" + annos.read_text())
    with pytest.raises(DataError, match=re.escape(f"{annos}: bad annotation line 'test_0000 x 0 ")):
        load_split(out, "test", with_images=False)


def test_no_module_reads_environment_variables():
    # behaviour is set by arguments and config files only, never by the environment
    src = Path(ggnet.__file__).parent
    readers = [f"{path.name}:{n}" for path in sorted(src.glob("*.py"))
               for n, line in enumerate(path.read_text().splitlines(), 1)
               if "os.environ" in line or "getenv" in line]
    assert not readers, readers
