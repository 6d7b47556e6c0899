"""Command-line chain: synth -> train -> infer -> eval -> visualize."""

import argparse
import json
import re
import struct

import numpy as np
import pytest

from ggnet import cli
from ggnet.cli import main
from ggnet.losses import DataError, load_table
from ggnet.model import ActPointField, GGNet, ModelConfig
from ggnet.synth import SceneSpec, load_manifest, load_split, make_dataset
from ggnet.tensor import MAGIC, ConfigError, Tensor, load_checkpoint, load_ggt, save_ggt
from ggnet.train import load_train_config
from ggnet.viz import _tap_positions, tensor_to_rgb8, write_ppm


def read_ppm_size(path) -> tuple[int, int]:
    """(width, height) from a binary pixmap header."""
    with open(path, "rb") as f:
        magic = f.readline().strip()
        if magic != b"P6":
            raise ValueError(f"not a binary pixmap: {magic!r}")
        dims = f.readline().split()
        return int(dims[0]), int(dims[1])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def test_cli_full_chain(workdir, capsys):
    scene_cfg = workdir / "scene.txt"
    scene_cfg.write_text("seed = 5\nimage_size = 48\nn_train = 10\nn_test = 4\n")
    data = workdir / "data"
    assert main(["synth", "--config", str(scene_cfg), "--out", str(data)]) == 0
    out = capsys.readouterr().out
    assert "wrote 10 train + 4 test images" in out
    assert (data / "manifest.txt").exists()

    train_cfg = workdir / "train.txt"
    train_cfg.write_text("epochs = 1\ndecay_epoch = 0\nbatch_size = 4\n"
                         "channels = 8\nnum_points = 9\nval_fraction = 0.25\n"
                         "candidates = 20\n")
    run = workdir / "run"
    assert main(["train", "--config", str(train_cfg), "--data", str(data),
                 "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("epoch 0:")
    assert "best epoch" in out
    ckpt = run / "best.ckpt"
    assert ckpt.exists()

    trips = workdir / "trips.txt"
    assert main(["infer", "--ckpt", str(ckpt), "--data", str(data),
                 "--out", str(trips), "--split", "test",
                 "--candidates", "10"]) == 0
    out = capsys.readouterr().out
    assert "over 4 images" in out
    dropped = out.splitlines()[1].split(": ")
    assert dropped[0] == "dropped peaks"
    assert [r.split()[0] for r in dropped[1].split(", ")] == [
        "empty_pool", "degenerate_box", "table_filter"]
    assert trips.exists()

    assert main(["eval", "--dets", str(trips), "--gt", str(data),
                 "--mode", "dt", "--split", "test"]) == 0
    out = capsys.readouterr().out
    assert "mode = dt" in out and "full_map = " in out
    metrics_path = workdir / "trips.txt.metrics.json"
    assert metrics_path.exists()
    blob = json.loads(metrics_path.read_text())
    assert blob["mode"] == "dt" and "per_category" in blob

    custom = workdir / "ko.json"
    assert main(["eval", "--dets", str(trips), "--gt", str(data),
                 "--mode", "ko", "--json", str(custom)]) == 0
    capsys.readouterr()
    assert json.loads(custom.read_text())["mode"] == "ko"

    ppm = workdir / "overlay.ppm"
    assert main(["visualize", "--ckpt", str(ckpt),
                 "--image", str(data / "images" / "test.ggt"), "--index", "1",
                 "--out", str(ppm)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert read_ppm_size(ppm) == (48, 48)

    for index in ("4", "-1"):
        assert main(["visualize", "--ckpt", str(ckpt),
                     "--image", str(data / "images" / "test.ggt"), "--index", index,
                     "--out", str(workdir / "none.ppm")]) == 2
        assert f"--index {index} is out of range" in capsys.readouterr().err
        assert not (workdir / "none.ppm").exists()


def test_cli_subcommands_are_the_five_pipeline_steps(capsys):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS) == {"synth", "train", "infer", "eval",
                                                       "visualize"}
    with pytest.raises(SystemExit) as exc:
        main(["gradcheck"])
    assert exc.value.code == 2
    assert "invalid choice: 'gradcheck'" in capsys.readouterr().err


def test_cli_errors_exit_two(workdir, capsys):
    assert main(["eval", "--dets", str(workdir / "missing.txt"),
                 "--gt", str(workdir / "data")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")

    bad_cfg = workdir / "bad.txt"
    bad_cfg.write_text("image_sz = 48\n")
    assert main(["synth", "--config", str(bad_cfg), "--out", str(workdir / "x")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["pair 0 0", "verbs", "pair 0 0 rar"])
def test_cli_eval_malformed_table_line_exits_two(tmp_path, capsys, line):
    data = tmp_path / "data"
    make_dataset(SceneSpec(seed=1, image_size=48), data, n_train=2, n_test=2)
    table = data / "table.txt"
    text = table.read_text() + line + "\n"
    table.write_text(text)
    dets = tmp_path / "dets.txt"
    dets.write_text("")
    assert main(["eval", "--dets", str(dets), "--gt", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    n = text.count("\n")
    assert captured.err.startswith(f"error: {table} line {n}: malformed table line {line!r}")


def _load_annotations(path):
    """Read the split annotation file at ``path`` through load_split."""
    root = path.parent.parent
    (root / "manifest.txt").write_text("test a\n")
    return load_split(root, "test", with_images=False)


@pytest.mark.parametrize("name, text, bad_line, error, read", [
    ("train.txt", "epochs = 5\nbogus line\n", 2, ConfigError, load_train_config),
    ("table.txt", "verbs 2\npair 0 0\n", 2, DataError, load_table),
    ("manifest.txt", "train a\ntrain a b\n", 2, ConfigError, lambda p: load_manifest(p.parent)),
    ("m.ckpt.manifest", "k = 1\n\nw 1 1 1 1 0\nw 1 1 1\n", 4, ValueError,
     lambda p: load_checkpoint(p.with_suffix(""))),
    ("m.ckpt.manifest", "k = 1\n\nw 1 1 1 1 x\n", 3, ValueError,
     lambda p: load_checkpoint(p.with_suffix(""))),
    ("annos/test.txt", "a 0 0 0 0 4 4 5 5 9 9\n\na 0 0 0 0 4 4 5 5 9\n", 3, DataError,
     _load_annotations),
], ids=["config", "table", "data_manifest", "checkpoint_manifest", "checkpoint_offset",
        "annotations"])
def test_text_file_errors_name_the_file_and_line(tmp_path, name, text, bad_line, error, read):
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)
    with pytest.raises(error, match=re.escape(f"{path} line {bad_line}: ")):
        read(path)


def test_cli_visualize_corrupt_image_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "tiny.ckpt"
    _tiny_model(ckpt)
    bad = tmp_path / "bad.ggt"
    bad.write_bytes(MAGIC + struct.pack("<4I", 2**31, 2**31, 1, 1))
    assert main(["visualize", "--ckpt", str(ckpt), "--image", str(bad),
                 "--out", str(tmp_path / "bad.ppm")]) == 2
    assert capsys.readouterr().err.startswith("error: truncated GGT1 payload")


def _tiny_model(path, input_size=16):
    GGNet(ModelConfig(num_verbs=2, num_objects=2, channels=4, stride=4,
                      num_points=9, input_size=input_size)).save(path)


def test_cli_visualize_forwards_only_the_chosen_image(tmp_path, capsys, monkeypatch):
    ckpt = tmp_path / "tiny.ckpt"
    _tiny_model(ckpt)
    rng = np.random.default_rng(0)
    pack = rng.uniform(0, 1, (3, 3, 16, 16)).astype(np.float32)
    pack[0] = np.nan  # never read when another image is picked
    path = tmp_path / "three.ggt"
    save_ggt(path, Tensor.from_array(pack))
    seen = []
    monkeypatch.setattr(cli, "visualize", lambda model, image, out: seen.append(
        image.data.copy()) or {"interaction": None})
    assert main(["visualize", "--ckpt", str(ckpt), "--image", str(path), "--index", "2",
                 "--out", str(tmp_path / "v.ppm")]) == 0
    capsys.readouterr()
    assert len(seen) == 1 and seen[0].shape == (1, 3, 16, 16)
    assert seen[0].tobytes() == pack[2:3].tobytes()


def test_cli_non_finite_image_exits_two(tmp_path, capsys):
    ckpt = tmp_path / "tiny.ckpt"
    _tiny_model(ckpt)
    path = tmp_path / "nan.ggt"
    save_ggt(path, Tensor.from_array(np.full((1, 3, 16, 16), np.nan, np.float32)))
    assert main(["visualize", "--ckpt", str(ckpt), "--image", str(path),
                 "--out", str(tmp_path / "nan.ppm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nan.ggt" in err and "non-finite" in err
    assert not (tmp_path / "nan.ppm").exists()


@pytest.fixture
def corrupt_split(tmp_path):
    """A small dataset, a checkpoint, and a function that runs infer on its test split."""
    data = tmp_path / "data"
    make_dataset(SceneSpec(seed=1, image_size=48), data, n_train=2, n_test=3)
    ckpt = tmp_path / "tiny.ckpt"
    _tiny_model(ckpt, input_size=48)

    def infer():
        return main(["infer", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "trips.txt")])
    return data / "images" / "test.ggt", infer


def test_cli_infer_truncated_pack_exits_two(corrupt_split, capsys):
    pack, infer = corrupt_split
    raw = pack.read_bytes()
    pack.write_bytes(raw[:-100])
    assert infer() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: truncated GGT1 payload")


def test_cli_infer_pack_count_mismatch_exits_two(corrupt_split, capsys):
    pack, infer = corrupt_split
    save_ggt(pack, Tensor.from_array(load_ggt(pack).data[:2]))
    assert infer() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "holds 2 images, manifest lists 3" in err


def test_cli_infer_non_finite_pack_exits_two(corrupt_split, capsys):
    pack, infer = corrupt_split
    images = load_ggt(pack).data
    images[2, 0, 0, 0] = np.inf
    save_ggt(pack, Tensor.from_array(images))
    assert infer() == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "test.ggt" in err and "non-finite" in err


def test_ppm_roundtrip(tmp_path):
    rgb = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n3 2\n255\n")
    assert raw[len(b"P6\n3 2\n255\n"):] == rgb.tobytes()
    assert read_ppm_size(path) == (3, 2)
    with pytest.raises(ValueError):
        write_ppm(path, rgb.astype(np.float32))
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ValueError):
        read_ppm_size(bad)


def test_tensor_to_rgb8_clips_and_scales():
    data = np.zeros((1, 3, 1, 2), np.float32)
    data[0, :, 0, 0] = [-0.5, 0.5, 2.0]
    data[0, :, 0, 1] = [0.0, 1.0, 0.25]
    rgb = tensor_to_rgb8(Tensor.from_array(data))
    assert rgb.shape == (1, 2, 3)
    assert rgb[0, 0].tolist() == [0, 128, 255]
    assert rgb[0, 1].tolist() == [0, 255, 64]


@pytest.mark.parametrize("side", [3, 5])
def test_tap_positions_are_grid_plus_offset_with_the_tap_weight(side):
    taps = side * side
    rng = np.random.default_rng(side)
    offsets = rng.uniform(-2.0, 2.0, (1, 2 * taps, 5, 6)).astype(np.float32)
    weights = rng.uniform(0.0, 1.0, (1, taps, 5, 6)).astype(np.float32)
    field = ActPointField(Tensor.from_array(offsets), Tensor.from_array(weights))
    px, py = 4, 2
    drawn = _tap_positions(field, px, py)
    assert len(drawn) == taps
    for t, (x, y, w) in enumerate(drawn):
        ky, kx = divmod(t, side)  # taps in row-major kernel order, centered on the pixel
        assert x == px + kx - side // 2 + float(offsets[0, 2 * t, py, px])
        assert y == py + ky - side // 2 + float(offsets[0, 2 * t + 1, py, px])
        assert w == float(weights[0, t, py, px])


def test_cli_infer_manifest_without_header_exits_two(corrupt_split, tmp_path, capsys):
    _, infer = corrupt_split
    assert infer() == 0
    manifest = tmp_path / "tiny.ckpt.manifest"
    # the older layout: record lines only, the config in a separate sidecar
    manifest.write_text(manifest.read_text().split("\n\n", 1)[1])
    capsys.readouterr()
    assert infer() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {manifest}: no header")


def test_cli_infer_bad_config_header_names_the_manifest(corrupt_split, tmp_path, capsys):
    _, infer = corrupt_split
    manifest = tmp_path / "tiny.ckpt.manifest"
    manifest.write_text(manifest.read_text().replace("channels = 4", "channels = four"))
    assert infer() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {manifest}: key 'channels': bad value 'four'")


@pytest.fixture
def eval_split(tmp_path):
    """A small dataset, an empty triplet file, and a function that evaluates it."""
    data = tmp_path / "data"
    make_dataset(SceneSpec(seed=1, image_size=48), data, n_train=2, n_test=2)
    dets = tmp_path / "dets.txt"
    dets.write_text("")

    def run_eval():
        return main(["eval", "--dets", str(dets), "--gt", str(data)])
    return data, dets, run_eval


def test_cli_eval_bad_triplet_line_exits_two(eval_split, capsys):
    _, dets, run_eval = eval_split
    dets.write_text("test_0000 0 0 x 0 0 1 1 2 2 3 3\n")
    assert run_eval() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {dets} line 1: bad triplet line 'test_0000 0 0 x 0 0 1 1 2 2 3 3': ")


def test_cli_eval_nan_score_triplet_exits_two(eval_split, capsys):
    _, dets, run_eval = eval_split
    line = "test_0000 0 0 nan 0 0 1 1 2 2 3 3"
    dets.write_text(line + "\n")
    assert run_eval() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {dets} line 1: bad triplet line {line!r}: score nan is not finite")


def test_cli_eval_bad_annotation_line_exits_two(eval_split, capsys):
    data, _, run_eval = eval_split
    annos = data / "annos" / "test.txt"
    annos.write_text("test_0000 x 0 1 2 3 4 5 6 7 8\n" + annos.read_text())
    assert run_eval() == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: {annos} line 1: bad annotation line 'test_0000 x 0 1 2 3 4 5 6 7 8': ")


@pytest.mark.parametrize("line, message", [
    ("n_train = abc", "error: key 'n_train': bad value 'abc'"),
    ("n_test = 1.5", "error: key 'n_test': bad value '1.5'"),
    ("n_train = -3", "error: n_train -3 and n_test 50 must be nonnegative"),
])
def test_cli_synth_bad_counts_exit_two(tmp_path, capsys, line, message):
    scene_cfg = tmp_path / "scene.txt"
    scene_cfg.write_text(line + "\n")
    assert main(["synth", "--config", str(scene_cfg), "--out", str(tmp_path / "d")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert not (tmp_path / "d").exists()
