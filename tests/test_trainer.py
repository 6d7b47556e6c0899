"""Config text binding, the optimizer, and the training loop."""

import importlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from ggnet import model as model_module
from ggnet.configio import (
    apply_kv,
    dataclass_from_kv,
    dataclass_to_kv,
    format_kv,
    parse_kv_text,
    read_kv_file,
)
from ggnet.model import GGNet
from ggnet.optim import AdamState, adam_step
from ggnet.synth import SceneSpec, build_table, load_split, make_dataset
from ggnet.tensor import ConfigError, Tensor
from ggnet.train import (
    TrainConfig,
    evaluate_model,
    load_train_config,
    model_config_for,
    run_inference,
    train,
)

from oracles import adam_step_ref


# ===== key = value config text =====

def test_parse_kv_text_comments_and_errors():
    kv = parse_kv_text("a = 1\n# note\n\nb = two words  # trailing\n")
    assert kv == {"a": "1", "b": "two words"}
    with pytest.raises(ConfigError):
        parse_kv_text("a 1\n")
    with pytest.raises(ConfigError):
        parse_kv_text("= 1\n")
    with pytest.raises(ConfigError):
        parse_kv_text("a = 1\na = 2\n")


def test_config_dataclass_binding_roundtrip(tmp_path):
    cfg = TrainConfig(epochs=3, use_gaze2=False, learning_rate=1e-3)
    kv = dataclass_to_kv(cfg)
    assert kv["use_gaze2"] == "false" and kv["epochs"] == "3"
    assert dataclass_from_kv(TrainConfig, kv) == cfg
    path = tmp_path / "cfg.txt"
    path.write_text(format_kv(kv))
    assert read_kv_file(path) == kv
    assert "epochs = 3\n" in format_kv(kv)


def test_apply_kv_coercion_and_unknown_keys():
    cfg = apply_kv(TrainConfig(), {"batch_size": "2", "use_hna": "off",
                                   "learning_rate": "2e-4"})
    assert cfg.batch_size == 2 and cfg.use_hna is False
    assert cfg.learning_rate == pytest.approx(2e-4)
    with pytest.raises(ConfigError, match="unknown config keys"):
        apply_kv(TrainConfig(), {"batchsize": "2"})
    with pytest.raises(ConfigError, match="batch_size"):
        apply_kv(TrainConfig(), {"batch_size": "two"})
    with pytest.raises(ConfigError):
        apply_kv(TrainConfig(), {"use_hna": "maybe"})


def test_train_config_validation():
    assert load_train_config(None) == TrainConfig()
    forced = TrainConfig(use_gaze1=False, use_gaze2=True).validated()
    assert forced.use_gaze2 is False
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validated()
    with pytest.raises(ConfigError):
        TrainConfig(decay_epoch=30, epochs=30).validated()
    with pytest.raises(ConfigError):
        TrainConfig(val_fraction=1.0).validated()
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0).validated()


def test_load_train_config_from_file(tmp_path):
    path = tmp_path / "train.txt"
    path.write_text("epochs = 5\ndecay_epoch = 3\nuse_gaze2 = no\n")
    cfg = load_train_config(path)
    assert (cfg.epochs, cfg.decay_epoch, cfg.use_gaze2) == (5, 3, False)


@pytest.mark.parametrize("key", ["decay_factor", "lambda_wh", "focal_alpha", "focal_gamma",
                                 "hard_negative_beta"])
def test_load_train_config_rejects_fixed_loss_and_schedule_keys(tmp_path, key):
    path = tmp_path / "train.txt"
    path.write_text(f"{key} = 0.1\n")
    with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
        load_train_config(path)


# ===== optimizer =====

def _named(shapes, seed):
    rng = np.random.default_rng(seed)
    out = []
    for i, shape in enumerate(shapes):
        t = Tensor.from_array(rng.normal(0, 1, shape).astype(np.float32))
        out.append((f"p{i}", t))
    return out


def test_adam_step_matches_float64_reference():
    named = _named([(2, 3, 1, 1), (1, 4, 1, 1)], seed=0)
    state = AdamState(named)
    rng = np.random.default_rng(1)
    ref = {name: (t.data.astype(np.float64),
                  np.zeros(t.shape), np.zeros(t.shape)) for name, t in named}
    for step in range(1, 6):
        for name, t in named:
            t.grad = rng.normal(0, 0.5, t.shape).astype(np.float32)
        assert adam_step(state, named, lr=1e-2)
        assert state.steps == step
        for name, t in named:
            param, m, v = ref[name]
            param, m, v = adam_step_ref(param, t.grad.astype(np.float64),
                                        m, v, step, 1e-2)
            param = param.astype(np.float32).astype(np.float64)
            ref[name] = (param, m, v)
            np.testing.assert_array_equal(t.data, param.astype(np.float32), err_msg=name)
            np.testing.assert_array_equal(state.first[name], m)
            np.testing.assert_array_equal(state.second[name], v)


def test_adam_step_treats_missing_grad_as_zero():
    named = _named([(1, 2, 1, 1)], seed=2)
    before = named[0][1].data.copy()
    state = AdamState(named)
    assert adam_step(state, named, lr=1e-2)
    np.testing.assert_array_equal(named[0][1].data, before)  # zero grad, zero moment


def test_adam_step_skips_non_finite_gradients():
    named = _named([(1, 2, 1, 1), (1, 3, 1, 1)], seed=3)
    state = AdamState(named)
    for _, t in named:
        t.grad = np.ones(t.shape, np.float32)
    named[1][1].grad[0, 1, 0, 0] = np.nan
    before = [t.data.copy() for _, t in named]
    assert not adam_step(state, named, lr=1e-2)
    assert state.skipped == 1 and state.steps == 0
    for (_, t), prev in zip(named, before):
        np.testing.assert_array_equal(t.data, prev)
    assert all(np.all(m == 0) for m in state.first.values())


# ===== training loop =====

@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "scenes"
    spec = SceneSpec(seed=5, image_size=48)
    make_dataset(spec, out, n_train=12, n_test=4)
    return out


def _tiny_config(**overrides):
    base = dict(epochs=2, decay_epoch=1, batch_size=4, channels=8,
                num_points=9, val_fraction=0.25, candidates=20, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_loop_artifacts_and_decay(tiny_data, tmp_path):
    out = tmp_path / "run"
    lines = []
    metrics = train(_tiny_config(), tiny_data, out, console=lines.append)
    for name in ["best.ckpt", "best.ckpt.manifest", "metrics.json", "train_log.txt"]:
        assert (out / name).exists(), name
    assert not (out / "best.ckpt.config").exists()  # the config is the manifest's header
    assert metrics["skipped_steps"] == 0
    assert len(metrics["epochs"]) == 2
    rec0, rec1 = metrics["epochs"]
    assert rec0["lr"] == pytest.approx(1.5e-4)
    assert rec1["lr"] == pytest.approx(1.5e-5)  # decayed at decay_epoch
    for key in ["total", "interaction", "matching", "detection", "val_map"]:
        assert key in rec0
    assert 0 <= metrics["best_epoch"] < 2
    assert metrics["best_val_map"] >= 0.0
    disk = json.loads((out / "metrics.json").read_text())
    assert disk == metrics
    log_text = (out / "train_log.txt").read_text().splitlines()
    assert len(log_text) == 2 and log_text[0].startswith("epoch 0:")
    assert lines == log_text  # console callback sees the same lines
    model = GGNet.load(out / "best.ckpt")
    assert model.config.channels == 8

    table = build_table(SceneSpec(seed=5, image_size=48))
    test_samples = load_split(tiny_data, "test")
    res = evaluate_model(model, test_samples, table, k=20)
    assert res.mode == "dt" and res.full_map is not None


def test_train_loop_bitwise_deterministic(tiny_data, tmp_path):
    m1 = train(_tiny_config(), tiny_data, tmp_path / "a")
    m2 = train(_tiny_config(), tiny_data, tmp_path / "b")
    assert m1 == m2
    for name in ["metrics.json", "train_log.txt", "best.ckpt", "best.ckpt.manifest"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_run_inference_covers_every_sample(tiny_data):
    table = build_table(SceneSpec(seed=5, image_size=48))
    samples = load_split(tiny_data, "test")
    cfg = _tiny_config()
    model = GGNet(model_config_for(cfg, table, 48), seed=1)
    dets = run_inference(model, samples, k=10, table=table, batch_size=3)
    assert sorted(dets) == sorted(s.image_id for s in samples)
    for trips in dets.values():
        assert len(trips) <= 10
        for t in trips:
            assert (t.verb, t.object_class) in table.meaningful


def test_train_saves_once_from_the_first_best_epoch(tiny_data, tmp_path, monkeypatch):
    # scripted validation mAPs: epochs 1 and 3 tie for best, so epoch 1 is kept
    maps = iter([0.2, 0.5, 0.1, 0.5])
    seen = []

    def scripted_validation(model, samples, table, **kwargs):
        seen.append({name: t.data.copy() for name, t in model.named_tensors()})
        return SimpleNamespace(full_map=next(maps))

    real_save, saves = model_module.save_checkpoint, []

    def counted_save(path, *args):
        saves.append(path)
        real_save(path, *args)

    # the package exports the function train(), so fetch the module by its full name
    train_module = importlib.import_module("ggnet.train")
    monkeypatch.setattr(train_module, "evaluate_model", scripted_validation)
    monkeypatch.setattr(model_module, "save_checkpoint", counted_save)
    out = tmp_path / "run"
    metrics = train(_tiny_config(epochs=4, decay_epoch=3), tiny_data, out)
    assert saves == [out / "best.ckpt"]
    assert metrics["best_epoch"] == 1 and metrics["best_val_map"] == 0.5
    back = dict(GGNet.load(out / "best.ckpt").named_tensors())
    assert back.keys() == seen[1].keys()
    for name, data in seen[1].items():
        assert np.array_equal(back[name].data, data), name
    assert any(not np.array_equal(back[name].data, data) for name, data in seen[3].items())
