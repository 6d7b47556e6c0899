"""Training loop: deterministic streams, validation-selected checkpoints.

All randomness flows from seeded generators derived as (seed, purpose-tag),
and the metrics files contain no wall-clock data, so one (seed, config, data)
triple produces bitwise-identical checkpoints and logs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .configio import apply_kv, read_kv_file
from .decoder import assemble_triplets
from .evaluator import evaluate
from .losses import (HoiCategoryTable, build_mask, centernet_focal, detection_losses,
                     hna_loss, load_table, matching_loss, total_loss)
from .model import GGNet, ModelConfig, forward_infer, forward_train
from .optim import AdamState, adam_step
from .synth import SceneSample, load_split
from .tensor import ConfigError, Tensor, tape


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1.5e-4
    batch_size: int = 8
    epochs: int = 30
    decay_epoch: int = 22
    lambda_aux: float = 0.1
    num_points: int = 25
    stride: int = 4
    channels: int = 16
    seed: int = 0
    val_fraction: float = 0.1
    candidates: int = 100
    use_gaze1: bool = True
    use_gaze2: bool = True
    use_hna: bool = True
    use_apm: bool = True

    def validated(self) -> "TrainConfig":
        cfg = self
        if cfg.use_gaze2 and not cfg.use_gaze1:
            # disabling the first gaze step forces the second off
            cfg = replace(cfg, use_gaze2=False)
        if cfg.epochs < 1 or cfg.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not (0 <= cfg.decay_epoch < cfg.epochs):
            raise ConfigError(f"decay_epoch {cfg.decay_epoch} must lie before epochs {cfg.epochs}")
        if cfg.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0.0 <= cfg.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in [0, 1)")
        if cfg.candidates < 1:
            raise ConfigError("candidates must be positive")
        return cfg


def load_train_config(path=None) -> TrainConfig:
    kv = read_kv_file(path) if path else {}
    return apply_kv(TrainConfig(), kv).validated()


def model_config_for(cfg: TrainConfig, table: HoiCategoryTable, input_size: int) -> ModelConfig:
    return ModelConfig(
        num_verbs=table.num_verbs, num_objects=table.num_objects,
        channels=cfg.channels, stride=cfg.stride, num_points=cfg.num_points,
        input_size=input_size, use_gaze1=cfg.use_gaze1, use_gaze2=cfg.use_gaze2,
        use_apm=cfg.use_apm)


def _stack_images(samples: list[SceneSample]) -> Tensor:
    data = np.concatenate([s.image.data for s in samples], axis=0)
    return Tensor(data.shape, data, requires_grad=False)


def run_inference(model: GGNet, samples: list[SceneSample], k: int = 100,
                  table: HoiCategoryTable | None = None, batch_size: int = 8) -> dict:
    """Forward + decode over samples; image_id -> ranked triplets."""
    stride = model.config.stride
    dets = {}
    for start in range(0, len(samples), batch_size):
        chunk = samples[start:start + batch_size]
        out = forward_infer(model, _stack_images(chunk))
        for bi, sample in enumerate(chunk):
            dets[sample.image_id] = assemble_triplets(out, stride, k=k, table=table, batch=bi)
    return dets


def evaluate_model(model: GGNet, samples: list[SceneSample], table: HoiCategoryTable,
                   k: int = 100, batch_size: int = 8):
    """DT-mode role mAP of the model's decoded triplets on ``samples``."""
    dets = run_inference(model, samples, k=k, table=table, batch_size=batch_size)
    gts = {s.image_id: s.annotations for s in samples}
    return evaluate(dets, gts, table, mode="dt")


def train(config: TrainConfig, data_dir, out_dir, console=None) -> dict:
    """Run the full loop; returns the metrics dict (also written to
    out_dir/metrics.json, with per-epoch lines in out_dir/train_log.txt and
    the best-validation checkpoint at out_dir/best.ckpt)."""
    cfg = config.validated()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data_dir = Path(data_dir)
    table = load_table(data_dir / "table.txt")
    samples = load_split(data_dir, "train")
    if not samples:
        raise ConfigError(f"no training images under {data_dir}")
    _, _, height, width = samples[0].image.shape
    if height != width:
        raise ConfigError("training images must be square")
    mcfg = model_config_for(cfg, table, height)
    model = GGNet(mcfg, seed=cfg.seed)

    perm = np.random.default_rng([cfg.seed, 11]).permutation(len(samples))
    n_val = int(round(len(samples) * cfg.val_fraction))
    val_samples = [samples[i] for i in perm[:n_val]]
    train_samples = [samples[i] for i in perm[n_val:]]
    if not train_samples:
        raise ConfigError("validation split swallowed every training image")

    feat = mcfg.feat_size
    masks = [build_mask(s.annotations, table, (table.num_verbs, feat, feat), cfg.stride,
                        hard_negatives=cfg.use_hna) for s in train_samples]

    opt = AdamState(model.named_tensors())
    head_loss = hna_loss if cfg.use_hna else centernet_focal
    order_rng = np.random.default_rng([cfg.seed, 13])
    history = []
    log_lines = []
    best_map = -1.0
    best_epoch = -1
    best_params = []

    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate * (0.1 if epoch >= cfg.decay_epoch else 1.0)
        order = order_rng.permutation(len(train_samples))
        sums: dict[str, float] = {}
        batches = 0
        for start in range(0, len(order), cfg.batch_size):
            idxs = order[start:start + cfg.batch_size]
            batch = [train_samples[i] for i in idxs]
            images = _stack_images(batch)
            batch_mask = np.stack([masks[i] for i in idxs])
            annos = [b.annotations for b in batch]
            num_points = sum(len(a) for a in annos)
            with tape() as t:
                outp = forward_train(model, images)
                heads = [h for h in (outp.glance_heatmap, outp.gaze1_heatmap,
                                     outp.gaze2_heatmap) if h is not None]
                main = head_loss(heads[-1], batch_mask, num_points)
                aux = [head_loss(h, batch_mask, num_points) for h in heads[:-1]]
                match = matching_loss(outp.match_offsets, annos, stride=cfg.stride)
                det, det_parts = detection_losses(outp.det_center, outp.det_wh, outp.det_reg,
                                                  annos, table, cfg.stride)
                total = total_loss(main, aux, match, det, lambda_aux=cfg.lambda_aux)
                t.backward(total)
            adam_step(opt, model.named_tensors(), lr)
            model.zero_grads()
            parts = {"total": total.item(), "interaction": main.item(),
                     "matching": match.item(), "detection": det.item(), **det_parts}
            for key, value in parts.items():
                sums[key] = sums.get(key, 0.0) + value
            batches += 1
        means = {key: value / batches for key, value in sums.items()}
        if val_samples:
            val_res = evaluate_model(model, val_samples, table, k=cfg.candidates,
                                     batch_size=cfg.batch_size)
            val_map = val_res.full_map if val_res.full_map is not None else 0.0
        else:
            val_map = 0.0
        record = {"epoch": epoch, "lr": lr, "val_map": val_map, **means}
        history.append(record)
        line = (f"epoch {epoch}: lr {lr:.2e} total {means['total']:.4f} "
                f"interaction {means['interaction']:.4f} matching {means['matching']:.4f} "
                f"detection {means['detection']:.4f} val_map {val_map:.4f}")
        log_lines.append(line)
        if console:
            console(line)
        if val_map > best_map:
            best_map = val_map
            best_epoch = epoch
            best_params = [t.data.copy() for _, t in model.named_tensors()]
    for (_, t), data in zip(model.named_tensors(), best_params):
        t.data[...] = data
    model.save(out / "best.ckpt")

    metrics = {"best_epoch": best_epoch, "best_val_map": best_map,
               "skipped_steps": opt.skipped, "epochs": history}
    (out / "metrics.json").write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    (out / "train_log.txt").write_text("\n".join(log_lines) + "\n")
    return metrics
