"""Command-line surface: synth / train / infer / eval / visualize."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .configio import apply_kv, coerce_key, read_kv_file
from .decoder import DROP_REASONS, drop_counts, load_triplets, reset_drop_counts, save_triplets
from .evaluator import evaluate
from .losses import DataError, load_table
from .model import GGNet
from .synth import SceneSpec, check_finite, load_split, make_dataset
from .tensor import ConfigError, ShapeError, Tensor, load_ggt
from .train import load_train_config, run_inference, train
from .viz import visualize


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ggnet",
                                description="glance-and-gaze interaction detector")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic dataset")
    sp.add_argument("--config", help="key = value scene config")
    sp.add_argument("--out", required=True)

    tp = sub.add_parser("train", help="train on a dataset directory")
    tp.add_argument("--config", help="key = value training config")
    tp.add_argument("--data", required=True)
    tp.add_argument("--out", required=True)

    ip = sub.add_parser("infer", help="decode triplets for a dataset split")
    ip.add_argument("--ckpt", required=True)
    ip.add_argument("--data", required=True)
    ip.add_argument("--out", required=True, help="output triplet text file")
    ip.add_argument("--split", default="test")
    ip.add_argument("--candidates", type=int, default=100)

    ep = sub.add_parser("eval", help="score a triplet file against ground truth")
    ep.add_argument("--dets", required=True)
    ep.add_argument("--gt", required=True, help="dataset directory")
    ep.add_argument("--mode", default="dt", choices=["dt", "ko"])
    ep.add_argument("--split", default="test")
    ep.add_argument("--json", help="also write metrics JSON here")

    vp = sub.add_parser("visualize", help="overlay points/boxes on one image")
    vp.add_argument("--ckpt", required=True)
    vp.add_argument("--image", required=True, help="input .ggt file of one or more images")
    vp.add_argument("--index", type=int, default=0, help="which image of the file to show")
    vp.add_argument("--out", required=True, help="output .ppm file")
    return p


def _cmd_synth(args) -> int:
    kv = read_kv_file(args.config) if args.config else {}
    n_train = coerce_key("n_train", kv.pop("n_train", "200"), int)
    n_test = coerce_key("n_test", kv.pop("n_test", "50"), int)
    spec = apply_kv(SceneSpec(), kv)
    table = make_dataset(spec, args.out, n_train=n_train, n_test=n_test)
    print(f"wrote {n_train} train + {n_test} test images to {args.out} "
          f"({len(table.meaningful)} categories, {len(table.rare)} rare)")
    return 0


def _cmd_train(args) -> int:
    cfg = load_train_config(args.config)
    metrics = train(cfg, args.data, args.out, console=print)
    print(f"best epoch {metrics['best_epoch']} val_map {metrics['best_val_map']:.4f} "
          f"-> {Path(args.out) / 'best.ckpt'}")
    return 0


def _cmd_infer(args) -> int:
    model = GGNet.load(args.ckpt)
    table = load_table(Path(args.data) / "table.txt")
    samples = load_split(args.data, args.split)
    reset_drop_counts()
    dets = run_inference(model, samples, k=args.candidates, table=table)
    save_triplets(args.out, dets)
    total = sum(len(v) for v in dets.values())
    print(f"wrote {total} triplets over {len(samples)} images to {args.out}")
    print("dropped peaks: " + ", ".join(f"{r} {drop_counts.get(r, 0)}" for r in DROP_REASONS))
    return 0


def _cmd_eval(args) -> int:
    dets = load_triplets(args.dets)
    table = load_table(Path(args.gt) / "table.txt")
    samples = load_split(args.gt, args.split, with_images=False)
    gts = {s.image_id: s.annotations for s in samples}
    result = evaluate(dets, gts, table, mode=args.mode)
    for line in result.lines():
        print(line)
    json_path = args.json or (args.dets + ".metrics.json")
    Path(json_path).write_text(result.to_json() + "\n")
    return 0


def _cmd_visualize(args) -> int:
    model = GGNet.load(args.ckpt)
    pack = load_ggt(args.image).data
    if not 0 <= args.index < len(pack):
        raise ConfigError(f"--index {args.index} is out of range: "
                          f"{args.image} holds {len(pack)} images")
    image = Tensor.from_array(pack[args.index:args.index + 1], requires_grad=False)
    check_finite(image.data, args.image)
    summary = visualize(model, image, args.out)
    if summary["interaction"] is None:
        print(f"no interaction peak; wrote plain image to {args.out}")
    else:
        ip = summary["interaction"]
        print(f"top interaction verb {ip['verb']} at ({ip['x']},{ip['y']}) "
              f"score {ip['score']:.3f}; wrote {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "visualize": _cmd_visualize,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.cmd](args)
    except (ConfigError, ShapeError, DataError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
