"""The three benchmark workloads: set-up, timed phase and correctness checks.

Every workload is a closed loop with one caller in one process. The seed
goes only into ``SceneSpec(seed=...)`` and ``TrainConfig(seed=...)``.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import traceback
from contextlib import contextmanager
from statistics import median

import numpy as np

from tracer import StepProbe, Tracer, layer_metrics, mod, perf

# The criterion-8 ablation config (batch 8, 64 px, 9 taps), at a shorter
# length: decay_epoch keeps the 12/16 ratio of the ablation schedule.
CRITERION8 = dict(learning_rate=7e-4, lambda_aux=0.25, num_points=9, val_fraction=0.25)
BASELINE_FLAGS = dict(use_hna=False, use_gaze1=False, use_gaze2=False, use_apm=False)
TRAIN_EPOCHS = 4
# The criterion-8 schedule: after 8 epochs the test mAP still swings with the
# seed (0.15-0.50); after 16 it is 0.39-0.72 on all but one of 36 seeds.
CHECKPOINT_EPOCHS = 16
SETUP_REPEATS = 9
N_TRAIN, N_TEST = 200, 50
INFER_TEST_IMAGES = 256
INFER_BATCH = 8
INFER_K = 100
# DT mAP of the set-up checkpoint on the infer_decode test split. A model
# that has not learned (2 epochs) or a broken decoder scores 0.0; 36 seeds
# gave 0.28-0.72, all but one at least 0.39 (see bench/README.md).
MAP_FLOOR = 0.10


def train_config(seed, flags, epochs):
    config = mod("ggnet.train").TrainConfig
    return config(epochs=epochs, decay_epoch=epochs * 3 // 4, seed=seed, **CRITERION8, **flags)


class Run:
    """State of one benchmark invocation: probes, scratch space, tallies."""

    def __init__(self, seed, seconds, trace, scratch):
        self.seed, self.seconds = seed, seconds
        self.scratch = scratch
        self.probe = StepProbe().install()
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}

    def close(self):
        if self.tracer is not None:
            self.tracer.uninstall()
        self.probe.uninstall()

    def tally(self, attempted, failed, problem=None):
        self.attempted += attempted
        self.failed += failed
        if problem:
            self.problems.append(problem)

    @contextmanager
    def phase(self, name, traced):
        """Tag the probes with the phase; install the tracer if asked."""
        self.probe.phase = name
        if not traced or self.tracer is None:
            yield
            return
        self.tracer.phase = name
        self.tracer.install()
        self.probe.tracer = self.tracer
        try:
            yield
        finally:
            self.probe.tracer = None
            self.tracer.uninstall()


# ===== set-up =====

def prepare_data(run, n_test, hard_negatives):
    """Generate, load and mask the data SETUP_REPEATS times; the last copy is
    kept. Returns (data_dir, table, test_samples, median seconds)."""
    synth, losses = mod("ggnet.synth"), mod("ggnet.losses")
    stride = mod("ggnet.train").TrainConfig.stride
    times = []
    with run.phase("setup", traced=True):
        for r in range(SETUP_REPEATS):
            if run.tracer is not None:
                run.tracer.unit = ("setup", r)
            data = run.scratch / f"data{r}"
            t0 = perf()
            table = synth.make_dataset(synth.SceneSpec(seed=run.seed), data,
                                       n_train=N_TRAIN, n_test=n_test)
            train_samples = synth.load_split(data, "train")
            test_samples = synth.load_split(data, "test")
            feat = train_samples[0].image.shape[2] // stride
            for s in train_samples:
                losses.build_mask(s.annotations, table, (table.num_verbs, feat, feat), stride,
                                  hard_negatives=hard_negatives)
            times.append(perf() - t0)
            if r:
                shutil.rmtree(run.scratch / f"data{r - 1}")
        if run.tracer is not None:
            run.tracer.unit = None
    run.info["setup_repeats_s"] = times
    return data, table, test_samples, median(times)


# ===== training =====

def train_call(run, cfg, data, out_dir, call, reference):
    """One train() call with its checks. Returns (wall seconds, metrics.json
    text), or (None, None) if it raised. A failed call-level check fails
    every step of the call."""
    probe = run.probe
    probe.unit = call
    if run.tracer is not None:
        run.tracer.call = call
    first = len(probe.steps)
    t0 = perf()
    try:
        mod("ggnet.train").train(cfg, data, out_dir)
    except Exception:
        traceback.print_exc()
        done = len(probe.steps) - first
        run.tally(done + 1, done + 1, f"{call}: train() raised")
        return None, None
    wall = perf() - t0
    steps = probe.steps[first:]
    bad = sum(1 for s in steps if not s["adam_ok"] or not math.isfinite(s["loss"]))
    text = (out_dir / "metrics.json").read_text()
    metrics = json.loads(text)
    problems = []
    if metrics["skipped_steps"] != 0:
        problems.append(f"{metrics['skipped_steps']} skipped steps")
    epochs = metrics["epochs"]
    if not epochs[-1]["total"] < epochs[0]["total"]:
        problems.append(f"last-epoch loss {epochs[-1]['total']} not below first {epochs[0]['total']}")
    try:
        mod("ggnet.model").GGNet.load(out_dir / "best.ckpt")
    except (OSError, ValueError) as exc:
        problems.append(f"best.ckpt does not reload: {exc}")
    if reference is not None and text != reference:
        problems.append("metrics.json differs from the first call of the same seed")
    if problems:
        run.tally(len(steps), len(steps), f"{call}: " + "; ".join(problems))
    else:
        run.tally(len(steps), bad, f"{call}: {bad} steps failed" if bad else None)
    return wall, text


def train_loop(run, cfg, data, tag, reference):
    """Repeat identical train() calls for --seconds (at least two)."""
    walls = []
    start = perf()
    while len(walls) < 2 or perf() - start < run.seconds:
        call = f"{tag}{len(walls)}"
        out_dir = run.scratch / f"run-{call}"
        wall, text = train_call(run, cfg, data, out_dir, call, reference)
        shutil.rmtree(out_dir, ignore_errors=True)
        if wall is None:
            break
        reference = reference or text
        walls.append(wall)
    return walls, reference


# ===== inference =====

def triplet_problem(triplets, table, size):
    scores = [t.score for t in triplets]
    if scores != sorted(scores, reverse=True):
        return "triplets not sorted by descending score"
    for t in triplets:
        if not 0.0 < t.score <= 1.0:
            return f"score {t.score} outside (0, 1]"
        for x1, y1, x2, y2 in (t.human_box, t.object_box):
            if not (0.0 <= x1 < x2 <= size and 0.0 <= y1 < y2 <= size):
                return f"box {(x1, y1, x2, y2)} not inside the {size}px image"
        if (t.verb, t.object_class) not in table.meaningful:
            return f"pair ({t.verb}, {t.object_class}) not in the table"
    return None


def infer_loop(run, model, samples, table, tag, reference):
    """Inference passes over samples, one run_inference batch at a time, for
    --seconds (at least two). Every image of every pass is checked against
    the first pass, which is returned with the pass wall times."""
    run_inference = mod("ggnet.train").run_inference
    size = samples[0].image.shape[2]
    walls = []
    start = perf()
    while len(walls) < 2 or perf() - start < run.seconds:
        call = f"{tag}{len(walls)}"
        run.probe.unit = call
        if run.tracer is not None:
            run.tracer.call = call
        dets = {}
        t0 = perf()
        for b, lo in enumerate(range(0, len(samples), INFER_BATCH)):
            chunk = samples[lo:lo + INFER_BATCH]
            if run.tracer is not None:
                run.tracer.unit = ("batch", b)
            try:
                dets.update(run_inference(model, chunk, k=INFER_K, table=table,
                                          batch_size=INFER_BATCH))
            except Exception:
                traceback.print_exc()
        walls.append(perf() - t0)
        if run.tracer is not None:
            run.tracer.unit = None
        reference = reference or dets
        failed = 0
        for s in samples:
            if s.image_id not in dets:
                problem = "no entry"
            elif dets[s.image_id] != reference.get(s.image_id):
                problem = "triplets differ from the first pass"
            else:
                problem = triplet_problem(dets[s.image_id], table, size)
            if problem:
                failed += 1
                if failed == 1:
                    run.problems.append(f"{call} {s.image_id}: {problem}")
        run.tally(len(samples), failed)
    return walls, reference


def evaluate_pass(run, dets, samples, table):
    gts = {s.image_id: s.annotations for s in samples}
    result = mod("ggnet.evaluator").evaluate(dets, gts, table, mode="dt")
    score = result.full_map if result.full_map is not None else 0.0
    run.info["dt_map"] = score
    if score < MAP_FLOOR:
        # a run-wide check: it fails every operation of the run
        run.failed = run.attempted
        run.problems.append(f"DT mAP {score:.4f} below the floor {MAP_FLOOR}")


# ===== metrics =====

def percentile_ms(values, q):
    return 1000.0 * float(np.percentile(values, q))


def fastest_repeats(units):
    """Each unit is a list of seconds in which the n-th entry is the same
    work in every unit (identical train() calls, or identical inference
    passes). Returns, for each position, its fastest time over the units:
    the host of a shared machine slows the guest for seconds at a time, and
    the fastest repeat is the figure such a stall reaches least, while a
    change to the code moves every repeat. A unit cut short by an error
    (already counted as failed) cuts the others to its length."""
    return [min(column) for column in zip(*units)]


def train_metrics(run, phase, walls):
    """End-to-end figures of the train() calls of ``phase``: step latency
    and rate over the fastest repeat of each step of a call, and the wall
    time of the fastest call."""
    units = {}
    for s in run.probe.steps:
        if s["phase"] == phase:
            units.setdefault(s["unit"], []).append(s)
    units = list(units.values())
    seconds = fastest_repeats([[s["seconds"] for s in u] for u in units])
    images = [s["images"] for s in units[0]][:len(seconds)]
    run.info["train_steps_per_call"] = len(seconds)
    run.info["train_calls"] = len(walls)
    return {
        "latency_ms_p50": (percentile_ms(seconds, 50), "ms"),
        "latency_ms_p90": (percentile_ms(seconds, 90), "ms"),
        "images_per_s": (sum(images) / sum(seconds), "1/s"),
        "wall_s": (min(walls), "s"),
    }


def infer_metrics(run, phase, walls):
    """End-to-end figures of the inference passes of ``phase``, over the
    fastest repeat of each image (latency) and of each run_inference batch
    call (images/s, and the pass wall time as the sum of those calls)."""
    images, batches = {}, {}
    for image in run.probe.images:
        if image["phase"] == phase:
            images.setdefault(image["unit"], []).append(image["seconds"])
    for call in run.probe.inference:
        if call["phase"] == phase:
            batches.setdefault(call["unit"], []).append((call["seconds"], call["images"]))
    seconds = fastest_repeats(list(images.values()))
    batch_seconds = fastest_repeats([[t for t, _ in u] for u in batches.values()])
    pass_images = sum(n for _, n in next(iter(batches.values()))[:len(batch_seconds)])
    run.info["infer_images_per_pass"] = len(seconds)
    run.info["infer_passes"] = len(walls)
    run.info["infer_fastest_pass_s"] = min(walls)
    return {
        "latency_ms_p50": (percentile_ms(seconds, 50), "ms"),
        "latency_ms_p90": (percentile_ms(seconds, 90), "ms"),
        "images_per_s": (pass_images / sum(batch_seconds), "1/s"),
        "wall_s": (sum(batch_seconds), "s"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_overhead(untraced, traced):
    base = min(untraced)
    extra = min(traced) - base
    return extra, 100.0 * extra / base


# ===== workloads =====

def run_train(run, flags):
    data, _, _, setup_s = prepare_data(run, N_TEST, flags.get("use_hna", True))
    cfg = train_config(run.seed, flags, TRAIN_EPOCHS)
    with run.phase("timed", traced=False):
        walls, reference = train_loop(run, cfg, data, "call", None)
    metrics = {"setup_s": (setup_s, "s")}
    if walls:
        metrics.update(train_metrics(run, "timed", walls))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if run.tracer is None or not walls:
        return metrics
    with run.phase("traced", traced=True):
        before = dict(mod("ggnet.ops").op_counts)
        traced_walls, _ = train_loop(run, cfg, data, "traced", reference)
        check_op_counts(run, before)
    return layer_metrics(run.tracer, *traced_overhead(walls, traced_walls))


def run_infer(run):
    data, table, samples, data_s = prepare_data(run, INFER_TEST_IMAGES, True)
    cfg = train_config(run.seed, {}, CHECKPOINT_EPOCHS)
    ckpt_dir = run.scratch / "checkpoint"
    with run.phase("checkpoint", traced=False):
        ckpt_s, _ = train_call(run, cfg, data, ckpt_dir, "checkpoint", None)
    if ckpt_s is None:
        return {}
    ggnet_model = mod("ggnet.model").GGNet
    t0 = perf()
    with run.phase("setup", traced=True):
        trained = ggnet_model.load(ckpt_dir / "best.ckpt")
        trained.save(run.scratch / "roundtrip.ckpt")
        model = ggnet_model.load(run.scratch / "roundtrip.ckpt")
    roundtrip_s = perf() - t0
    if not all(np.array_equal(a.data, b.data) for (_, a), (_, b)
               in zip(trained.named_tensors(), model.named_tensors())):
        run.problems.append("checkpoint changed in the save/load round trip")
        run.failed = run.attempted
    with run.phase("timed", traced=False):
        walls, reference = infer_loop(run, model, samples, table, "pass", None)
        evaluate_pass(run, reference, samples, table)
    # The checkpoint training is in neither figure: it is the train_full
    # code at another length, and one call of it cannot be repeated in a run.
    run.info["checkpoint_train_s"] = ckpt_s
    metrics = {"setup_s": (data_s + roundtrip_s, "s")}
    metrics.update(infer_metrics(run, "timed", walls))
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if run.tracer is None:
        return metrics
    with run.phase("traced", traced=True):
        before = dict(mod("ggnet.ops").op_counts)
        traced_walls, _ = infer_loop(run, model, samples, table, "traced", reference)
        run.tracer.call = "evaluate"
        mod("ggnet.evaluator").evaluate(
            reference, {s.image_id: s.annotations for s in samples}, table, mode="dt")
        check_op_counts(run, before)
    return layer_metrics(run.tracer, *traced_overhead(walls, traced_walls))


def check_op_counts(run, before):
    """The traced op spans must agree with ggnet.ops.op_counts, per step and
    over the whole traced phase, and repeated calls must count the same work.
    A mismatch fails every operation of the run."""
    tracer = run.tracer
    op_counts = mod("ggnet.ops").op_counts
    per_step = {}
    totals = {"ops.conv2d": 0, "ops.deform_aggregate": 0}
    for name, _, _, _, unit, phase, _ in tracer.spans:
        if phase == "traced" and name in totals:
            totals[name] += 1
            if unit is not None and unit[0] == "step":
                per_step.setdefault(unit[1], [0, 0])[name == "ops.deform_aggregate"] += 1
    problems = []
    for n, counted in enumerate(tracer.step_op_counts):
        traced = tuple(per_step.get(n, (0, 0)))
        if traced != counted:
            problems.append(f"step {n}: traced conv2d/deform calls {traced} != ops.op_counts {counted}")
            break
    for key, name in (("conv2d", "ops.conv2d"), ("deform_aggregate", "ops.deform_aggregate")):
        delta = op_counts.get(key, 0) - before.get(key, 0)
        if delta != totals[name]:
            problems.append(f"{key}: ops.op_counts moved by {delta}, traced {totals[name]}")
    calls = [dict(v) for k, v in tracer.counts.items() if k.startswith("traced")]
    if any(counts != calls[0] for counts in calls):
        problems.append("work counts differ between repeated traced calls")
    run.info["work_counts"] = calls[0] if calls else None
    if problems:
        run.problems.extend(problems)
        run.failed = run.attempted


WORKLOADS = {
    "train_full": lambda run: run_train(run, {}),
    "train_baseline": lambda run: run_train(run, BASELINE_FLAGS),
    "infer_decode": run_infer,
}
