"""Probes the benchmark installs on ggnet from outside the package.

Two kinds, both built by replacing module attributes where the package looks
them up (``model.py`` calls ``ops.conv2d`` through the module, ``train.py``
imports its helpers by name, so those are patched on ``ggnet.train``):

* ``StepProbe`` is always on. It times each train step (``forward_train``
  call to ``adam_step`` return), each ``run_inference`` call and, inside
  it, each batch's forward pass and each image's decode. It keeps every
  step's loss and Adam verdict for the correctness checks. It adds a few
  clock reads per step, batch and image. In a traced phase it also opens
  the tracer's step span, so a step is wrapped once.
* ``Tracer`` is the traced mode. It records a span around every call into
  each layer's public functions, times every backward closure through
  ``Tape.record``, and counts work computed from shapes (MACs, bytes) and
  decoder candidates. Spans stay in memory until the run writes them out.

Every patch is undone by ``uninstall`` in reverse order, so probes stack.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from statistics import median

perf = time.perf_counter

OTHER_OPS = ("relu", "sigmoid", "add", "slice_channels", "group_mean_channels")


def mod(name):
    # ``import ggnet.train`` would give the function that ggnet/__init__.py
    # re-exports under the same name, so go through sys.modules.
    return sys.modules[name]


class Patcher:
    def __init__(self):
        self._patches = []

    def patch(self, owner, attr, replacement):
        # On a class keep the raw descriptor, so restoring does not turn a
        # plain function into a bound method.
        orig = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


class StepProbe(Patcher):
    """Step and per-image inference timings, tagged with the current phase
    and unit (a ``train()`` call or an inference pass). While ``tracer`` is
    set, each step is also the tracer's step span."""

    def __init__(self):
        super().__init__()
        self.phase = "setup"
        self.unit = None
        self.tracer = None
        self.steps = []      # dicts: phase, unit, seconds, images, adam_ok, loss
        self.images = []     # dicts: phase, unit, seconds (one decoded image)
        self.inference = []  # dicts: phase, unit, seconds, images (one run_inference call)
        self._step = None
        self._batches = None

    def install(self):
        train = mod("ggnet.train")
        forward_train, total_loss = train.forward_train, train.total_loss
        adam_step = train.adam_step
        run_inference, forward_infer = train.run_inference, train.forward_infer
        assemble_triplets = train.assemble_triplets

        def timed_forward_train(model, images):
            self._step = {"phase": self.phase, "unit": self.unit, "t0": perf(),
                          "images": images.shape[0], "loss": float("nan")}
            if self.tracer is None:
                return forward_train(model, images)
            self.tracer.begin_step()
            idx = self.tracer.open("model.forward_train")
            try:
                return forward_train(model, images)
            finally:
                self.tracer.close(idx)

        def timed_total_loss(*args, **kwargs):
            out = total_loss(*args, **kwargs)
            self._step["loss"] = out.scalar()
            return out

        def timed_adam_step(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                ok = adam_step(*args, **kwargs)
            else:
                idx = tracer.open("optim.adam_step")
                try:
                    ok = adam_step(*args, **kwargs)
                finally:
                    tracer.close(idx)
                    tracer.end_step()
            step, self._step = self._step, None
            step["seconds"] = perf() - step.pop("t0")
            step["adam_ok"] = bool(ok)
            self.steps.append(step)
            return ok

        def timed_run_inference(*args, **kwargs):
            # An image's latency is its batch's forward pass divided by the
            # batch size plus its own decode.
            outer, self._batches = self._batches, []
            try:
                t0 = perf()
                out = run_inference(*args, **kwargs)
                seconds = perf() - t0
                for forward, size, decodes in self._batches:
                    self.images.extend({"phase": self.phase, "unit": self.unit,
                                        "seconds": forward / size + d} for d in decodes)
                self.inference.append({"phase": self.phase, "unit": self.unit, "seconds": seconds,
                                       "images": sum(size for _, size, _ in self._batches)})
            finally:
                self._batches = outer
            return out

        def timed_forward_infer(model, images):
            t0 = perf()
            out = forward_infer(model, images)
            if self._batches is not None:
                self._batches.append([perf() - t0, images.shape[0], []])
            return out

        def timed_assemble(*args, **kwargs):
            t0 = perf()
            out = assemble_triplets(*args, **kwargs)
            if self._batches:
                self._batches[-1][2].append(perf() - t0)
            return out

        self.patch(train, "forward_train", timed_forward_train)
        self.patch(train, "total_loss", timed_total_loss)
        self.patch(train, "adam_step", timed_adam_step)
        self.patch(train, "run_inference", timed_run_inference)
        self.patch(train, "forward_infer", timed_forward_infer)
        self.patch(train, "assemble_triplets", timed_assemble)
        return self


class Tracer(Patcher):
    """Spans at every layer boundary plus exact work counts.

    A span is ``[name, start, end, parent, unit, phase, child]``; ``unit``
    is ``("step", n)``, ``("val", n)``, ``("batch", n)``, ``("setup", n)`` or
    None, ``parent`` indexes the enclosing span (-1 for none) and ``child``
    is the time its direct children cover, so self time is
    ``end - start - child``. Counts are kept per call (one ``train()`` call
    or one inference pass) so repeats of the same work can be compared
    exactly.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.stack = []
        self.unit = None
        self.phase = "setup"
        self.call = "setup"
        self.counts = defaultdict(lambda: defaultdict(int))
        self.step_op_counts = []  # per step: (conv2d, deform) from ops.op_counts
        self.checkpoint_bytes = 0
        self._steps = self._vals = 0
        self._step_span = None
        self._step_ops0 = None
        self._cands = []

    # ----- spans -----

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), None, parent, self.unit, self.phase, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        now = perf()
        # Spans left open by an exception are closed with the one that ends.
        while self.stack and self.stack[-1] >= idx:
            span = self.spans[self.stack.pop()]
            span[2] = now
            if span[3] >= 0:
                self.spans[span[3]][6] += now - span[1]

    def owner(self):
        return self.spans[self.stack[-1]][0] if self.stack else "none"

    def count(self, key, value):
        kind = self.unit[0] if self.unit else "none"
        self.counts[self.call][f"{kind}:{key}"] += value

    def wrap(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, out)
            return out

        self.patch(owner, attr, traced)

    # ----- installation -----

    def install(self):
        ops, train, tensor = mod("ggnet.ops"), mod("ggnet.train"), mod("ggnet.tensor")
        model, decoder = mod("ggnet.model"), mod("ggnet.decoder")
        synth, losses, evaluator = mod("ggnet.synth"), mod("ggnet.losses"), mod("ggnet.evaluator")

        self.wrap(ops, "conv2d", "ops.conv2d", self._conv_work)
        self.wrap(ops, "deform_aggregate", "ops.deform_aggregate", self._deform_work)
        for name in OTHER_OPS:
            self.wrap(ops, name, f"ops.{name}")

        self.wrap(train, "forward_infer", "model.forward_infer")
        for name in ("hna_loss", "centernet_focal"):
            self.wrap(train, name, "losses.interaction")
        self.wrap(train, "matching_loss", "losses.matching")
        self.wrap(train, "detection_losses", "losses.detection")
        self.wrap(train, "assemble_triplets", "decoder.assemble_triplets", self._decode_work)
        self.wrap(decoder, "select_candidates", "decoder.select_candidates",
                  lambda args, out: self._cands.append(len(out)))
        self.wrap(train, "evaluate", "evaluator.evaluate")
        self.wrap(evaluator, "evaluate", "evaluator.evaluate")
        orig_validate = train.evaluate_model

        def validate(*args, **kwargs):
            outer, self.unit = self.unit, ("val", self._vals)
            self._vals += 1
            idx = self.open("train.validation")
            try:
                return orig_validate(*args, **kwargs)
            finally:
                self.close(idx)
                self.unit = outer

        self.patch(train, "evaluate_model", validate)
        for owner in (train, losses):
            self.wrap(owner, "build_mask", "losses.build_mask")
        for owner in (train, synth):
            self.wrap(owner, "load_split", "synth.load_split")
        self.wrap(synth, "make_dataset", "synth.make_dataset")
        self.wrap(model, "save_checkpoint", "tensor.save_checkpoint", self._checkpoint_size)
        self.wrap(model, "load_checkpoint", "tensor.load_checkpoint")
        self.wrap(tensor.Tape, "backward", "tensor.tape_backward")
        orig_record = tensor.Tape.record

        def record(tape_self, step):
            # The backward closure is charged to the op that recorded it.
            name = self.owner() + ".bwd"

            def timed_step():
                idx = self.open(name)
                try:
                    step()
                finally:
                    self.close(idx)

            orig_record(tape_self, timed_step)

        self.patch(tensor.Tape, "record", record)
        return self

    # ----- step boundaries, called by StepProbe -----

    def begin_step(self):
        self.unit = ("step", self._steps)
        self._steps += 1
        self._step_span = self.open("train.step")
        self._step_ops0 = dict(mod("ggnet.ops").op_counts)

    def end_step(self):
        if self._step_span is not None:
            self.close(self._step_span)
            self._step_span = None
            op_counts = mod("ggnet.ops").op_counts
            self.step_op_counts.append(tuple(
                op_counts.get(k, 0) - self._step_ops0.get(k, 0)
                for k in ("conv2d", "deform_aggregate")))
        self.unit = None

    # ----- work counts (computed from shapes, not measured) -----

    def _backward_on(self):
        return mod("ggnet.tensor").active_tape() is not None

    def _conv_work(self, args, out):
        x, params = args[0], args[1]
        b, o, ho, wo = out.shape
        macs = b * o * ho * wo * params.in_channels * params.kernel_size ** 2
        total = macs
        if self._backward_on():
            total += macs * params.weight.requires_grad + macs * x.requires_grad
        self.count("ops.conv2d.macs", total)

    def _deform_work(self, args, out):
        featmap, offsets, weights, params = args[:4]
        b, c, h, w = featmap.shape
        o, n = params.out_channels, params.kernel_size ** 2
        p = out.shape[2] * out.shape[3]
        samples = b * c * n * p
        contraction = b * o * p * c * n
        # forward: 4 bilinear corners + 1 modulation per sample, then the
        # contraction; backward: weight and patch grads (2 contractions),
        # the modulation grad, 4 corner scatters and 4 offset-slope terms.
        macs = contraction + 5 * samples
        # compulsory float32 traffic: read inputs and kernel, write output;
        # backward re-reads them with the output grad and writes their grads.
        ins = b * c * h * w + offsets.size + weights.size + params.weight.size + o
        nbytes = 4 * (ins + out.size)
        if self._backward_on():
            macs += 2 * contraction + 9 * samples
            nbytes += 4 * (out.size + 2 * ins)
        self.count("ops.deform_aggregate.macs", macs)
        self.count("ops.deform_aggregate.bytes", nbytes)

    def _decode_work(self, args, out):
        peaks, humans, objects = self._cands[-3:]
        self._cands.clear()
        # match_point scores every candidate of a pool per peak; an empty
        # human pool raises before the object pool is scored.
        evals = peaks * humans + (peaks * objects if humans else 0)
        for key, value in (("images", 1), ("peaks", peaks), ("humans", humans),
                           ("objects", objects), ("match_evals", evals),
                           ("triplets", len(out))):
            self.count(f"decoder.{key}", value)

    def _checkpoint_size(self, args, out):
        path = str(args[0])
        self.checkpoint_bytes = os.path.getsize(path) + os.path.getsize(path + ".manifest")
        self.count("tensor.checkpoint_bytes", self.checkpoint_bytes)

    # ----- output -----

    def write_spans(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, start, end, parent, unit, phase, child in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "self": end - start - child, "parent": parent,
                                    "unit": unit, "phase": phase}) + "\n")


def layer_metrics(tracer, overhead_s, overhead_pct):
    """Per-layer metrics from the traced phase's spans and counts (calls
    tagged ``traced<n>``) and the set-up spans; see bench/README.md."""
    spans = [s for s in tracer.spans if s[5] == "traced" and s[2] is not None]
    setup = [s for s in tracer.spans if s[5] == "setup" and s[2] is not None]

    def in_step(s):
        return s[4] is not None and s[4][0] == "step"

    def not_step(s):
        return not in_step(s)

    def total(names, pick=lambda s: True, self_time=False):
        out = 0.0
        for s in spans:
            if s[0] in names and pick(s):
                out += s[2] - s[1]
                if self_time:
                    out -= s[6]
        return out

    def calls(name, pick=lambda s: True):
        return sum(1 for s in spans if s[0] == name and pick(s))

    counts = defaultdict(int)
    for call, per_call in tracer.counts.items():
        if call.startswith("traced"):
            for key, value in per_call.items():
                counts[key] += value

    def per(value, base):
        return value / base if base else 0.0

    steps = calls("train.step")
    step_s = total({"train.step"})
    images = sum(v for k, v in counts.items() if k.endswith(":decoder.images"))

    def step_ms(*names):
        return 1000.0 * per(total(set(names), in_step), steps)

    def decoder(key):
        return sum(v for k, v in counts.items() if k.endswith(f":decoder.{key}"))

    def setup_median(name, scale):
        per_repeat = defaultdict(float)
        for s in setup:
            if s[0] == name and s[4] is not None and s[4][0] == "setup":
                per_repeat[s[4][1]] += s[2] - s[1]
        return scale * median(per_repeat.values()) if per_repeat else 0.0

    def mean_ms(name, among):
        durations = [s[2] - s[1] for s in among if s[0] == name]
        return 1000.0 * per(sum(durations), len(durations))

    everything = spans + setup
    deform_step = total({"ops.deform_aggregate", "ops.deform_aggregate.bwd"}, in_step)
    other = [f"ops.{n}" for n in OTHER_OPS] + [f"ops.{n}.bwd" for n in OTHER_OPS]
    return {
        "ops.deform_aggregate.fwd_ms_per_step": (step_ms("ops.deform_aggregate"), "ms"),
        "ops.deform_aggregate.bwd_ms_per_step": (step_ms("ops.deform_aggregate.bwd"), "ms"),
        "ops.deform_aggregate.calls_per_step": (per(calls("ops.deform_aggregate", in_step), steps), "count"),
        "ops.deform_aggregate.share_of_step_pct": (100.0 * per(deform_step, step_s), "%"),
        "ops.deform_aggregate.fwd_ms_per_image": (
            1000.0 * per(total({"ops.deform_aggregate"}, not_step), images), "ms"),
        "ops.deform_aggregate.macs_per_step": (per(counts["step:ops.deform_aggregate.macs"], steps), "count"),
        "ops.deform_aggregate.bytes_per_step": (per(counts["step:ops.deform_aggregate.bytes"], steps), "bytes"),
        "ops.conv2d.fwd_ms_per_step": (step_ms("ops.conv2d"), "ms"),
        "ops.conv2d.bwd_ms_per_step": (step_ms("ops.conv2d.bwd"), "ms"),
        "ops.conv2d.calls_per_step": (per(calls("ops.conv2d", in_step), steps), "count"),
        "ops.conv2d.macs_per_step": (per(counts["step:ops.conv2d.macs"], steps), "count"),
        "ops.other.ms_per_step": (step_ms(*other), "ms"),
        "losses.interaction_ms_per_step": (step_ms("losses.interaction", "losses.interaction.bwd"), "ms"),
        "losses.matching_ms_per_step": (step_ms("losses.matching", "losses.matching.bwd"), "ms"),
        "losses.detection_ms_per_step": (step_ms("losses.detection", "losses.detection.bwd"), "ms"),
        "losses.build_mask_ms": (setup_median("losses.build_mask", 1000.0), "ms"),
        "optim.adam_step_ms": (step_ms("optim.adam_step"), "ms"),
        "tensor.tape_backward_ms_per_step": (step_ms("tensor.tape_backward"), "ms"),
        "tensor.tape_backward_self_ms_per_step": (
            1000.0 * per(total({"tensor.tape_backward"}, in_step, self_time=True), steps), "ms"),
        "tensor.save_checkpoint_ms": (mean_ms("tensor.save_checkpoint", everything), "ms"),
        "tensor.load_checkpoint_ms": (mean_ms("tensor.load_checkpoint", everything), "ms"),
        "tensor.checkpoint_bytes": (tracer.checkpoint_bytes, "bytes"),
        "model.forward_train_self_ms": (
            1000.0 * per(total({"model.forward_train"}, in_step, self_time=True), steps), "ms"),
        "model.forward_infer_ms_per_image": (1000.0 * per(total({"model.forward_infer"}), images), "ms"),
        "decoder.assemble_triplets_ms_per_image": (
            1000.0 * per(total({"decoder.assemble_triplets"}), images), "ms"),
        "decoder.peaks_per_image": (per(decoder("peaks"), images), "count"),
        "decoder.human_candidates_per_image": (per(decoder("humans"), images), "count"),
        "decoder.object_candidates_per_image": (per(decoder("objects"), images), "count"),
        "decoder.match_cost_evals_per_image": (per(decoder("match_evals"), images), "count"),
        "decoder.triplets_per_image": (per(decoder("triplets"), images), "count"),
        "decoder.kept_ratio": (per(decoder("triplets"), decoder("peaks")), "ratio"),
        "evaluator.evaluate_ms": (mean_ms("evaluator.evaluate", spans), "ms"),
        "train.validation_ms_per_epoch": (mean_ms("train.validation", spans), "ms"),
        "train.step_ms_traced_mean": (1000.0 * per(step_s, steps), "ms"),
        "synth.make_dataset_s": (setup_median("synth.make_dataset", 1.0), "s"),
        "synth.load_split_s": (setup_median("synth.load_split", 1.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
