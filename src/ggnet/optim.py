"""Adam with bias correction over named parameter tensors."""

from __future__ import annotations

import logging

import numpy as np

log = logging.getLogger("ggnet")


class AdamState:
    """First/second moment buffers (float64) plus step/skip counters."""

    def __init__(self, named_tensors):
        self.first = {name: np.zeros(t.shape, np.float64) for name, t in named_tensors}
        self.second = {name: np.zeros(t.shape, np.float64) for name, t in named_tensors}
        self.steps = 0
        self.skipped = 0


def adam_step(state: AdamState, named_tensors, lr: float) -> bool:
    """One update over all tensors. Any non-finite gradient skips the whole
    step (logged, counted) so a single bad batch cannot poison the moments."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    grads = {}
    for name, t in named_tensors:
        g = t.grad if t.grad is not None else np.zeros(t.shape, np.float32)
        if not np.all(np.isfinite(g)):
            state.skipped += 1
            log.warning("non-finite gradient in %s; step %d skipped", name, state.steps + 1)
            return False
        grads[name] = g.astype(np.float64)
    state.steps += 1
    c1 = 1.0 - beta1 ** state.steps
    c2 = 1.0 - beta2 ** state.steps
    for name, t in named_tensors:
        g = grads[name]
        m = state.first[name]
        v = state.second[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = lr * (m / c1) / (np.sqrt(v / c2) + eps)
        t.data[...] = (t.data.astype(np.float64) - update).astype(np.float32)
    return True
