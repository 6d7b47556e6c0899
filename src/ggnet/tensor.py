"""Dense 4-D float32 tensors, the gradient tape, and GGT1 serialization.

Everything downstream (kernels, heads, losses) works on these tensors. The
tape holds one hand-written backward step per executed op; calling
``Tape.backward`` replays them in reverse, accumulating gradients into each
tensor's ``grad`` buffer. An op records its step through ``on_tape``, which
owns the rule for when that step runs.
"""

from __future__ import annotations

import io
import math
import os
import struct
from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

MAGIC = b"GGT1"
HEADER_SIZE = 4 + 4 * 4  # magic + four little-endian uint32 shape fields


class ShapeError(ValueError):
    """Operand shapes do not line up."""


class ConfigError(ValueError):
    """A structural parameter (kernel size, stride, channel count) is invalid."""


class Tensor:
    """(batch, channels, height, width) array of float32 with an optional grad buffer."""

    __slots__ = ("data", "grad", "requires_grad", "exact")

    def __init__(self, shape, data=None, requires_grad: bool = True):
        shape = tuple(int(s) for s in shape)
        if len(shape) != 4 or any(s < 0 for s in shape):
            raise ShapeError(f"tensor shape must be 4 nonnegative ints, got {shape}")
        count = int(np.prod(shape, dtype=np.int64))
        if data is None:
            self.data = np.zeros(shape, dtype=np.float32)
        else:
            arr = np.asarray(data, dtype=np.float32).reshape(-1)
            if arr.size != count:
                raise ShapeError(f"data has {arr.size} values, shape {shape} needs {count}")
            self.data = np.ascontiguousarray(arr.reshape(shape))
        self.grad = None
        self.requires_grad = requires_grad
        self.exact = None

    @classmethod
    def from_array(cls, arr, requires_grad: bool = True) -> "Tensor":
        arr = np.asarray(arr)
        if arr.ndim != 4:
            raise ShapeError(f"expected a 4-D array, got ndim={arr.ndim}")
        t = cls.__new__(cls)
        t.data = np.ascontiguousarray(arr, dtype=np.float32)
        t.grad = None
        t.requires_grad = requires_grad
        t.exact = None
        return t

    @classmethod
    def from_scalar(cls, value) -> "Tensor":
        """(1, 1, 1, 1) tensor of a float64 reduction's result: stored as
        float32, with the float64 value kept in ``exact`` for ``scalar()``."""
        value = float(value)
        t = cls((1, 1, 1, 1), [value])
        t.exact = value
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(-1)[0])

    def scalar(self) -> float:
        """``item()`` at float64 precision when the producing reduction kept it.

        Storage is float32, so a scalar loss read back through ``item()`` is
        quantized to ~1e-7 relative; reductions stash their 64-bit
        accumulator in ``exact`` so finite-difference probes stay usable.
        """
        if self.exact is not None:
            return float(self.exact)
        return self.item()

    def ensure_grad(self) -> np.ndarray:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        return self.grad

    def add_grad(self, delta) -> None:
        self.ensure_grad()
        self.grad += np.asarray(delta, dtype=np.float32).reshape(self.shape)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape})"


# ===== Gradient tape =====

class Tape:
    """Ordered record of backward closures for one forward pass."""

    def __init__(self):
        self._steps = []

    def record(self, step) -> None:
        self._steps.append(step)

    def backward(self, head: Tensor) -> None:
        if head.size != 1:
            raise ShapeError("backward() starts from a scalar (1,1,1,1) tensor")
        head.ensure_grad()
        head.grad[...] = 1.0
        for step in reversed(self._steps):
            step()


_ACTIVE: list[Tape] = []


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


def on_tape(out: Tensor, backward, *inputs: Tensor) -> None:
    """Record ``backward(out.grad)`` on the active tape, if there is one.

    The step runs only when a gradient reached ``out`` and at least one of
    ``inputs`` requires a gradient; both are read when the tape replays, not
    when the op records.
    """
    t = active_tape()
    if t is not None:
        def step():
            if out.grad is not None and any(x.requires_grad for x in inputs):
                backward(out.grad)
        t.record(step)


@contextmanager
def tape() -> Iterator[Tape]:
    t = Tape()
    _ACTIVE.append(t)
    try:
        yield t
    finally:
        _ACTIVE.pop()


# ===== GGT1 serialization =====

def write_tensor(f, t: Tensor) -> None:
    f.write(MAGIC)
    f.write(struct.pack("<4I", *t.shape))
    f.write(np.ascontiguousarray(t.data, dtype="<f4").data)  # the buffer itself, no copy


def read_tensor(f) -> Tensor:
    head = f.read(HEADER_SIZE)
    if len(head) < HEADER_SIZE:
        raise ValueError("truncated GGT1 header")
    if head[:4] != MAGIC:
        raise ValueError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    shape = struct.unpack("<4I", head[4:])
    size = 4 * math.prod(shape)
    start = f.tell()
    left = f.seek(0, io.SEEK_END) - start
    f.seek(start)
    if size > left:  # checked before reading: a corrupt header may name exabytes
        raise ValueError(f"truncated GGT1 payload: wanted {size} bytes, got {left}")
    arr = np.empty(shape, dtype="<f4")
    f.readinto(arr.data)  # straight into the array: no bytes object to copy out of
    return Tensor(shape, arr)


def save_ggt(path, t: Tensor) -> None:
    with open(path, "wb") as f:
        write_tensor(f, t)


def load_ggt(path) -> Tensor:
    with open(path, "rb") as f:
        return read_tensor(f)


def _replace(path, write) -> None:
    """Write a file through ``write(f)`` into ``<path>.tmp``, then rename it
    over ``path``: a reader finds the old file or the new one, never a torn one."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(path, tensors: Iterable[tuple[str, Tensor]], header: str) -> None:
    """Write named tensors as concatenated GGT1 records plus a text manifest.

    The manifest is the header's lines, one blank line, then one line
    ``name b c h w byte_offset`` per record in write order.
    """
    lines = []

    def write_records(f):
        for name, t in tensors:
            if " " in name:
                raise ValueError(f"tensor name {name!r} may not contain spaces")
            lines.append("%s %d %d %d %d %d" % (name, *t.shape, f.tell()))
            write_tensor(f, t)

    _replace(path, write_records)
    text = "".join(line + "\n" for line in header.splitlines() + [""] + lines)
    _replace(f"{path}.manifest", lambda f: f.write(text.encode()))


def load_checkpoint(path) -> tuple[str, dict[str, Tensor]]:
    """(header, name -> tensor) of a checkpoint written by ``save_checkpoint``."""
    manifest = f"{path}.manifest"
    with open(manifest, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if "" not in lines:
        raise ValueError(f"{manifest}: no header (a blank line ends it)")
    cut = lines.index("")
    entries = []
    for ln, line in enumerate(lines[cut + 1:], cut + 2):
        parts = line.split()
        if len(parts) != 6 or not all(v.isdigit() for v in parts[1:]):
            raise ValueError(f"{manifest} line {ln}: bad manifest line: {line!r}")
        name, rest = parts[0], [int(v) for v in parts[1:]]
        entries.append((name, tuple(rest[:4]), rest[4]))
    out: dict[str, Tensor] = {}
    with open(path, "rb") as f:
        for name, shape, offset in entries:
            f.seek(offset)
            t = read_tensor(f)
            if t.shape != shape:
                raise ValueError(f"manifest/record shape mismatch for {name}: {shape} vs {t.shape}")
            out[name] = t
    return "".join(line + "\n" for line in lines[:cut]), out
