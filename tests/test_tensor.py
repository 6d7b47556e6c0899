"""Tensor container, tape mechanics, and GGT1 serialization."""

import io
import struct

import numpy as np
import pytest

from ggnet.tensor import (
    MAGIC,
    ShapeError,
    Tape,
    Tensor,
    active_tape,
    load_checkpoint,
    load_ggt,
    on_tape,
    read_tensor,
    save_checkpoint,
    save_ggt,
    tape,
    write_tensor,
)


def test_tensor_requires_4d_shape():
    with pytest.raises(ShapeError):
        Tensor((2, 3, 4))
    with pytest.raises(ShapeError):
        Tensor((2, 3, -1, 4))


def test_tensor_data_count_must_match_shape():
    with pytest.raises(ShapeError):
        Tensor((1, 1, 2, 2), [1.0, 2.0, 3.0])


def test_tensor_stores_float32_contiguous():
    t = Tensor((1, 2, 2, 2), np.arange(8, dtype=np.float64))
    assert t.data.dtype == np.float32
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (1, 2, 2, 2)
    assert t.size == 8


def test_from_array_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        Tensor.from_array(np.zeros((3, 3)))


def test_item_requires_single_element():
    t = Tensor((1, 1, 1, 1), [4.25])
    assert t.item() == 4.25
    with pytest.raises(ShapeError):
        Tensor((1, 1, 1, 2)).item()


def test_scalar_prefers_exact_float64_value():
    t = Tensor((1, 1, 1, 1), [1.0 + 1e-9])
    assert t.item() == 1.0  # float32 storage quantizes the ppb-scale offset
    t.exact = 1.0 + 1e-9
    assert t.scalar() == 1.0 + 1e-9
    plain = Tensor((1, 1, 1, 1), [2.5])
    assert plain.scalar() == 2.5


def test_from_scalar_stores_float32_and_keeps_float64():
    t = Tensor.from_scalar(np.float64(1.0 + 1e-9))
    assert t.shape == (1, 1, 1, 1) and t.data.dtype == np.float32
    assert t.item() == 1.0
    assert t.scalar() == 1.0 + 1e-9 and type(t.exact) is float


def test_grad_buffers():
    t = Tensor((1, 1, 2, 2))
    assert t.grad is None
    g = t.ensure_grad()
    assert g.shape == t.shape and g.dtype == np.float32
    t.add_grad(np.ones(t.shape))
    t.add_grad(np.ones(t.shape))
    assert np.all(t.grad == 2.0)
    t.zero_grad()
    assert t.grad is None


def test_tape_runs_steps_in_reverse_order():
    order = []
    tp = Tape()
    tp.record(lambda: order.append("first"))
    tp.record(lambda: order.append("second"))
    head = Tensor((1, 1, 1, 1), [3.0])
    tp.backward(head)
    assert order == ["second", "first"]
    assert head.grad.reshape(-1)[0] == 1.0


def test_backward_requires_scalar_head():
    tp = Tape()
    with pytest.raises(ShapeError):
        tp.backward(Tensor((1, 1, 1, 2)))


def test_on_tape_runs_backward_only_when_a_gradient_can_flow():
    calls = []

    def backward_of(name):
        return lambda g: calls.append((name, g))

    x = Tensor((1, 1, 1, 1), [2.0])
    on_tape(Tensor((1, 1, 1, 1), [1.0]), backward_of("no tape"), x)

    head = Tensor((1, 1, 1, 1), [3.0])
    unreached = Tensor((1, 1, 1, 1), [4.0])
    frozen_later = Tensor((1, 1, 1, 1), [5.0])
    thawed_later = Tensor((1, 1, 1, 1), [6.0], requires_grad=False)
    with tape() as tp:
        on_tape(head, backward_of("head"), x)
        on_tape(unreached, backward_of("no grad reached"), x)
        on_tape(head, backward_of("frozen"), frozen_later)
        on_tape(head, backward_of("thawed"), thawed_later)
        on_tape(head, backward_of("mixed"), thawed_later, x)
    frozen_later.requires_grad = False
    thawed_later.requires_grad = True
    tp.backward(head)

    assert [name for name, _ in calls] == ["mixed", "thawed", "head"]
    assert all(g is head.grad for _, g in calls)
    assert unreached.grad is None


def test_tape_context_nesting():
    assert active_tape() is None
    with tape() as outer:
        assert active_tape() is outer
        with tape() as inner:
            assert active_tape() is inner
        assert active_tape() is outer
    assert active_tape() is None


def test_ggt_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    t = Tensor.from_array(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
    path = tmp_path / "one.ggt"
    save_ggt(path, t)
    back = load_ggt(path)
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_ggt_record_layout():
    t = Tensor((1, 1, 1, 2), [1.5, -2.0])
    buf = io.BytesIO()
    write_tensor(buf, t)
    raw = buf.getvalue()
    assert raw[:4] == MAGIC == b"GGT1"
    assert len(raw) == 4 + 16 + 4 * 2
    buf.seek(0)
    assert np.array_equal(read_tensor(buf).data, t.data)


@pytest.mark.parametrize("shape", [(3, 2, 4, 5), (0, 3, 8, 8), (1, 0, 1, 1)])
def test_ggt_stream_roundtrip_gives_a_private_writable_array(shape):
    rng = np.random.default_rng(2)
    t = Tensor.from_array(rng.normal(size=shape).astype(np.float32))
    buf = io.BytesIO()
    write_tensor(buf, t)
    raw = buf.getvalue()
    assert len(raw) == 4 + 16 + 4 * t.size
    f = io.BytesIO(raw)
    back = read_tensor(f)
    assert f.tell() == len(raw)
    assert back.shape == shape and back.data.dtype == np.float32
    assert np.array_equal(back.data, t.data)
    assert back.data.flags.writeable and back.data.flags.c_contiguous
    assert not np.shares_memory(back.data, np.frombuffer(raw, np.uint8))
    back.data[...] = 7.0  # writing the loaded copy leaves the record intact
    assert np.array_equal(read_tensor(io.BytesIO(raw)).data, t.data)


def test_read_tensor_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 32))


def test_read_tensor_rejects_truncation():
    t = Tensor((1, 1, 2, 2), [1, 2, 3, 4])
    buf = io.BytesIO()
    write_tensor(buf, t)
    raw = buf.getvalue()
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(io.BytesIO(raw[:10]))
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(io.BytesIO(raw[:-2]))


def test_read_tensor_rejects_oversized_header_before_reading():
    # 2**62 floats: rejected from the header alone, with nothing read or allocated
    raw = MAGIC + struct.pack("<4I", 2**31, 2**31, 1, 1) + b"\x00" * 8
    with pytest.raises(ValueError, match="truncated GGT1 payload: wanted 18446744073709551616 bytes, got 8"):
        read_tensor(io.BytesIO(raw))
    # the largest shape the header can name overflows int64 element counts
    raw = MAGIC + struct.pack("<4I", *[2**32 - 1] * 4)
    with pytest.raises(ValueError, match="truncated GGT1 payload"):
        read_tensor(io.BytesIO(raw))


def test_checkpoint_roundtrip_and_manifest(tmp_path):
    rng = np.random.default_rng(1)
    named = [
        ("layer0.weight", Tensor.from_array(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))),
        ("layer0.bias", Tensor.from_array(np.zeros((1, 4, 1, 1), np.float32))),
    ]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, named, "a = 1\nb = two\n")
    # the manifest carries the header, a blank line, then one line per record
    lines = (tmp_path / "model.ckpt.manifest").read_text().splitlines()
    assert lines[:3] == ["a = 1", "b = two", ""]
    assert lines[3].split() == ["layer0.weight", "4", "3", "3", "3", "0"]
    assert lines[4].split()[0] == "layer0.bias"
    header, back = load_checkpoint(path)
    assert header == "a = 1\nb = two\n"
    assert set(back) == {"layer0.weight", "layer0.bias"}
    for name, t in named:
        assert np.array_equal(back[name].data, t.data)


def test_checkpoint_rejects_spaces_in_names(tmp_path):
    with pytest.raises(ValueError, match="spaces"):
        save_checkpoint(tmp_path / "x.ckpt", [("bad name", Tensor((1, 1, 1, 1)))], "")


def test_checkpoint_rejects_bad_manifest(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [("w", Tensor((1, 1, 1, 1), [1.0]))], "")
    (tmp_path / "m.ckpt.manifest").write_text("\nw 1 1 1 1\n")  # missing offset
    with pytest.raises(ValueError, match="manifest"):
        load_checkpoint(path)


def test_checkpoint_manifest_without_header_names_the_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [("w", Tensor((1, 1, 1, 1), [1.0]))], "k = 1\n")
    (tmp_path / "m.ckpt.manifest").write_text("w 1 1 1 1 0\n")  # no header, no blank line
    with pytest.raises(ValueError, match="m.ckpt.manifest: no header"):
        load_checkpoint(path)


def test_checkpoint_save_replaces_both_files_through_temporaries(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [("w", Tensor((1, 1, 1, 1), [1.0]))], "k = 1\n")
    save_checkpoint(path, [("w", Tensor((1, 1, 1, 1), [2.0]))], "k = 2\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.manifest"]
    header, back = load_checkpoint(path)
    assert header == "k = 2\n" and back["w"].item() == 2.0
