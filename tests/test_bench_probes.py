"""The benchmark's probes (bench/tracer.py) patch package attributes by name.

These tests install them on the package as the benchmark does, so dropping
or renaming a name they patch fails here, and check that uninstalling puts
every attribute back.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import ggnet  # noqa: F401  (the probes look the submodules up in sys.modules)
from ggnet.model import GGNet, ModelConfig
from ggnet.synth import SceneSample
from ggnet.tensor import Tape, Tensor

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    """Every attribute of every ggnet module, and of Tape, by identity."""
    owners = [m for name, m in sys.modules.items() if name.startswith("ggnet.")] + [Tape]
    return {(owner.__name__, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_benchmark_probes_install_run_and_uninstall_cleanly(tmp_path):
    tracer = _tracer_module()
    before = _attributes()
    probe = tracer.StepProbe().install()
    traced = tracer.Tracer().install()
    probe.tracer = traced
    patched = probe._patches + traced._patches
    try:
        assert len(patched) > 20
        for owner, attr, orig in patched:
            assert vars(owner)[attr] is not orig, f"{owner.__name__}.{attr} not patched"

        train, decoder = sys.modules["ggnet.train"], sys.modules["ggnet.decoder"]
        model = GGNet(ModelConfig(num_verbs=2, num_objects=2, channels=4, stride=4,
                                  num_points=9, input_size=16))
        rng = np.random.default_rng(0)
        samples = [SceneSample(f"im{i}", Tensor.from_array(
            rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32), requires_grad=False), [])
            for i in range(3)]
        train.run_inference(model, samples, k=5, batch_size=2)
        # one timed decode per image, and the decoder's pool sizes read by len()
        assert len(probe.images) == 3 and len(probe.inference) == 1
        counts = traced.counts["setup"]
        assert counts["none:decoder.images"] == 3
        assert counts["none:decoder.peaks"] > 0
        assert decoder.select_candidates is not before[("ggnet.decoder", "select_candidates")]
        # the checkpoint hook sizes the data file and its manifest by name
        path = tmp_path / "tiny.ckpt"
        model.save(path)
        assert GGNet.load(path).config == model.config
        manifest = tmp_path / "tiny.ckpt.manifest"
        assert traced.checkpoint_bytes == path.stat().st_size + manifest.stat().st_size > 0
    finally:
        traced.uninstall()
        probe.uninstall()
    # probes stack (both wrap train.forward_infer), so compare with the
    # attributes as they were before either was installed
    for owner, attr, _ in patched:
        key = (owner.__name__, attr)
        assert vars(owner)[attr] is before[key], f"{owner.__name__}.{attr} not restored"
    assert _attributes() == before
