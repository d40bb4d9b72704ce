"""The benchmark's span tracer still reaches every layer it times.

``perfbench/tracing.py`` patches module attributes from outside; a refactor
that renames or stops looking one up at call time would leave its metric
absent from traced runs.  This guard runs the tracer over one obfuscate,
cold run and reconstruct.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from nnobf import interpreter, obfuscator
from nnobf.obfuscator import ObfuscationConfig

ROOT = Path(__file__).resolve().parent.parent


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_point_and_sees_each_layer(lenet, monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    run = interpreter.run
    tracer.install()
    try:
        assert tracer.unpatched == []
        tracer.active = True
        public, bundle, plan = obfuscator.obfuscate(
            lenet, ObfuscationConfig(seed=3, n_shortcuts=5, n_extra_layers=5))
        shape = lenet.tensors[lenet.graph_inputs[0]].shape
        interpreter.run(public, bundle, [np.zeros(shape, np.float32)])  # cold
        obfuscator.reconstruct(public, plan)
    finally:
        tracer.uninstall()
    assert interpreter.run is run
    names = {s.name for s in tracer.spans}
    for want in ("interpreter.decode_options", "interpreter.run",
                 "model_format.validate", "obfuscator.reconstruct"):
        assert want in names, want
    assert any(n.startswith("kernels.") for n in names)
