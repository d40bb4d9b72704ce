import dataclasses

import numpy as np
import pytest

from nnobf.bundle import encode_decoy_shape
from nnobf.errors import (
    IndexOutOfRange,
    InvariantViolation,
    MissingBundle,
    ShapeMismatch,
    UnknownCustomName,
)
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.interpreter import run
from nnobf.kernels import execute_builtin
from nnobf.model_format import (
    BuiltinOp,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    Tensor,
    tensor_byte_size,
)
from nnobf.obfuscator import ObfuscationConfig, obfuscate

F = np.float32


def peak_live_bytes(graph, bundle, inputs):
    return run(graph, bundle, inputs)[1].peak_live_bytes


def relu_graph():
    return ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.RELU)),), buffers=(b"",),
        tensors=(Tensor("x", DType.F32, (4,)), Tensor("y", DType.F32, (4,))),
        operators=(OperatorEntry(0, (0,), (1,)),),
        graph_inputs=(0,), graph_outputs=(1,))


def rand_input(graph, seed=0, batch=1):
    shape = graph.tensors[graph.graph_inputs[0]].shape
    rng = np.random.default_rng(seed)
    return rng.random((batch, *shape[1:]), dtype=F)


def test_single_op_graph_matches_execute_builtin():
    g = relu_graph()
    x = np.array([-1.0, 0.0, 2.0, -3.0], F)
    outs, _ = run(g, None, [x])
    assert np.array_equal(outs[0], execute_builtin(BuiltinOp.RELU, [x], None)[0])


def test_obfuscated_run_is_bit_identical(lenet):
    x = rand_input(lenet, seed=3)
    want, _ = run(lenet, None, [x])
    config = ObfuscationConfig(seed=5, n_shortcuts=5, n_extra_layers=5)
    public, bundle, _ = obfuscate(lenet, config)
    got, _ = run(public, bundle, [x])
    assert np.array_equal(want[0], got[0])


def test_custom_without_bundle_raises(lenet):
    public, _, _ = obfuscate(lenet, ObfuscationConfig(seed=5))
    with pytest.raises(MissingBundle):
        run(public, None, [rand_input(lenet)])


def test_unknown_custom_name(lenet):
    public, _, _ = obfuscate(lenet, ObfuscationConfig(seed=5))
    _, other_bundle, _ = obfuscate(lenet, ObfuscationConfig(seed=6))
    with pytest.raises(UnknownCustomName):
        run(public, other_bundle, [rand_input(lenet)])


def test_bad_true_input_position_raises_index_out_of_range(lenet):
    public, bundle, _ = obfuscate(lenet, ObfuscationConfig(seed=5))
    name, rec = next((k, r) for k, r in bundle.records.items()
                     if not r.is_decoy)
    bundle.records[name] = dataclasses.replace(rec, true_input_positions=(99,))
    with pytest.raises(IndexOutOfRange):
        run(public, bundle, [rand_input(lenet)])


@pytest.mark.parametrize("options", [encode_decoy_shape((1 << 20, 1 << 20)),
                                     b"\x02\x00"], ids=["oversized", "short"])
def test_bad_decoy_record_built_in_process_raises(lenet, options):
    # load_bundle never sees an in-process bundle; run must still refuse
    # the record instead of allocating 4 TiB or failing in struct
    config = ObfuscationConfig(seed=5, n_shortcuts=0, n_extra_layers=3)
    public, bundle, _ = obfuscate(lenet, config)
    name, rec = next((k, r) for k, r in bundle.records.items() if r.is_decoy)
    bundle.records[name] = dataclasses.replace(rec, real_options=options)
    with pytest.raises(InvariantViolation):
        run(public, bundle, [rand_input(lenet)])


def test_timing_is_opt_in(lenet):
    _, trace = run(lenet, None, [rand_input(lenet)])
    assert trace.op_seconds == []


def test_input_arity_and_shape_checks(lenet):
    with pytest.raises(ShapeMismatch):
        run(lenet, None, [])
    with pytest.raises(ShapeMismatch):
        run(lenet, None, [np.ones((1, 27, 28, 1), F)])
    # leading (batch) axis is free
    run(lenet, None, [np.ones((3, 28, 28, 1), F)])


def test_peak_bytes_single_relu():
    g = relu_graph()
    assert peak_live_bytes(g, None, [np.ones(4, F)]) == 16 + 16 == 32


def test_peak_bytes_matches_declared_tensor_sizes(lenet):
    # every lenet tensor is a graph input, a constant, or an operator output,
    # and declared shapes are truthful, so the proxy equals the plain sum
    want = sum(tensor_byte_size(t) for t in lenet.tensors)
    assert peak_live_bytes(lenet, None, [rand_input(lenet)]) == want


def test_peak_bytes_grow_by_decoy_output_sizes(lenet):
    x = [rand_input(lenet)]
    base_cfg = ObfuscationConfig(seed=9, n_shortcuts=0, n_extra_layers=0)
    g0, b0, _ = obfuscate(lenet, base_cfg)
    deco_cfg = ObfuscationConfig(seed=9, n_shortcuts=0, n_extra_layers=10)
    g1, b1, plan = obfuscate(lenet, deco_cfg)
    extra = sum(4 * int(np.prod(shape)) for _, shape in plan.injected_layers)
    assert len(plan.injected_layers) == 10 and extra > 0
    assert (peak_live_bytes(g1, b1, x)
            == peak_live_bytes(g0, b0, x) + extra)


def test_bundle_weights_count_toward_peak(lenet):
    # constants move from the model to the bundle, byte-for-byte
    x = [rand_input(lenet)]
    public, bundle, _ = obfuscate(
        lenet, ObfuscationConfig(seed=2, n_shortcuts=0, n_extra_layers=0))
    assert peak_live_bytes(public, bundle, x) == \
        peak_live_bytes(lenet, None, x)


def test_batched_run_equals_stacked_single_runs():
    # every batch runs the Conv2Ds' channel-major path (depthwise only at
    # 256), whose image-minor layout must not bleed between images
    config = ObfuscationConfig(seed=6, n_shortcuts=20, n_extra_layers=20)
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 4)
        xb = rand_input(g, seed=8, batch=256)
        for model, bundle in ((g, None), obfuscate(g, config)[:2]):
            single = [run(model, bundle, [xb[k:k + 1]])[0][0].tobytes()
                      for k in range(256)]
            for n in (3, 37, 256):
                batched, _ = run(model, bundle, [xb[:n]])
                for k in range(n):
                    assert batched[0][k:k + 1].tobytes() == single[k], (name, n, k)


def test_trace_shapes_and_timing(lenet):
    _, trace = run(lenet, None, [rand_input(lenet)], op_timing=True)
    assert len(trace.output_shapes) == len(lenet.operators)
    assert len(trace.op_seconds) == len(lenet.operators)
    assert trace.output_shapes[-1] == ((1, 10),)
    assert all(t >= 0 for t in trace.op_seconds)
