import dataclasses
import gc
import weakref

import numpy as np
import pytest

from nnobf import bundle as bundle_module
from nnobf import interpreter
from nnobf.bundle import (
    BundleRecord,
    KernelBundle,
    encode_decoy_shape,
    load_bundle,
    serialize_bundle,
)
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
    CUSTOM_SENTINEL,
    BuiltinOp,
    ConcatOptions,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    OptionsKind,
    Tensor,
    encode_options,
    parse_model,
    serialize_model,
    tensor_byte_size,
)
from nnobf.obfuscator import ObfuscationConfig, ShapeStrategy, obfuscate

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
    bundle = KernelBundle({**bundle.records, name: dataclasses.replace(
        rec, true_input_positions=(99,))})
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
    bundle = KernelBundle({**bundle.records,
                           name: dataclasses.replace(rec, real_options=options)})
    with pytest.raises(InvariantViolation):
        run(public, bundle, [rand_input(lenet)])


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


def test_bundle_weights_count_toward_peak(all_fixtures):
    # constants move from the model to the bundle, byte-for-byte, and stay
    # live for the whole run: with no decoys both memory figures are the
    # original's, from a cold and from a warm program
    config = ObfuscationConfig(seed=2, n_shortcuts=0, n_extra_layers=0)
    for name, g in all_fixtures.items():
        x = [rand_input(g)]
        public, bundle, _ = obfuscate(g, config)
        _, want = run(g, None, x)
        for _ in range(2):
            _, got = run(public, bundle, x)
            assert got.peak_live_bytes == want.peak_live_bytes, name
            assert got.peak_live_bytes_liveness == want.peak_live_bytes_liveness, name


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
    _, trace = run(lenet, None, [rand_input(lenet)])
    assert len(trace.output_shapes) == len(lenet.operators)
    assert trace.output_shapes[-1] == ((1, 10),)


# -- liveness ---------------------------------------------------------------------

def liveness_graph():
    """a = relu(x); b = relu(a); d = b + b; e = a + d; f = e + c;
    g = concat(f, f).  Outputs b and g; c is a constant."""
    relu, add, cat = (OperatorCode(int(k)) for k in
                      (BuiltinOp.RELU, BuiltinOp.ADD, BuiltinOp.CONCAT))
    t = [Tensor(n, DType.F32, (1, 4)) for n in "xcabdef"] + [
        Tensor("g", DType.F32, (1, 8))]
    t[1] = Tensor("c", DType.F32, (1, 4), buffer_index=1)
    ops = [(0, (0,), 2), (0, (2,), 3), (1, (3, 3), 4), (1, (2, 4), 5),
           (1, (5, 1), 6)]
    ops = [OperatorEntry(k, ins, (out,)) for k, ins, out in ops]
    ops.append(OperatorEntry(2, (6, 6), (7,),
                             options=encode_options(BuiltinOp.CONCAT,
                                                    ConcatOptions(axis=1))))
    return ModelGraph(opcodes=(relu, add, cat),
                      buffers=(b"", np.arange(4, dtype=F).tobytes()),
                      tensors=tuple(t), operators=tuple(ops),
                      graph_inputs=(0,), graph_outputs=(3, 7))


def shortcut_graph():
    """a = relu(x); b = relu(a); y = custom(b, a), whose record reads only
    its first declared input: a is a shortcut-only reference there."""
    t = tuple(Tensor(n, DType.F32, (1, 4)) for n in "xaby")
    opcodes = (OperatorCode(int(BuiltinOp.RELU)),
               OperatorCode(CUSTOM_SENTINEL, "Qwerty"))
    ops = (OperatorEntry(0, (0,), (1,)), OperatorEntry(0, (1,), (2,)),
           OperatorEntry(1, (2, 1), (3,), OptionsKind.CUSTOM, b"\x07"))
    bundle = KernelBundle({"Qwerty": BundleRecord(int(BuiltinOp.RELU), b"",
                                                  (0,), ())})
    return ModelGraph(opcodes, (b"",), t, ops, (0,), (3,)), bundle


class KernelSpy:
    """Stands in for ``interpreter.execute_builtin``: keeps weak references
    to kernel outputs (and, on request, inputs) and, at every call, the
    names of those still alive."""

    def __init__(self, names, inputs=None):
        self.names, self.inputs = list(names), inputs or {}
        self.refs, self.alive = {}, []

    def __call__(self, kind, args, opts):
        k = len(self.alive)
        self.alive.append({n for n, r in self.refs.items() if r() is not None})
        for pos, name in self.inputs.get(k, ()):
            self.refs[name] = weakref.ref(args[pos])
        out = execute_builtin(kind, args, opts)
        self.refs[self.names[k]] = weakref.ref(out[0])
        return out


def test_activation_dies_after_its_last_true_read(monkeypatch):
    spy = KernelSpy("abdefg", inputs={4: [(1, "c")]})
    monkeypatch.setattr(interpreter, "execute_builtin", spy)
    x = np.array([[-1.0, 0.5, 2.0, -3.0]], F)
    (b, g), trace = run(liveness_graph(), None, [x])
    assert spy.alive == [
        set(),
        {"a"},
        {"a", "b"},
        {"a", "b", "d"},         # a is read again by e = a + d
        {"b", "e"},              # a and d died after their last reads
        {"b", "f", "c"},         # a constant outlives its last read
    ]
    # graph outputs are never dropped, not even b after its last read
    assert spy.refs["b"]() is b and spy.refs["g"]() is g
    assert {n for n, r in spy.refs.items() if r() is not None} == {"b", "g"}
    a = np.maximum(x, 0)
    f = a + (a + a) + np.arange(4, dtype=F)
    assert np.array_equal(g, np.concatenate([f, f], axis=1))


def test_a_step_may_read_one_tensor_twice():
    # ADD(b, b) and CONCAT(f, f) drop their input once, after the step
    (b, g), trace = run(liveness_graph(), None, [np.ones((1, 4), F)])
    assert np.array_equal(g, np.tile(F(3) + np.arange(4, dtype=F), (1, 2)))
    # seven 16-byte tensors and g; at most x or c, a, b, d and e at once
    assert trace.peak_live_bytes == 7 * 16 + 32
    assert trace.peak_live_bytes_liveness == 5 * 16


def test_shortcut_only_reference_does_not_extend_a_lifetime(monkeypatch):
    graph, bundle = shortcut_graph()
    spy = KernelSpy("aby")
    monkeypatch.setattr(interpreter, "execute_builtin", spy)
    (y,), _ = run(graph, bundle, [np.ones((1, 4), F)])
    assert spy.alive == [set(), {"a"}, {"b"}]
    assert np.array_equal(y, np.ones((1, 4), F))


def test_output_nothing_reads_is_dropped_at_once(monkeypatch):
    # a = relu(x) is neither read nor a graph output; b = relu(x) is
    t = tuple(Tensor(n, DType.F32, (1, 4)) for n in "xab")
    ops = (OperatorEntry(0, (0,), (1,)), OperatorEntry(0, (0,), (2,)))
    graph = ModelGraph((OperatorCode(int(BuiltinOp.RELU)),), (b"",), t, ops,
                       (0,), (2,))
    spy = KernelSpy("ab")
    monkeypatch.setattr(interpreter, "execute_builtin", spy)
    _, trace = run(graph, None, [np.ones((1, 4), F)])
    assert spy.alive == [set(), set()]
    assert trace.peak_live_bytes_liveness == 32 < trace.peak_live_bytes == 48


def last_record(public, bundle, decoy):
    """Name of the last operator's record that is (or is not) a decoy."""
    names = [public.opcodes[op.opcode_index].custom_name
             for op in public.operators]
    return next(n for n in reversed(names) if bundle.records[n].is_decoy == decoy)


def decoy_op(public, bundle):
    """The last decoy layer's operator."""
    name = last_record(public, bundle, decoy=True)
    return next(op for op in public.operators
                if public.opcodes[op.opcode_index].custom_name == name)


def decoy_reader(public, records):
    """Name of the first true record whose operator declares a decoy layer's
    output among its inputs, and that input's position."""
    decoy_outs = set()
    for op in public.operators:
        name = public.opcodes[op.opcode_index].custom_name
        if records[name].is_decoy:
            decoy_outs.update(op.outputs)
        elif not decoy_outs.isdisjoint(op.inputs):
            return name, next(p for p, t in enumerate(op.inputs) if t in decoy_outs)
    raise AssertionError("no operator declares a decoy layer's output")


@pytest.mark.parametrize("fault", ["no bundle", "unknown name", "bad position",
                                   "bad decoy", "unknown kind", "decoy read",
                                   "decoy graph output"])
def test_resolution_errors_raise_before_any_kernel(lenet, monkeypatch, fault):
    config = ObfuscationConfig(seed=5, n_shortcuts=5, n_extra_layers=5)
    public, bundle, _ = obfuscate(lenet, config)
    x = rand_input(lenet)
    error = {"no bundle": MissingBundle, "unknown name": UnknownCustomName,
             "bad position": IndexOutOfRange,
             "bad decoy": InvariantViolation,
             "unknown kind": InvariantViolation,
             "decoy read": InvariantViolation,
             "decoy graph output": InvariantViolation}[fault]
    if fault == "no bundle":  # two builtin ReLUs run before the custom op
        public, bundle = shortcut_graph()[0], None
        x = np.ones((1, 4), F)
    elif fault == "decoy read":  # a true input that is a decoy's zeros
        name, pos = decoy_reader(public, bundle.records)
        rec = bundle.records[name]
        bundle = KernelBundle({**bundle.records, name: dataclasses.replace(
            rec, true_input_positions=(pos, *rec.true_input_positions[1:]))})
    elif fault == "decoy graph output":
        public = dataclasses.replace(public, graph_outputs=decoy_op(public, bundle).outputs)
    else:
        name = last_record(public, bundle, decoy=fault == "bad decoy")
        rec, records = bundle.records[name], dict(bundle.records)
        if fault == "unknown name":
            del records[name]
        elif fault == "bad position":
            records[name] = dataclasses.replace(rec, true_input_positions=(99,))
        elif fault == "unknown kind":  # load_bundle rejects it; run must too
            records[name] = dataclasses.replace(rec, real_builtin_code=200)
        else:
            records[name] = dataclasses.replace(rec, real_options=b"\x02\x00")
        bundle = KernelBundle(records)
    calls = []
    monkeypatch.setattr(interpreter, "execute_builtin",
                        lambda *a: calls.append(a[0]) or execute_builtin(*a))
    for _ in range(2):  # a failed compile keeps nothing, so it fails again
        with pytest.raises(error):
            run(public, bundle, [x])
        assert (id(public), id(bundle)) not in interpreter._programs
    assert calls == []


def without_one_output(public, s, outputs):
    """``public`` with operator ``s`` declaring ``outputs``; never validated."""
    ops = list(public.operators)
    ops[s] = ops[s]._replace(outputs=outputs)
    return dataclasses.replace(public, operators=tuple(ops))


@pytest.mark.parametrize("outputs", [(), "two"])
def test_operator_without_one_output_raises_before_any_kernel(outputs, monkeypatch):
    # operator 3 of lenet (seed 5) obfuscated, a true operator, a decoy
    # layer and a builtin operator each declare no output or two: the gate
    # names the operator before resolve could index past an empty output list
    g = build_fixture("lenet", 5)
    public, bundle, _ = obfuscate(g, ObfuscationConfig(seed=1, n_shortcuts=20,
                                                       n_extra_layers=20))
    true_op = next(s for s, op in enumerate(public.operators) if not bundle.records[
        public.opcodes[op.opcode_index].custom_name].is_decoy)
    decoy = public.operators.index(decoy_op(public, bundle))
    calls = []
    monkeypatch.setattr(interpreter, "execute_builtin",
                        lambda *a: calls.append(a[0]) or execute_builtin(*a))
    for graph, kb, s in ((public, bundle, 3), (public, bundle, true_op),
                         (public, bundle, decoy), (g, None, 0)):
        declared = graph.operators[s].outputs
        bad = without_one_output(graph, s, declared * 2 if outputs else ())
        with pytest.raises(InvariantViolation, match=rf"operators\[{s}\]\.outputs: "
                                                     "must declare exactly one output"):
            run(bad, kb, [rand_input(g)])
        assert (id(bad), id(kb)) not in interpreter._programs
    assert calls == []


@pytest.mark.parametrize("fault, message", [
    ("opcode index", r"operators\[0\].opcode_index: 9 out of range"),
    ("input", r"operators\[0\].inputs\[0\]: tensor index 99 out of range"),
    ("graph output", r"graph_outputs\[0\]: tensor index 99 out of range"),
    ("graph input", r"graph_inputs\[0\]: tensor index 99 out of range")])
def test_an_unvalidated_graph_raises_typed_errors_before_any_kernel(fault, message,
                                                                    monkeypatch):
    # an in-memory graph that never passed validate: compiling checks it
    g = build_fixture("mlp", 0)
    x, op, rest = rand_input(g), g.operators[0], g.operators[1:]
    g = dataclasses.replace(g, **{
        "opcode index": dict(operators=(op._replace(opcode_index=9), *rest)),
        "input": dict(operators=(op._replace(inputs=(99, *op.inputs[1:])), *rest)),
        "graph output": dict(graph_outputs=(99,)),
        "graph input": dict(graph_inputs=(99,))}[fault])
    calls = []
    monkeypatch.setattr(interpreter, "execute_builtin",
                        lambda *a: calls.append(a[0]) or execute_builtin(*a))
    with pytest.raises(IndexOutOfRange, match=message):
        run(g, None, [x])
    assert (id(g), id(None)) not in interpreter._programs
    assert calls == []


def test_liveness_peak_relu():
    _, trace = run(relu_graph(), None, [np.ones(4, F)])
    assert trace.peak_live_bytes == trace.peak_live_bytes_liveness == 32


def test_liveness_peak_lenet(lenet):
    # constants 600 + 9600 + 10240 + 40 bytes stay; the input (3136) dies
    # after conv1, whose output (13824) dies after pool1 (3456): the peak is
    # the moment pool1's output joins conv1's
    _, trace = run(lenet, None, [rand_input(lenet)])
    assert trace.peak_live_bytes_liveness == 20480 + 13824 + 3456
    assert trace.peak_live_bytes == sum(tensor_byte_size(t) for t in lenet.tensors)


def test_liveness_peak_at_most_the_all_live_proxy(all_fixtures):
    config = ObfuscationConfig(seed=4, n_shortcuts=20, n_extra_layers=20)
    for name, g in all_fixtures.items():
        x = [rand_input(g)]
        for model, bundle in ((g, None), obfuscate(g, config)[:2]):
            _, trace = run(model, bundle, x)
            assert 0 < trace.peak_live_bytes_liveness <= trace.peak_live_bytes, name


def test_liveness_keeps_graph_io_and_unread_inputs():
    # inputs (x, u), y = relu(x), outputs (x, y): x is read last by the relu
    # but is a graph output, so it is kept as passed in; u is never read and
    # stays counted, so live bytes peak at x + u + y
    g = ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.RELU)),), buffers=(b"",),
        tensors=tuple(Tensor(n, DType.F32, (4,)) for n in "xuy"),
        operators=(OperatorEntry(0, (0,), (2,)),),
        graph_inputs=(0, 1), graph_outputs=(0, 2))
    x, u = np.array([-1.0, 0.0, 2.0, -3.0], F), np.ones(4, F)
    for _ in ("cold", "warm"):
        (got_x, y), trace = run(g, None, [x, u])
        assert got_x is x
        assert np.array_equal(y, np.maximum(x, 0))
        assert trace.peak_live_bytes == trace.peak_live_bytes_liveness == 48


# -- compiled programs -------------------------------------------------------------

def fresh(graph, bundle):
    """Equal copies of ``graph`` and ``bundle`` that no run has compiled."""
    return (dataclasses.replace(graph),
            None if bundle is None else KernelBundle(bundle.records))


def trace_fields(trace):
    return trace.output_shapes, trace.peak_live_bytes, trace.peak_live_bytes_liveness


def outputs_bytes(outs):
    return [(a.dtype, a.shape, a.tobytes()) for a in outs]


def test_program_dies_with_its_graph_or_bundle():
    original = build_fixture("lenet", 7)
    public, bundle, _ = obfuscate(original, ObfuscationConfig(seed=5))
    x = [rand_input(original)]
    run(public, bundle, x)
    run(original, None, x)
    keys = [(id(public), id(bundle)), (id(original), id(None))]
    programs = [interpreter._programs[k][0] for k in keys]  # kept alive here
    refs = [weakref.ref(o) for o in (public, bundle, original)]
    del public, bundle, original
    gc.collect()
    # the programs hold neither object, and their entries went with them
    assert [r() for r in refs] == [None] * 3
    assert not any(k in interpreter._programs for k in keys)
    assert all(programs)


def test_program_dies_with_its_bundle_alone(lenet):
    public, bundle, _ = obfuscate(lenet, ObfuscationConfig(seed=5))
    run(public, bundle, [rand_input(lenet)])
    key = (id(public), id(bundle))
    assert key in interpreter._programs
    del bundle
    gc.collect()
    assert key not in interpreter._programs


def test_cold_and_warm_programs_agree(all_fixtures):
    config = ObfuscationConfig(seed=6, n_shortcuts=20, n_extra_layers=20)
    for name, g in all_fixtures.items():
        for model, bundle in ((g, None), obfuscate(g, config)[:2]):
            run(model, bundle, [rand_input(g)])  # compiles
            for n in (1, 37, 256):
                x = [rand_input(g, seed=n, batch=n)]
                cold = run(*fresh(model, bundle), x)
                warm = run(model, bundle, x)
                assert (id(model), id(bundle)) in interpreter._programs
                assert outputs_bytes(cold[0]) == outputs_bytes(warm[0]), (name, n)
                assert trace_fields(cold[1]) == trace_fields(warm[1]), (name, n)


def test_batch_sizes_share_one_program(all_fixtures):
    # nothing that depends on the batch size is kept between runs
    config = ObfuscationConfig(seed=7, n_shortcuts=20, n_extra_layers=20)
    for name, g in all_fixtures.items():
        model, bundle = obfuscate(g, config)[:2]
        xs = [[rand_input(g, seed=k, batch=n)] for k, n in enumerate((1, 256, 1))]
        shared = [run(model, bundle, x) for x in xs]  # traces checked after all
        for x, (outs, trace) in zip(xs, shared):
            own_outs, own_trace = run(*fresh(model, bundle), x)
            assert outputs_bytes(outs) == outputs_bytes(own_outs), name
            assert trace_fields(trace) == trace_fields(own_trace), name


def test_a_failed_run_leaves_its_program_unchanged(lenet, monkeypatch):
    public, bundle, _ = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=5, n_extra_layers=5))
    x = [rand_input(lenet)]
    calls = []

    def third_call_fails(*args):
        calls.append(args[0])
        if len(calls) == 3:
            raise ShapeMismatch("injected")
        return execute_builtin(*args)

    monkeypatch.setattr(interpreter, "execute_builtin", third_call_fails)
    with pytest.raises(ShapeMismatch, match="injected"):
        run(public, bundle, x)
    monkeypatch.undo()
    assert (id(public), id(bundle)) in interpreter._programs
    outs, trace = run(public, bundle, x)
    own_outs, own_trace = run(*fresh(public, bundle), x)
    assert outputs_bytes(outs) == outputs_bytes(own_outs)
    assert trace_fields(trace) == trace_fields(own_trace)


def test_constants_are_bound_once(lenet, monkeypatch):
    calls = []
    materialize = interpreter.materialize_constants
    monkeypatch.setattr(interpreter, "materialize_constants",
                        lambda graph: calls.append(graph) or materialize(graph))
    x = [rand_input(lenet)]
    for _ in range(2):
        run(lenet, None, x)
    assert len(calls) == 1
    run(dataclasses.replace(lenet), None, x)  # an equal graph compiles afresh
    assert len(calls) == 2


# -- record tables: loading derives what compiling reads -------------------------

def loaded_twin(public, bundle):
    """``public`` parsed from its bytes, and ``bundle`` loaded from its bytes."""
    return (parse_model(serialize_model(public)),
            load_bundle(serialize_bundle(bundle)))


def arrays(ws):
    return [(w.dtype, w.shape, w.tobytes()) for w in ws]


def program_fields(program):
    """A program with every array as (dtype, shape, bytes), so two compiles
    of equal inputs compare equal."""
    steps, shapes, consts, live, decoy_bytes = program
    return ([(s, o, kind, list(ins), arrays(weights), opts, drops)
             for s, o, kind, ins, weights, opts, drops in steps],
            shapes, sorted(consts), arrays(consts.values()), live, decoy_bytes)


@pytest.mark.parametrize("strategy", list(ShapeStrategy))
@pytest.mark.parametrize("n", [0, 20, 30])
def test_loaded_and_built_bundles_compile_to_equal_programs(all_fixtures, n, strategy):
    config = ObfuscationConfig(seed=3, n_shortcuts=n, n_extra_layers=n,
                               shape_strategy=strategy)
    for name, g in all_fixtures.items():
        public, built, _ = obfuscate(g, config)
        assert "table" not in vars(built)  # derived on the first compile
        loaded = loaded_twin(public, built)[1]
        assert "table" in vars(loaded)  # derived while loading
        want = program_fields(interpreter._program(public, built))
        assert program_fields(interpreter._program(public, loaded)) == want, name
        decoys = sum(bool(shape) for shape in want[1])
        assert decoys == sum(rec.is_decoy for rec in built.records.values()) == n, name
        assert built.table[1] == loaded.table[1] == sum(
            w.nbytes for rec in built.records.values() for w in rec.weights), name


def test_a_cold_compile_decodes_each_real_operators_options_once(all_fixtures,
                                                                 monkeypatch):
    calls = []
    decode = interpreter.decode_options
    monkeypatch.setattr(interpreter, "decode_options",
                        lambda kind, raw: calls.append(kind) or decode(kind, raw))
    config = ObfuscationConfig(seed=4, n_shortcuts=20, n_extra_layers=20)
    for name, g in all_fixtures.items():
        public, bundle = loaded_twin(*obfuscate(g, config)[:2])
        x = [rand_input(g)]
        calls.clear()
        run(public, bundle, x)
        real = [rec.real_builtin_code for rec in bundle.records.values()
                if not rec.is_decoy]
        assert sorted(calls) == sorted(real) and len(real) == len(g.operators), name
        run(public, bundle, x)  # warm: nothing decoded again
        assert len(calls) == len(real), name


def test_compiling_a_loaded_bundle_never_decodes_a_decoy_shape(lenet, monkeypatch):
    public, built, _ = obfuscate(lenet, ObfuscationConfig(seed=6, n_shortcuts=5,
                                                          n_extra_layers=5))
    public, loaded = loaded_twin(public, built)
    calls = []
    decode = bundle_module.decode_decoy_shape
    monkeypatch.setattr(bundle_module, "decode_decoy_shape",
                        lambda *a: calls.append(a) or decode(*a))
    x = [rand_input(lenet)]
    run(public, loaded, x)
    assert calls == []
    run(public, built, x)  # a bundle built in process decodes each decoy once
    run(dataclasses.replace(public), built, x)  # and keeps its table
    assert len(calls) == 5
