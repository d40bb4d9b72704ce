import gc
import json
import re
import struct
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from nnobf.errors import (
    BadMagic,
    IndexOutOfRange,
    InvariantViolation,
    MalformedOptions,
    PlanMismatch,
    TruncatedSection,
    UnknownFixture,
)
from nnobf import interpreter, model_format, obfuscator
from nnobf.bundle import KernelBundle
from nnobf.fixtures import FIXTURE_NAMES, FIXTURE_STATS, build_fixture
from nnobf.model_format import (
    CUSTOM_SENTINEL,
    Activation,
    BuiltinOp,
    ConvOptions,
    ConcatOptions,
    DenseOptions,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    Padding,
    PoolOptions,
    Tensor,
    decode_options,
    dump_json,
    encode_options,
    options_to_dict,
    parse_model,
    serialize_model,
    validate,
)
from nnobf.obfuscator import ObfuscationConfig, obfuscate, reconstruct


def one_tensor_graph():
    return ModelGraph(
        opcodes=(), buffers=(b"",),
        tensors=(Tensor("io", DType.F32, (4,)),),
        operators=(), graph_inputs=(0,), graph_outputs=(0,))


def test_round_trip_identity_all_fixtures():
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 3)
        assert parse_model(serialize_model(g)) == g


def test_bad_magic():
    with pytest.raises(BadMagic):
        parse_model(b"NNM0")


def test_lenet_counts_match_builder_declaration(lenet):
    stats = FIXTURE_STATS["lenet"]
    g = parse_model(serialize_model(lenet))
    assert len(g.operators) == stats["operators"] == 7
    assert len(g.tensors) == stats["tensors"] == 12
    n_const = sum(1 for t in g.tensors if t.buffer_index != 0)
    assert n_const == stats["constants"] == 4
    assert len(g.buffers) == stats["constants"] + 1  # reserved empty entry 0


def test_truncated_section():
    data = serialize_model(build_fixture("mlp", 0))
    with pytest.raises(TruncatedSection):
        parse_model(data[:len(data) // 2])


def test_name_that_is_not_utf8_raises(lenet):
    data = serialize_model(lenet)
    name = lenet.tensors[0].name.encode()
    at = data.index(struct.pack("<I", len(name)) + name) + 4
    with pytest.raises(InvariantViolation):
        parse_model(data[:at] + b"\xff" + data[at + 1:])


def _dtype_byte(lenet, data):
    name = lenet.tensors[0].name.encode()
    return data.index(struct.pack("<I", len(name)) + name) + 4 + len(name)


def _options_kind_byte(lenet, data):
    io = 8 + 4 * (len(lenet.graph_inputs) + len(lenet.graph_outputs))
    return len(data) - io - 4 - len(lenet.operators[-1].options) - 1


@pytest.mark.parametrize("locate,enum", [(_dtype_byte, "DType"),
                                         (_options_kind_byte, "OptionsKind")])
def test_unknown_enum_byte_raises_with_its_offset(lenet, locate, enum):
    data = serialize_model(lenet)
    at = locate(lenet, data)
    with pytest.raises(InvariantViolation,
                       match=rf"^unknown {enum} 9 at offset {at}$"):
        parse_model(data[:at] + b"\x09" + data[at + 1:])


def test_one_tensor_graph_golden_bytes():
    """The wire layout of the model docstring, written out by hand."""
    assert serialize_model(one_tensor_graph()) == bytes.fromhex(
        "4e4e4d31" "01000000"                   # magic "NNM1", version 1
        "00000000"                              # 0 opcodes
        "01000000" "0000000000000000"           # 1 buffer: u64 len 0
        "01000000"                              # 1 tensor:
        "02000000" "696f"                       #   name "io"
        "00"                                    #   dtype F32
        "01000000" "04000000"                   #   shape (4,)
        "00000000"                              #   buffer 0
        "00000000"                              # 0 operators
        "01000000" "00000000"                   # graph inputs (0,)
        "01000000" "00000000")                  # graph outputs (0,)


def test_serialize_minimal_graph_round_trips():
    g = one_tensor_graph()
    assert validate(g) == []
    assert parse_model(serialize_model(g)) == g


def test_serialize_deterministic(lenet):
    assert serialize_model(lenet) == serialize_model(lenet)


def test_constant_buffer_length_is_shape_times_dtype_size():
    values = np.arange(6, dtype=np.float32).reshape(2, 3)
    g = ModelGraph(
        opcodes=(), buffers=(b"", values.tobytes()),
        tensors=(Tensor("io", DType.F32, (4,)),
                 Tensor("w", DType.F32, (2, 3), buffer_index=1)),
        operators=(), graph_inputs=(0,), graph_outputs=(0,))
    assert validate(g) == []
    blob = serialize_model(g)
    assert len(g.buffers[1]) == 2 * 3 * 4 == 24
    assert struct.pack("<Q", 24) in blob
    assert parse_model(blob) == g


def test_serialize_rejects_invalid_graph():
    g = ModelGraph(
        opcodes=(), buffers=(b"",),
        tensors=(Tensor("t", DType.F32, (2,)),),
        operators=(), graph_inputs=(), graph_outputs=(5,))
    with pytest.raises(IndexOutOfRange):
        serialize_model(g)


def test_buffer_length_mismatch_is_flagged():
    g = ModelGraph(
        opcodes=(), buffers=(b"", b"\x00" * 8),
        tensors=(Tensor("w", DType.F32, (2, 3), buffer_index=1),),
        operators=(), graph_inputs=(), graph_outputs=())
    problems = validate(g)
    assert len(problems) == 1 and "8 bytes" in problems[0]


# -- dump ---------------------------------------------------------------------

def test_dump_names_conv_layers(lenet):
    doc = json.loads(dump_json(lenet))
    conv_ops = [op for op in doc["operators"]
                if op["op_type"] == "Conv2DOptions"]
    assert len(conv_ops) == 2
    assert all("builtin_options" in op for op in conv_ops)
    assert conv_ops[0]["builtin_options"]["stride_w"] == 1


def test_dump_empty_graph(empty_graph):
    doc = json.loads(dump_json(empty_graph))
    assert doc == {"operator_codes": [], "tensors": [], "operators": []}


def test_dump_counts_are_loss_free(all_fixtures):
    for g in all_fixtures.values():
        doc = json.loads(dump_json(g))
        assert len(doc["operator_codes"]) == len(g.opcodes)
        assert len(doc["tensors"]) == len(g.tensors)
        assert len(doc["operators"]) == len(g.operators)


def test_dump_stable_key_order(lenet):
    assert dump_json(lenet) == dump_json(lenet)
    doc = json.loads(dump_json(lenet))
    assert list(doc) == ["operator_codes", "tensors", "operators"]


# -- validate -----------------------------------------------------------------

def test_validate_well_formed_fixture_is_clean(all_fixtures):
    for g in all_fixtures.values():
        assert validate(g) == []


def test_validate_reports_out_of_range_input(lenet):
    op = lenet.operators[0]
    bad = lenet.operators[:0] + (
        OperatorEntry(op.opcode_index, (999,) + op.inputs[1:], op.outputs,
                      op.options_kind, op.options),) + lenet.operators[1:]
    problems = validate(ModelGraph(lenet.opcodes, lenet.buffers, lenet.tensors,
                                   bad, lenet.graph_inputs, lenet.graph_outputs))
    assert any("999 out of range" in p for p in problems)


def test_validate_names_both_ops_sharing_an_output():
    g = ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.RELU)),), buffers=(b"",),
        tensors=(Tensor("x", DType.F32, (4,)), Tensor("y", DType.F32, (4,))),
        operators=(OperatorEntry(0, (0,), (1,)), OperatorEntry(0, (0,), (1,))),
        graph_inputs=(0,), graph_outputs=(1,))
    problems = validate(g)
    shared = [p for p in problems if "both produce tensor 1" in p]
    assert len(shared) == 1
    assert "operators[1]" in shared[0] and "operators[0]" in shared[0]


def test_operator_with_two_outputs_is_rejected(monkeypatch):
    # RELU declaring outputs (1, 2), and a consumer of tensor 2
    g = ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.RELU)),), buffers=(b"",),
        tensors=tuple(Tensor(n, DType.F32, (4,)) for n in "xyzw"),
        operators=(OperatorEntry(0, (0,), (1, 2)), OperatorEntry(0, (2,), (3,))),
        graph_inputs=(0,), graph_outputs=(3,))
    assert validate(g) == ["operators[0].outputs: must declare exactly one "
                           "output, got 2"]
    with pytest.raises(InvariantViolation, match="exactly one output"):
        serialize_model(g)
    # the same graph's bytes, written past the check, fail to parse
    monkeypatch.setattr(model_format, "validate", lambda graph: [])
    blob = serialize_model(g)
    monkeypatch.undo()
    with pytest.raises(InvariantViolation, match="exactly one output"):
        parse_model(blob)


def _io_graph(**changes):
    """``one_tensor_graph`` with a second tensor ``y``, fields replaced."""
    g = one_tensor_graph()
    g = replace(g, tensors=g.tensors + (Tensor("y", DType.F32, (4,)),))
    return replace(g, **changes)


@pytest.mark.parametrize("graph, message", [
    (lambda: ModelGraph((), (), (), (), (), ()),
     "buffers: table must contain reserved empty entry 0"),
    (lambda: _io_graph(buffers=(b"\x00",)),
     "buffers[0]: reserved entry must be empty"),
    (lambda: replace(one_tensor_graph(),
                     tensors=(Tensor("io", DType.F32, (4, 0)),)),
     "tensors[0].shape: dims must be >= 1, got (4, 0)"),
    (lambda: _io_graph(opcodes=(OperatorCode(CUSTOM_SENTINEL, "Abcdef"),),
                       operators=(OperatorEntry(0, (0,), (1,)),)),
     "operators[0]: custom opcode requires CUSTOM options"),
    (lambda: _io_graph(graph_outputs=(1,)),
     "graph_outputs[0]: tensor 1 is never produced"),
], ids=["no buffer table", "buffer 0 not empty", "zero dim",
        "custom with builtin options", "output never produced"])
def test_each_lone_violation_is_its_whole_message(graph, message):
    assert validate(graph()) == [message]
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        serialize_model(graph())


@pytest.mark.parametrize("name", ["cycle", "out of range"])
def test_a_custom_name_never_picks_the_error_class(name):
    # mlp with opcode 0 renamed, written past the check: the name is quoted
    # in a violation message, and the class follows whole messages only
    g = build_fixture("mlp", 0)
    fields = [getattr(g, f) for f in ModelGraph.__dataclass_fields__]
    fields[0] = (OperatorCode(CUSTOM_SENTINEL, name),) + g.opcodes[1:]
    blob = model_format._encode(model_format.MAGIC, model_format.VERSION,
                                model_format._MODEL, fields)
    with pytest.raises(InvariantViolation, match=f"custom_name: '{name}'") as e:
        parse_model(blob)
    assert type(e.value) is InvariantViolation


def test_validate_detects_cycle():
    g = ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.ADD)),), buffers=(b"",),
        tensors=(Tensor("a", DType.F32, (4,)), Tensor("b", DType.F32, (4,)),
                 Tensor("c", DType.F32, (4,))),
        operators=(OperatorEntry(0, (0, 2), (1,)), OperatorEntry(0, (0, 1), (2,))),
        graph_inputs=(0,), graph_outputs=(2,))
    problems = validate(g)
    assert any("cycle" in p for p in problems)


# -- options codecs -------------------------------------------------------------

@pytest.mark.parametrize("kind,opts", [
    (BuiltinOp.CONV_2D, ConvOptions(2, 1, Padding.SAME, Activation.RELU)),
    (BuiltinOp.DEPTHWISE_CONV_2D, ConvOptions(1, 1, Padding.VALID, Activation.RELU6)),
    (BuiltinOp.MAX_POOL_2D, PoolOptions(3, 2, 2, 1, Padding.SAME)),
    (BuiltinOp.DENSE, DenseOptions(Activation.RELU)),
    (BuiltinOp.CONCAT, ConcatOptions(-1)),
    (BuiltinOp.RELU, None),
])
def test_options_round_trip(kind, opts):
    raw = encode_options(kind, opts)
    assert decode_options(kind, raw) == opts


SAMPLE_OPTIONS = {
    BuiltinOp.CONV_2D: ConvOptions(2, 1, Padding.SAME, Activation.RELU),
    BuiltinOp.DEPTHWISE_CONV_2D: ConvOptions(1, 3, Padding.VALID, Activation.RELU6),
    BuiltinOp.MAX_POOL_2D: PoolOptions(3, 2, 2, 1, Padding.SAME),
    BuiltinOp.AVG_POOL_2D: PoolOptions(2, 2, 1, 1, Padding.VALID),
    BuiltinOp.DENSE: DenseOptions(Activation.RELU),
    BuiltinOp.CONCAT: ConcatOptions(-1),
}


def test_parsed_rows_keep_their_types_and_refuse_assignment(all_fixtures):
    """Compiled programs and the validation mark rely on immutable graphs.

    A named tuple equals any tuple with equal items, so ``type`` is what
    tells a parsed row from a bare tuple."""
    for g in all_fixtures.values():
        parsed = parse_model(serialize_model(g))
        for rows, cls in ((parsed.opcodes, OperatorCode),
                          (parsed.tensors, Tensor),
                          (parsed.operators, OperatorEntry)):
            assert {type(row) for row in rows} == {cls}
            for field in cls._fields:
                with pytest.raises(AttributeError):
                    setattr(rows[0], field, getattr(rows[0], field))
        with pytest.raises(AttributeError):
            parsed.tensors = ()
    for kind, opts in SAMPLE_OPTIONS.items():
        decoded = decode_options(kind, encode_options(kind, opts))
        assert type(decoded) is type(opts)
        with pytest.raises(AttributeError):
            setattr(decoded, decoded._fields[0], getattr(decoded, decoded._fields[0]))


@pytest.mark.parametrize("kind", list(BuiltinOp))
def test_memoized_decode_matches_fresh_decode(kind):
    raw = encode_options(kind, SAMPLE_OPTIONS.get(kind))
    fresh = decode_options.__wrapped__(kind, raw)
    assert fresh == SAMPLE_OPTIONS.get(kind)
    assert decode_options(kind, raw) == fresh
    hits = decode_options.cache_info().hits
    assert decode_options(kind, raw) == fresh
    assert decode_options.cache_info().hits == hits + 1


# options_to_dict of each SAMPLE_OPTIONS entry: field order, enums by name
SAMPLE_OPTIONS_DICTS = {
    BuiltinOp.CONV_2D: {"stride_w": 2, "stride_h": 1, "padding": "SAME",
                        "activation": "RELU"},
    BuiltinOp.DEPTHWISE_CONV_2D: {"stride_w": 1, "stride_h": 3,
                                  "padding": "VALID", "activation": "RELU6"},
    BuiltinOp.MAX_POOL_2D: {"filter_w": 3, "filter_h": 2, "stride_w": 2,
                            "stride_h": 1, "padding": "SAME"},
    BuiltinOp.AVG_POOL_2D: {"filter_w": 2, "filter_h": 2, "stride_w": 1,
                            "stride_h": 1, "padding": "VALID"},
    BuiltinOp.DENSE: {"activation": "RELU"},
    BuiltinOp.CONCAT: {"axis": -1},
}


@pytest.mark.parametrize("kind", list(BuiltinOp), ids=lambda k: k.name)
def test_options_to_dict_pins_keys_values_and_order(kind):
    got = options_to_dict(kind, encode_options(kind, SAMPLE_OPTIONS.get(kind)))
    want = SAMPLE_OPTIONS_DICTS.get(kind, {})
    assert got == want
    assert list(got) == list(want)
    assert all(type(v) in (int, str) for v in got.values())


def test_parse_from_bytearray_decodes_options():
    g = build_fixture("lenet", 0)
    parsed = parse_model(bytearray(serialize_model(g)))
    assert parsed == g
    for op in parsed.operators:
        assert isinstance(op.options, bytes)
        decode_options(BuiltinOp(parsed.op_kind(op).builtin_code), op.options)


def test_malformed_options_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(MalformedOptions):
            decode_options(BuiltinOp.CONV_2D, b"\x01")
        with pytest.raises(MalformedOptions):
            decode_options(BuiltinOp.DENSE, b"\x09")
        with pytest.raises(MalformedOptions):
            decode_options(BuiltinOp.DENSE, b"")


@pytest.mark.parametrize("kind", list(BuiltinOp))
def test_options_of_wrong_length_raise(kind):
    good = encode_options(kind, SAMPLE_OPTIONS.get(kind))
    overlong = [good + b"\x00", good + bytes(8)]
    truncated = [good[:-1], b""] if good else []
    for raw in overlong + truncated:
        for _ in range(2):
            with pytest.raises(MalformedOptions):
                decode_options(kind, raw)


@pytest.mark.parametrize("kind,raw", [
    (BuiltinOp.CONV_2D, struct.pack("<HHBB", 1, 1, 2, 0)),            # padding
    (BuiltinOp.CONV_2D, struct.pack("<HHBB", 1, 1, 0, 3)),            # activation
    (BuiltinOp.DEPTHWISE_CONV_2D, struct.pack("<HHBB", 1, 1, 0, 255)),
    (BuiltinOp.MAX_POOL_2D, struct.pack("<HHHHB", 2, 2, 2, 2, 2)),
    (BuiltinOp.AVG_POOL_2D, struct.pack("<HHHHB", 2, 2, 2, 2, 9)),
    (BuiltinOp.DENSE, b"\x03"),
])
def test_options_with_bad_enum_raise(kind, raw):
    for _ in range(2):
        with pytest.raises(MalformedOptions):
            decode_options(kind, raw)


# -- fixtures -----------------------------------------------------------------

def test_build_fixture_deterministic():
    assert build_fixture("lenet", 7) == build_fixture("lenet", 7)
    assert build_fixture("lenet", 7) != build_fixture("lenet", 8)


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        build_fixture("resnet152", 0)


def test_lenet_layer_mix(lenet):
    kinds = [lenet.opcodes[op.opcode_index].builtin_code
             for op in lenet.operators]
    assert kinds.count(int(BuiltinOp.CONV_2D)) >= 2
    assert kinds.count(int(BuiltinOp.MAX_POOL_2D)) >= 1
    assert kinds.count(int(BuiltinOp.DENSE)) >= 1
    last = lenet.operators[-1]
    assert lenet.opcodes[last.opcode_index].builtin_code == int(BuiltinOp.SOFTMAX)
    assert lenet.graph_outputs == last.outputs


def test_branchy_has_two_producer_add(all_fixtures):
    g = all_fixtures["branchy"]
    producers = {t: i for i, op in enumerate(g.operators) for t in op.outputs}
    adds = [op for op in g.operators
            if g.opcodes[op.opcode_index].builtin_code == int(BuiltinOp.ADD)]
    assert len(adds) == 1
    feeding = {producers[t] for t in adds[0].inputs}
    assert len(feeding) == 2


def test_fixture_counts_match_declared_stats():
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 5)
        stats = FIXTURE_STATS[name]
        assert len(g.operators) == stats["operators"]
        assert len(g.tensors) == stats["tensors"]
        assert sum(1 for t in g.tensors if t.buffer_index != 0) == stats["constants"]
        assert len(g.opcodes) == stats["opcodes"]


# -- validation mark ------------------------------------------------------------

@pytest.fixture
def counted_validate(monkeypatch):
    """Count the real ``validate``'s calls per graph object, at both names
    it is called through."""
    seen = Counter()
    real = model_format.validate

    def counting(graph):
        seen[id(graph)] += 1
        return real(graph)

    monkeypatch.setattr(model_format, "validate", counting)
    monkeypatch.setattr(obfuscator, "validate", counting)
    return seen


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_each_graph_is_validated_once(name, counted_validate):
    original = build_fixture(name, 4)
    config = ObfuscationConfig(seed=2, n_shortcuts=5, n_extra_layers=5)
    public, _, plan = obfuscate(original, config)
    blob = serialize_model(public)
    shipped = parse_model(blob)
    assert serialize_model(shipped) == blob
    dump_json(shipped)
    rebuilt = reconstruct(shipped, plan)
    serialize_model(rebuilt)
    dump_json(rebuilt)
    again, _, _ = obfuscate(original, config)  # the original is not checked again
    assert again == public
    graphs = (original, public, shipped, rebuilt, again)  # all alive: ids distinct
    assert counted_validate == {id(g): 1 for g in graphs}


def test_invalid_graph_raises_on_every_call(counted_validate):
    g = ModelGraph(
        opcodes=(), buffers=(b"",),
        tensors=(Tensor("t", DType.F32, (2,)),),
        operators=(), graph_inputs=(), graph_outputs=(5,))
    for _ in range(3):
        for call in (serialize_model, dump_json,
                     lambda graph: obfuscate(graph, ObfuscationConfig(seed=0))):
            with pytest.raises(IndexOutOfRange):
                call(g)
    assert counted_validate == {id(g): 9}
    assert not g._validated


def test_validation_mark_dies_with_its_graph(counted_validate):
    g = build_fixture("mlp", 4)
    serialize_model(g)
    assert g._validated
    twin = replace(g)  # an equal graph is another object, checked afresh
    assert twin == g and not twin._validated
    serialize_model(twin)
    assert counted_validate == {id(g): 1, id(twin): 1}
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None  # nothing in the package keeps a checked graph alive


# -- builtin options a kernel cannot run ---------------------------------------

# (kind, field, value): every stride and filter size at 0, and a padding byte
# past the enum
BAD_FIELDS = [(k, f, 0) for k in (BuiltinOp.CONV_2D, BuiltinOp.DEPTHWISE_CONV_2D)
              for f in ("stride_w", "stride_h")] \
    + [(k, f, 0) for k in (BuiltinOp.MAX_POOL_2D, BuiltinOp.AVG_POOL_2D)
       for f in ("filter_w", "filter_h", "stride_w", "stride_h")] \
    + [(BuiltinOp.CONV_2D, "padding", 9)]


def bad_options(kind, name, value):
    """A fixture whose first ``kind`` operator has ``name`` set to ``value``:
    (the clean fixture, the bad graph, that operator's index, its bytes)."""
    for fixture in ("lenet", "depthwise_net"):
        g = build_fixture(fixture, 7)
        for i, op in enumerate(g.operators):
            if g.op_kind(op).builtin_code == kind:
                opts = decode_options(kind, op.options)._replace(**{name: value})
                raw = encode_options(kind, opts)
                ops = g.operators[:i] + (op._replace(options=raw),) + g.operators[i + 1:]
                return g, replace(g, operators=ops), i, raw
    raise AssertionError(f"no fixture has a {kind.name}")


def case_id(case):
    return f"{case[0].name}-{case[1]}={case[2]}"


@pytest.mark.parametrize("case", BAD_FIELDS, ids=case_id)
def test_undecodable_builtin_options_are_a_violation(case):
    _, g, i, _ = bad_options(*case)
    bad = validate(g)
    assert len(bad) == 1 and bad[0].startswith(f"operators[{i}].options: ")
    with pytest.raises(InvariantViolation):
        serialize_model(g)


@pytest.mark.parametrize("case", BAD_FIELDS, ids=case_id)
def test_undecodable_options_raise_before_any_kernel(case, monkeypatch):
    clean, g, i, raw = bad_options(*case)
    public, bundle, _ = obfuscate(clean, ObfuscationConfig(seed=5))
    name = public.op_kind(public.operators[i]).custom_name
    records = {**bundle.records,
               name: replace(bundle.records[name], real_options=raw)}
    x = np.zeros((1, *clean.tensors[clean.graph_inputs[0]].shape[1:]), np.float32)
    calls = []
    monkeypatch.setattr(interpreter, "execute_builtin", lambda *a: calls.append(a))
    for model, kb in ((g, None), (public, KernelBundle(records))):
        with pytest.raises(MalformedOptions):
            interpreter.run(model, kb, [x])
    assert calls == []


@pytest.mark.parametrize("case", BAD_FIELDS, ids=case_id)
def test_reconstruct_rejects_undecodable_options(case):
    clean, _, i, raw = bad_options(*case)
    public, _, plan = obfuscate(clean, ObfuscationConfig(seed=5))
    name = public.op_kind(public.operators[i]).custom_name
    plan.records[name] = replace(plan.records[name], real_options=raw)
    with pytest.raises(PlanMismatch, match="options"):
        reconstruct(public, plan)
