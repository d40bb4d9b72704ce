"""On-device model container format ("NNM1") and its in-memory graph IR.

A model file is a little-endian, length-prefixed dump of five tables:

    magic "NNM1" | version u32=1
    opcode table   u32 count | per entry: builtin_code u16 (0xFFFF = CUSTOM),
                                          custom_name u32 len + UTF-8
    buffer table   u32 count | per entry: u64 len + raw bytes (entry 0 empty)
    tensor table   u32 count | per entry: name u32 len + UTF-8, dtype u8,
                                          rank u32, dims rank*u32, buffer_index u32
    operator table u32 count | per entry: opcode_index u32,
                                          n_inputs u32 + u32 indices,
                                          n_outputs u32 + u32 indices,
                                          options_kind u8, options u32 len + bytes
    graph io       n u32 + u32 indices, twice (inputs then outputs)

``_MODEL`` is the wire spec; the text above restates it.  One writer and one
reader walk it, and the bundle's ``_BUNDLE``.  Any strict prefix of a file,
and a file with bytes after its last field, raises ``TruncatedSection``.

Serialization is canonical: a graph maps to exactly one byte string, and
``parse_model(serialize_model(g)) == g`` field for field.

Conventions baked into the format:

* buffer 0 is reserved empty; ``buffer_index == 0`` marks an activation tensor.
* operators are stored in a valid topological order.
* within one operator's input list, constant tensors follow activation tensors.
* every operator declares exactly one output tensor.

Each graph object is validated once, at one gate: the codecs, ``dump_json``
and the obfuscator call :func:`check_graph`, which marks a graph that passes
:func:`validate`, skips marked ones and raises for the rest.  Graphs are
immutable (compiled programs rely on that too), so a mark never goes stale;
it lives on the graph, since an ``id``-keyed table's resizes would make peak
allocation depend on history.  A failing graph is re-checked.
"""

from __future__ import annotations

import functools
import graphlib
import json
import math
import re
import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import (
    BadMagic,
    CycleDetected,
    IndexOutOfRange,
    InvariantViolation,
    MalformedOptions,
    TruncatedSection,
)

MAGIC = b"NNM1"
VERSION = 1

CUSTOM_SENTINEL = 0xFFFF
# Marks injected decoy layers inside plans/bundles; never serialized in a model.
DECOY_SENTINEL = 0xFFFE

CUSTOM_NAME_RE = re.compile(r"^[A-Z][a-z]{5}$")
_CYCLE = "operators: data-flow graph contains a cycle"  # check_graph matches it whole


class DType(IntEnum):
    F32 = 0
    I32 = 1
    U8 = 2


# The one DType <-> NumPy table; every codec in the package reads it.
NP_DTYPE = {DType.F32: np.dtype(np.float32), DType.I32: np.dtype(np.int32),
            DType.U8: np.dtype(np.uint8)}
DTYPE_OF = {v: k for k, v in NP_DTYPE.items()}


class BuiltinOp(IntEnum):
    CONV_2D = 1
    DEPTHWISE_CONV_2D = 2
    DENSE = 3
    RELU = 4
    RELU6 = 5
    MAX_POOL_2D = 6
    AVG_POOL_2D = 7
    ADD = 8
    CONCAT = 9
    SOFTMAX = 10
    RESHAPE = 11
    FLATTEN = 12


class Padding(IntEnum):
    VALID = 0
    SAME = 1


class Activation(IntEnum):
    NONE = 0
    RELU = 1
    RELU6 = 2


class OptionsKind(IntEnum):
    BUILTIN = 0
    CUSTOM = 1


# ---------------------------------------------------------------------------
# builtin option structs
# ---------------------------------------------------------------------------

class ConvOptions(NamedTuple):
    stride_w: int = 1
    stride_h: int = 1
    padding: Padding = Padding.VALID
    activation: Activation = Activation.NONE


class PoolOptions(NamedTuple):
    filter_w: int = 2
    filter_h: int = 2
    stride_w: int = 2
    stride_h: int = 2
    padding: Padding = Padding.VALID


class DenseOptions(NamedTuple):
    activation: Activation = Activation.NONE


class ConcatOptions(NamedTuple):
    axis: int = -1


def _at_least_1(v: int) -> int:
    """A stride or filter size: 0 would divide by zero or leave no window."""
    if v < 1:
        raise ValueError(f"stride or filter size {v} is below 1")
    return v


# One row per builtin kind: its display name (dump_json, the extraction
# report), the little-endian struct layout of its options, the options class
# (None for kinds without options) and the coercer of each unpacked field, in
# field order: a type, or a check that raises ValueError.
_CONV = ("<HHBB", ConvOptions, (_at_least_1, _at_least_1, Padding, Activation))
_POOL = ("<HHHHB", PoolOptions, (_at_least_1,) * 4 + (Padding,))
_NO_OPTIONS = ("<", None, ())
_KINDS = {
    BuiltinOp.CONV_2D: ("Conv2D", *_CONV),
    BuiltinOp.DEPTHWISE_CONV_2D: ("DepthwiseConv2D", *_CONV),
    BuiltinOp.DENSE: ("Dense", "<B", DenseOptions, (Activation,)),
    BuiltinOp.RELU: ("ReLU", *_NO_OPTIONS),
    BuiltinOp.RELU6: ("ReLU6", *_NO_OPTIONS),
    BuiltinOp.MAX_POOL_2D: ("MaxPool2D", *_POOL),
    BuiltinOp.AVG_POOL_2D: ("AvgPool2D", *_POOL),
    BuiltinOp.ADD: ("Add", *_NO_OPTIONS),
    BuiltinOp.CONCAT: ("Concat", "<i", ConcatOptions, (int,)),
    BuiltinOp.SOFTMAX: ("Softmax", *_NO_OPTIONS),
    BuiltinOp.RESHAPE: ("Reshape", *_NO_OPTIONS),
    BuiltinOp.FLATTEN: ("Flatten", *_NO_OPTIONS),
}
BUILTIN_NAMES = {kind: row[0] for kind, row in _KINDS.items()}


def encode_options(kind: BuiltinOp, opts) -> bytes:
    """Pack an options struct into its little-endian byte layout."""
    _, fmt, cls, _ = _KINDS[kind]
    if cls is None:
        return b""
    return struct.pack(fmt, *opts)


@functools.lru_cache(maxsize=1024, typed=True)
def decode_options(kind: BuiltinOp, raw: bytes):
    """Inverse of :func:`encode_options`; zero-length kinds return ``None``.

    Memoized on ``(kind, raw)``: results are named tuples, so callers may
    share them.  A blob of the wrong length, with an out-of-range enum
    byte or with a stride or filter size below 1 raises
    :class:`MalformedOptions` on every call, since errors are never cached.
    """
    name, fmt, cls, types = _KINDS[kind]
    want = struct.calcsize(fmt)
    if len(raw) != want:
        raise MalformedOptions(f"{name} options: expected {want} bytes, "
                               f"got {len(raw)}")
    if cls is None:
        return None
    try:
        return cls(*(t(v) for t, v in zip(types, struct.unpack(fmt, raw))))
    except ValueError as e:  # an enum byte out of range, or a size below 1
        raise MalformedOptions(f"{name} options: {e}") from e


# ---------------------------------------------------------------------------
# graph IR
# ---------------------------------------------------------------------------

class OperatorCode(NamedTuple):
    """One opcode table entry: a builtin kernel id or a named custom operator."""
    builtin_code: int
    custom_name: str = ""

    @property
    def is_custom(self) -> bool:
        return self.builtin_code == CUSTOM_SENTINEL


class Tensor(NamedTuple):
    name: str
    dtype: DType
    shape: tuple[int, ...]
    buffer_index: int = 0  # 0 = activation, no constant data


class OperatorEntry(NamedTuple):
    opcode_index: int
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    options_kind: OptionsKind = OptionsKind.BUILTIN
    options: bytes = b""


@dataclass(frozen=True)
class ModelGraph:
    """Immutable single-subgraph model. Safe to share across threads.

    Its validation mark and the interpreter's programs rely on that."""
    opcodes: tuple[OperatorCode, ...]
    buffers: tuple[bytes, ...]
    tensors: tuple[Tensor, ...]
    operators: tuple[OperatorEntry, ...]
    graph_inputs: tuple[int, ...]
    graph_outputs: tuple[int, ...]
    # not a field: set once validate() finds no violation (see check_graph)
    _validated = False

    def is_constant(self, tensor_index: int) -> bool:
        return self.tensors[tensor_index].buffer_index != 0

    def op_kind(self, op: OperatorEntry) -> OperatorCode:
        return self.opcodes[op.opcode_index]


def tensor_byte_size(t: Tensor) -> int:
    return math.prod(t.shape) * NP_DTYPE[t.dtype].itemsize


def materialize_constants(graph: ModelGraph) -> dict[int, np.ndarray]:
    """Decode every constant tensor's buffer into a read-only array view."""
    consts: dict[int, np.ndarray] = {}
    for i, t in enumerate(graph.tensors):
        if t.buffer_index != 0:
            raw = graph.buffers[t.buffer_index]
            consts[i] = np.frombuffer(raw, dtype=NP_DTYPE[t.dtype]).reshape(t.shape)
    return consts


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(graph: ModelGraph) -> list[str]:
    """Return a description of every violated invariant; [] means executable."""
    v: list[str] = []
    n_t = len(graph.tensors)

    # per opcode: custom?, and its builtin kind if known (to decode options)
    codes: list[tuple[bool, BuiltinOp | None]] = []
    for i, oc in enumerate(graph.opcodes):
        custom = oc.builtin_code == CUSTOM_SENTINEL
        if custom != bool(oc.custom_name):
            v.append(f"opcodes[{i}]: builtin_code/custom_name mismatch "
                     f"(code={oc.builtin_code:#x}, name={oc.custom_name!r})")
        if oc.custom_name and not CUSTOM_NAME_RE.match(oc.custom_name):
            v.append(f"opcodes[{i}].custom_name: {oc.custom_name!r} does not "
                     f"match [A-Z][a-z]{{5}}")
        kind = None if custom else BuiltinOp._value2member_map_.get(oc.builtin_code)
        if not custom and kind is None:
            v.append(f"opcodes[{i}].builtin_code: unknown builtin {oc.builtin_code}")
        codes.append((custom, kind))

    if not graph.buffers:
        v.append("buffers: table must contain reserved empty entry 0")
    elif graph.buffers[0] != b"":
        v.append("buffers[0]: reserved entry must be empty")

    const: list[bool] = []
    for i, t in enumerate(graph.tensors):
        if t.shape and min(t.shape) < 1:
            v.append(f"tensors[{i}].shape: dims must be >= 1, got {t.shape}")
        const.append(t.buffer_index != 0)
        if not 0 <= t.buffer_index < len(graph.buffers):
            v.append(f"tensors[{i}].buffer_index: {t.buffer_index} out of range")
        elif t.buffer_index != 0:
            want = tensor_byte_size(t)
            got = len(graph.buffers[t.buffer_index])
            if want != got:
                v.append(f"tensors[{i}]: buffer {t.buffer_index} holds {got} "
                         f"bytes, shape/dtype implies {want}")

    produced_by: dict[int, int] = {}
    graph_input_set = set(graph.graph_inputs)
    order: list[str] = []  # stored order must be a valid execution order
    for i, op in enumerate(graph.operators):
        if not 0 <= op.opcode_index < len(codes):
            v.append(f"operators[{i}].opcode_index: {op.opcode_index} out of range")
        else:
            custom, kind = codes[op.opcode_index]
            if custom:
                if op.options_kind is not OptionsKind.CUSTOM:
                    v.append(f"operators[{i}]: custom opcode requires CUSTOM options")
            elif op.options_kind is not OptionsKind.BUILTIN:
                v.append(f"operators[{i}]: builtin opcode requires BUILTIN options")
            elif kind is not None:
                try:
                    decode_options(kind, op.options)
                except MalformedOptions as e:
                    v.append(f"operators[{i}].options: {e}")
        # constants must trail activations so custom-dispatch reassembly stays
        # positional
        seen_const, follows = False, None
        for j, tin in enumerate(op.inputs):
            if not 0 <= tin < n_t:
                v.append(f"operators[{i}].inputs[{j}]: tensor index {tin} out of range")
            elif const[tin]:
                seen_const = True
            else:
                if seen_const and follows is None:
                    follows = j
                if tin not in produced_by and tin not in graph_input_set:
                    order.append(f"operators[{i}]: input tensor {tin} is not a "
                                 f"graph input, constant, or earlier output")
        if len(op.outputs) != 1:
            v.append(f"operators[{i}].outputs: must declare exactly one "
                     f"output, got {len(op.outputs)}")
        for j, tout in enumerate(op.outputs):
            if not 0 <= tout < n_t:
                v.append(f"operators[{i}].outputs[{j}]: tensor index {tout} out of range")
                continue
            if tout in produced_by:
                v.append(f"operators[{i}] and operators[{produced_by[tout]}] "
                         f"both produce tensor {tout}")
            else:
                produced_by[tout] = i
        if follows is not None:
            v.append(f"operators[{i}].inputs: activation input at position "
                     f"{follows} follows a constant input")

    for io_name, idxs in (("graph_inputs", graph.graph_inputs),
                          ("graph_outputs", graph.graph_outputs)):
        for j, t in enumerate(idxs):
            if not 0 <= t < n_t:
                v.append(f"{io_name}[{j}]: tensor index {t} out of range")

    for j, t in enumerate(graph.graph_outputs):
        if 0 <= t < n_t and t not in produced_by and t not in graph_input_set:
            v.append(f"graph_outputs[{j}]: tensor {t} is never produced")

    v += order
    if order and _has_cycle(graph):
        v.append(_CYCLE)

    return v


def _has_cycle(graph: ModelGraph) -> bool:
    producers = {t: i for i, op in enumerate(graph.operators)
                 for t in op.outputs if 0 <= t < len(graph.tensors)}
    deps = {i: {p for t in op.inputs if (p := producers.get(t, i)) != i}
            for i, op in enumerate(graph.operators)}
    try:
        graphlib.TopologicalSorter(deps).prepare()
    except graphlib.CycleError:
        return True
    return False


def check_graph(graph: ModelGraph, error=None, what: str = "") -> None:
    """Mark ``graph`` once it passes :func:`validate`, else raise ``error(
    f"{what}: {violations}")`` or, by whole messages and never the file text
    in them, CycleDetected, IndexOutOfRange or else InvariantViolation."""
    if graph._validated:
        return
    bad = validate(graph)
    if not bad:
        object.__setattr__(graph, "_validated", True)  # past the frozen guard
        return
    msg = "; ".join(bad)
    if error is not None:
        raise error(f"{what}: {msg}")
    if _CYCLE in bad:
        raise CycleDetected(msg)
    if any(s.endswith(" out of range") for s in bad):
        raise IndexOutOfRange(msg)
    raise InvariantViolation(msg)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("<B", "<H", "<I", "<Q"))
_FIXED = {"H": _U16, "I": _U32}
_COUNTED = {"s": _U32, "b": _U32, "q": _U64}

# The wire layouts, field by field in wire order.  Field kinds: "H"/"I" a
# fixed unsigned int; an IntEnum class one byte; "s" a u32-counted UTF-8
# string; "b"/"q" u32-/u64-counted bytes; "i" an index list (n u32, then n
# u32 values); (build, sub) a u32-counted list of rows of layout ``sub``,
# each read back as ``build(*fields)`` and written from a tuple of its fields
# in wire order (the model's rows are named tuples) or, with a one-field
# ``sub``, from the value itself.
_MODEL = ((OperatorCode, ("H", "s")), (bytes, ("q",)),
          (Tensor, ("s", DType, "i", "I")),
          (OperatorEntry, ("I", "i", "i", OptionsKind, "b")), "i", "i")


def _write(layout, values, out: list) -> None:
    """Append the encoding of ``values`` under ``layout`` to ``out``."""
    for kind, value in zip(layout, values):
        if type(kind) is str:
            if kind == "i":
                out.append(struct.pack(f"<I{len(value)}I", len(value), *value))
            elif kind in _FIXED:
                out.append(_FIXED[kind].pack(value))
            else:  # a count, then that many bytes
                raw = value.encode("utf-8") if kind == "s" else value
                out += (_COUNTED[kind].pack(len(raw)), raw)
        elif type(kind) is tuple:
            build, sub = kind
            out.append(_U32.pack(len(value)))
            if value:  # one walk over every row's fields
                _write(sub * len(value),
                       chain.from_iterable(value) if len(sub) > 1 else value,
                       out)
        else:  # an IntEnum class: one byte
            out.append(_U8.pack(value))


def _read(layout, data: bytes, pos: int) -> tuple[list, int]:
    """Decode ``layout`` from ``data`` at ``pos``: its values and the offset
    past them.  A short fixed-width read raises ``struct.error``."""
    values = []
    for kind in layout:
        if type(kind) is str:
            if kind == "i":
                (n,) = _U32.unpack_from(data, pos)
                value = struct.unpack_from(f"<{n}I", data, pos + 4)
                pos += 4 + 4 * n
            elif kind in _FIXED:
                (value,) = _FIXED[kind].unpack_from(data, pos)
                pos += _FIXED[kind].size
            else:
                (n,) = _COUNTED[kind].unpack_from(data, pos)
                start = pos + _COUNTED[kind].size
                pos = start + n
                if pos > len(data):
                    raise TruncatedSection(f"need {n} bytes at offset {start}, "
                                           f"have {len(data) - start}")
                value = data[start:pos]
                if kind == "s":
                    try:
                        value = value.decode("utf-8")
                    except UnicodeDecodeError as e:
                        raise InvariantViolation(
                            f"name ending at offset {pos} is not UTF-8: "
                            f"{e.reason}") from None
        elif type(kind) is tuple:
            build, sub = kind
            (n,) = _U32.unpack_from(data, pos)
            pos += 4
            rows = []
            for _ in range(n):
                row, pos = _read(sub, data, pos)
                rows.append(build(*row))
            value = tuple(rows)
        else:  # an IntEnum class: one byte
            (raw,) = _U8.unpack_from(data, pos)
            value = kind._value2member_map_.get(raw)
            if value is None:
                raise InvariantViolation(
                    f"unknown {kind.__name__} {raw} at offset {pos}")
            pos += 1
        values.append(value)
    return values, pos


def _encode(magic: bytes, version: int, layout, values) -> bytes:
    """``magic | version u32`` followed by ``values`` under ``layout``."""
    out = [magic, _U32.pack(version)]
    _write(layout, values, out)
    return b"".join(out)


def _decode(magic: bytes, version: int, layout, data: bytes) -> list:
    """Inverse of :func:`_encode`.  A wrong magic or version raises
    :class:`BadMagic`; any strict prefix of a container, and a container
    with bytes after its last field, :class:`TruncatedSection`."""
    # slices taken from here key decode_options' cache: keep them hashable
    # even when the caller passes a bytearray
    data = bytes(data)
    if len(data) >= 4 and data[:4] != magic:
        raise BadMagic(f"expected {magic!r} header")
    # only the walker's own unpack_from calls raise struct.error, so a row
    # builder's errors pass through unrelabelled
    try:
        (got,) = _U32.unpack_from(data, 4)
        if got != version:
            raise BadMagic(f"unsupported {magic.decode()} version {got}")
        values, pos = _read(layout, data, 8)
    except struct.error as e:
        raise TruncatedSection(f"short read: {e}") from None
    if pos != len(data):
        raise TruncatedSection(f"{len(data) - pos} trailing bytes")
    return values


def serialize_model(graph: ModelGraph) -> bytes:
    """Canonical byte encoding; a pure function of the graph."""
    check_graph(graph)
    return _encode(MAGIC, VERSION, _MODEL,
                   attrgetter(*ModelGraph.__dataclass_fields__)(graph))


def parse_model(data: bytes) -> ModelGraph:
    """Parse NNM1 bytes into a validated ModelGraph."""
    graph = ModelGraph(*_decode(MAGIC, VERSION, _MODEL, data))
    check_graph(graph)
    return graph


# ---------------------------------------------------------------------------
# human-readable dump
# ---------------------------------------------------------------------------

def options_to_dict(kind: BuiltinOp, raw: bytes) -> dict:
    """Decoded options as a plain dict in field order; enums by name."""
    opts = decode_options(kind, raw)
    if opts is None:
        return {}
    return {k: v.name if isinstance(v, IntEnum) else v
            for k, v in opts._asdict().items()}


def dump_json(graph: ModelGraph) -> str:
    """Readable JSON view of the model file, with stable key order."""
    check_graph(graph)
    codes = []
    for oc in graph.opcodes:
        entry = {"deprecated_builtin_code": oc.builtin_code}
        if oc.custom_name:
            entry["custom_code"] = oc.custom_name
        codes.append(entry)

    tensors = [{"shape": list(t.shape), "name": t.name,
                "dtype": t.dtype.name, "buffer": t.buffer_index}
               for t in graph.tensors]

    operators = []
    for op in graph.operators:
        oc = graph.op_kind(op)
        kind = None if oc.is_custom else BuiltinOp(oc.builtin_code)
        entry = {"inputs": list(op.inputs), "outputs": list(op.outputs),
                 "op_type": oc.custom_name if kind is None
                 else BUILTIN_NAMES[kind] + "Options"}
        if op.options_kind is OptionsKind.BUILTIN:
            entry["builtin_options"] = options_to_dict(kind, op.options)
        else:
            entry["custom_options"] = list(op.options)
        operators.append(entry)

    doc = {"operator_codes": codes, "tensors": tensors, "operators": operators}
    return json.dumps(doc, indent=2)
