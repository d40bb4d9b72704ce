"""Seeded fixture models covering every builtin kernel.

Five small networks stand in for a production model zoo.  Constant weights
are drawn uniform in [-0.5, 0.5) from a splittable PRNG so the same
(name, seed) pair always builds a bit-identical graph.

Tensor-table layout convention: all activation tensors first, then all
constants in operator order.  Parameter encapsulation therefore strips a
suffix, and reconstruction re-appends it, preserving original indices.

Per-fixture counts (operators / tensors / constant tensors / opcode entries)
are declared in FIXTURE_STATS and asserted by the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownFixture
from .model_format import (
    DTYPE_OF,
    Activation,
    BuiltinOp,
    ConcatOptions,
    ConvOptions,
    DenseOptions,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    OptionsKind,
    Padding,
    PoolOptions,
    Tensor,
    encode_options,
)

FIXTURE_NAMES = ("mlp", "lenet", "branchy", "depthwise_net", "pool_net")

FIXTURE_STATS = {
    "mlp": {"operators": 4, "tensors": 11, "constants": 6, "opcodes": 2},
    "lenet": {"operators": 7, "tensors": 12, "constants": 4, "opcodes": 5},
    "branchy": {"operators": 9, "tensors": 16, "constants": 6, "opcodes": 7},
    "depthwise_net": {"operators": 6, "tensors": 13, "constants": 6, "opcodes": 6},
    "pool_net": {"operators": 8, "tensors": 13, "constants": 4, "opcodes": 7},
}


class GraphBuilder:
    """Assembles a ModelGraph, deferring constants to the table suffix."""

    def __init__(self):
        self._opcodes: dict[BuiltinOp, int] = {}  # in first-use order
        self._activations: list[Tensor] = []
        self._constants: list[tuple[Tensor, bytes]] = []
        self._operators: list[tuple[int, list[int], list[int], bytes]] = []
        self.graph_inputs: list[int] = []
        self.graph_outputs: list[int] = []

    def activation(self, name: str, shape: tuple[int, ...]) -> int:
        self._activations.append(Tensor(name, DType.F32, tuple(shape)))
        return len(self._activations) - 1

    def input(self, name: str, shape: tuple[int, ...]) -> int:
        idx = self.activation(name, shape)
        self.graph_inputs.append(idx)
        return idx

    def constant(self, name: str, values: np.ndarray) -> int:
        """Returns a negative handle resolved to a real index at finish()."""
        tensor = Tensor(name, DTYPE_OF[values.dtype], tuple(values.shape),
                        buffer_index=0)
        self._constants.append((tensor, np.ascontiguousarray(values).tobytes()))
        return -len(self._constants)

    def op(self, code: BuiltinOp, inputs: list[int], out_name: str,
           out_shape: tuple[int, ...], options=None) -> int:
        out = self.activation(out_name, out_shape)
        raw = encode_options(code, options) if options is not None else b""
        opcode = self._opcodes.setdefault(code, len(self._opcodes))
        self._operators.append((opcode, list(inputs), [out], raw))
        return out

    def finish(self) -> ModelGraph:
        n_act = len(self._activations)
        tensors = list(self._activations)
        buffers = [b""]
        for tensor, data in self._constants:
            buffers.append(data)
            tensors.append(tensor._replace(buffer_index=len(buffers) - 1))

        def resolve(i: int) -> int:
            return i if i >= 0 else n_act + (-i - 1)

        operators = tuple(
            OperatorEntry(opcode, tuple(resolve(i) for i in inputs),
                          tuple(outputs), OptionsKind.BUILTIN, raw)
            for opcode, inputs, outputs, raw in self._operators)
        opcodes = tuple(OperatorCode(int(code)) for code in self._opcodes)
        return ModelGraph(opcodes, tuple(buffers), tuple(tensors),
                          operators, tuple(self.graph_inputs),
                          tuple(self.graph_outputs))


def _weights(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    return rng.random(shape, dtype=np.float32) - np.float32(0.5)


def _layer(b: GraphBuilder, rng, kind: BuiltinOp, x: int, name: str,
           wshape: tuple[int, ...], out_shape: tuple[int, ...], options,
           bias: bool = True) -> int:
    """A weighted layer: draws ``<name>/weight``, then ``<name>/bias`` over
    the weight's last axis, then adds the operator writing ``<name>/out``."""
    ins = [x, b.constant(f"{name}/weight", _weights(rng, wshape))]
    if bias:
        ins.append(b.constant(f"{name}/bias", _weights(rng, wshape[-1:])))
    return b.op(kind, ins, f"{name}/out", out_shape, options)


def _build_mlp(b: GraphBuilder, rng) -> None:
    x = b.input("input", (1, 128))
    dims = [(128, 256, Activation.RELU), (256, 64, Activation.RELU),
            (64, 10, Activation.NONE)]
    for k, (din, dout, act) in enumerate(dims):
        x = _layer(b, rng, BuiltinOp.DENSE, x, f"dense{k}", (din, dout), (1, dout),
                   DenseOptions(act))
    y = b.op(BuiltinOp.SOFTMAX, [x], "probs", (1, 10))
    b.graph_outputs.append(y)


def _build_lenet(b: GraphBuilder, rng) -> None:
    x = b.input("input", (1, 28, 28, 1))
    x = _layer(b, rng, BuiltinOp.CONV_2D, x, "conv1", (5, 5, 1, 6), (1, 24, 24, 6),
               ConvOptions(1, 1, Padding.VALID, Activation.RELU), bias=False)
    x = b.op(BuiltinOp.MAX_POOL_2D, [x], "pool1/out", (1, 12, 12, 6),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    x = _layer(b, rng, BuiltinOp.CONV_2D, x, "conv2", (5, 5, 6, 16), (1, 8, 8, 16),
               ConvOptions(1, 1, Padding.VALID, Activation.RELU), bias=False)
    x = b.op(BuiltinOp.MAX_POOL_2D, [x], "pool2/out", (1, 4, 4, 16),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    x = b.op(BuiltinOp.FLATTEN, [x], "flatten/out", (1, 256))
    x = _layer(b, rng, BuiltinOp.DENSE, x, "dense", (256, 10), (1, 10),
               DenseOptions(Activation.NONE))
    y = b.op(BuiltinOp.SOFTMAX, [x], "probs", (1, 10))
    b.graph_outputs.append(y)


def _build_branchy(b: GraphBuilder, rng) -> None:
    x = b.input("input", (1, 12, 12, 3))
    a = _layer(b, rng, BuiltinOp.CONV_2D, x, "stem", (3, 3, 3, 8), (1, 12, 12, 8),
               ConvOptions(1, 1, Padding.SAME, Activation.RELU))
    left = _layer(b, rng, BuiltinOp.CONV_2D, a, "left", (3, 3, 8, 4), (1, 12, 12, 4),
                  ConvOptions(1, 1, Padding.SAME, Activation.NONE), bias=False)
    right = _layer(b, rng, BuiltinOp.CONV_2D, a, "right", (3, 3, 8, 4), (1, 12, 12, 4),
                   ConvOptions(1, 1, Padding.SAME, Activation.NONE), bias=False)
    cc = b.op(BuiltinOp.CONCAT, [left, right], "concat/out", (1, 12, 12, 8),
              ConcatOptions(axis=3))
    s = b.op(BuiltinOp.ADD, [a, cc], "residual/out", (1, 12, 12, 8))
    p = b.op(BuiltinOp.MAX_POOL_2D, [s], "pool/out", (1, 6, 6, 8),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    f = b.op(BuiltinOp.FLATTEN, [p], "flatten/out", (1, 288))
    d = _layer(b, rng, BuiltinOp.DENSE, f, "head", (288, 10), (1, 10),
               DenseOptions(Activation.NONE))
    y = b.op(BuiltinOp.SOFTMAX, [d], "probs", (1, 10))
    b.graph_outputs.append(y)


def _build_depthwise_net(b: GraphBuilder, rng) -> None:
    x = b.input("input", (1, 16, 16, 3))
    x = _layer(b, rng, BuiltinOp.CONV_2D, x, "stem", (3, 3, 3, 8), (1, 16, 16, 8),
               ConvOptions(1, 1, Padding.SAME, Activation.RELU))
    x = _layer(b, rng, BuiltinOp.DEPTHWISE_CONV_2D, x, "dw", (3, 3, 8), (1, 16, 16, 8),
               ConvOptions(1, 1, Padding.SAME, Activation.RELU6), bias=False)
    x = b.op(BuiltinOp.AVG_POOL_2D, [x], "pool/out", (1, 8, 8, 8),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    shape = b.constant("reshape/shape", np.array([-1, 512], dtype=np.int32))
    x = b.op(BuiltinOp.RESHAPE, [x, shape], "reshape/out", (1, 512))
    x = _layer(b, rng, BuiltinOp.DENSE, x, "head", (512, 10), (1, 10),
               DenseOptions(Activation.NONE))
    y = b.op(BuiltinOp.SOFTMAX, [x], "probs", (1, 10))
    b.graph_outputs.append(y)


def _build_pool_net(b: GraphBuilder, rng) -> None:
    x = b.input("input", (1, 32, 32, 8))
    x = b.op(BuiltinOp.MAX_POOL_2D, [x], "pool1/out", (1, 16, 16, 8),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    x = b.op(BuiltinOp.RELU, [x], "relu/out", (1, 16, 16, 8))
    x = b.op(BuiltinOp.AVG_POOL_2D, [x], "pool2/out", (1, 8, 8, 8),
             PoolOptions(2, 2, 2, 2, Padding.VALID))
    x = b.op(BuiltinOp.FLATTEN, [x], "flatten/out", (1, 512))
    x = _layer(b, rng, BuiltinOp.DENSE, x, "dense1", (512, 32), (1, 32),
               DenseOptions(Activation.NONE))
    x = b.op(BuiltinOp.RELU6, [x], "relu6/out", (1, 32))
    x = _layer(b, rng, BuiltinOp.DENSE, x, "dense2", (32, 10), (1, 10),
               DenseOptions(Activation.NONE))
    y = b.op(BuiltinOp.SOFTMAX, [x], "probs", (1, 10))
    b.graph_outputs.append(y)


_BUILDERS = {
    "mlp": _build_mlp,
    "lenet": _build_lenet,
    "branchy": _build_branchy,
    "depthwise_net": _build_depthwise_net,
    "pool_net": _build_pool_net,
}


def build_fixture(name: str, seed: int) -> ModelGraph:
    if name not in _BUILDERS:
        raise UnknownFixture(f"no fixture named {name!r}; "
                             f"choose from {', '.join(FIXTURE_NAMES)}")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed,
                               spawn_key=(FIXTURE_NAMES.index(name),)))
    b = GraphBuilder()
    _BUILDERS[name](b, rng)
    return b.finish()
