"""Reference execution engine.

Runs plain models through builtin dispatch and obfuscated models through the
kernel bundle: a custom operator's record selects the true activation inputs
from the declared input list, appends encapsulated weights, and executes the
real kernel with the real options.  Every operator has exactly one output.
Decoy inputs and decoy layers never feed the true computation, so obfuscated
outputs are bit-identical to the original's.  A decoy layer's output is
read-only zeros of its recorded shape, from a bounded memo keyed by the
record's option bytes.

Declared tensor shapes are never consulted during execution (they may be
decoys); runtime shapes come from the actual arrays.  The leading axis of
every graph input is treated as a batch dimension and may differ from the
declared size.

Memory accounting is deliberately naive: every graph input, every constant
(model- or bundle-resident), and every operator output is assumed live for
the whole run.  That all-live proxy is ``trace.peak_live_bytes``, the one
peak figure the package reports (``bench.peak_bytes_single`` reads it from a
batch-1 run).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .bundle import KernelBundle, decode_decoy_shape
from .errors import (
    IndexOutOfRange,
    MissingBundle,
    ShapeMismatch,
    UnknownCustomName,
)
from .kernels import execute_builtin
from .model_format import (
    CUSTOM_SENTINEL,
    DECOY_SENTINEL,
    BuiltinOp,
    ModelGraph,
    decode_options,
    materialize_constants,
)


@functools.lru_cache(maxsize=64)
def _decoy_zeros(raw: bytes) -> np.ndarray:
    """Read-only float32 zeros of the shape a decoy record's options encode.

    Bounded in count by the cache and in size by ``decode_decoy_shape``.
    """
    zeros = np.zeros(decode_decoy_shape(raw), np.float32)
    zeros.flags.writeable = False
    return zeros


@dataclass
class ExecutionTrace:
    output_shapes: list[tuple[tuple[int, ...]]] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    peak_live_bytes: int = 0


def _check_inputs(graph: ModelGraph, inputs: list[np.ndarray]) -> None:
    if len(inputs) != len(graph.graph_inputs):
        raise ShapeMismatch(f"graph takes {len(graph.graph_inputs)} inputs, "
                            f"got {len(inputs)}")
    for k, (arr, t_idx) in enumerate(zip(inputs, graph.graph_inputs)):
        declared = graph.tensors[t_idx].shape
        if arr.ndim != len(declared) or tuple(arr.shape[1:]) != declared[1:]:
            raise ShapeMismatch(
                f"input {k}: shape {tuple(arr.shape)} incompatible with "
                f"declared {declared} (leading axis is free)")


def run(graph: ModelGraph, bundle: KernelBundle | None,
        inputs: list[np.ndarray],
        op_timing: bool = False) -> tuple[list[np.ndarray], ExecutionTrace]:
    """Execute the graph; returns graph outputs and an execution trace.

    ``op_timing=True`` also records each operator's wall time in
    ``trace.op_seconds``, at two clock reads per operator; shapes and the
    memory proxy are always recorded.
    """
    _check_inputs(graph, inputs)
    values: dict[int, np.ndarray] = {}
    peak = 0
    for arr, t_idx in zip(inputs, graph.graph_inputs):
        arr = np.ascontiguousarray(arr)
        values[t_idx] = arr
        peak += arr.nbytes

    consts = materialize_constants(graph)
    for i, arr in consts.items():
        values[i] = arr
        peak += arr.nbytes
    if bundle is not None:
        for rec in bundle.records.values():
            for w in rec.weights:
                peak += w.nbytes

    trace = ExecutionTrace()
    shapes = trace.output_shapes
    seconds = trace.op_seconds
    opcodes = graph.opcodes
    records = bundle.records if bundle is not None else None
    clock = time.perf_counter if op_timing else None
    for op in graph.operators:
        opcode = opcodes[op.opcode_index]
        t0 = clock() if clock else 0.0
        if opcode.builtin_code != CUSTOM_SENTINEL:
            code, raw = opcode.builtin_code, op.options
            args = [values[t] for t in op.inputs]
        else:
            if records is None:
                raise MissingBundle(
                    f"operator {opcode.custom_name!r} is custom but no bundle "
                    f"was supplied")
            rec = records.get(opcode.custom_name)
            if rec is None:
                raise UnknownCustomName(
                    f"bundle has no record for {opcode.custom_name!r}")
            code, raw = rec.real_builtin_code, rec.real_options
            if code != DECOY_SENTINEL:
                try:
                    args = [values[op.inputs[p]]
                            for p in rec.true_input_positions]
                except IndexError:
                    raise IndexOutOfRange(
                        f"record {opcode.custom_name!r}: true input positions "
                        f"{rec.true_input_positions} exceed the operator's "
                        f"{len(op.inputs)} inputs") from None
                args.extend(rec.weights)
        if code == DECOY_SENTINEL:  # reads nothing, never reaches a kernel
            out = _decoy_zeros(raw)
        else:
            kind = BuiltinOp(code)
            out = execute_builtin(kind, args, decode_options(kind, raw))[0]
        if clock:
            seconds.append(clock() - t0)
        shapes.append((out.shape,))
        values[op.outputs[0]] = out
        peak += out.nbytes

    trace.peak_live_bytes = peak
    return [values[t] for t in graph.graph_outputs], trace
