"""Reference execution engine.

Runs plain models through builtin dispatch and obfuscated models through the
kernel bundle: a custom operator's record selects the true activation inputs
from the declared input list, appends encapsulated weights, and executes the
real kernel with the real options.  Every operator has exactly one output.
Decoy inputs and decoy layers never feed the true computation, so obfuscated
outputs are bit-identical to the original's.  A decoy layer's output is
never a true input nor a graph output, so a run allocates none: it records
the shape and size the record's option bytes encode, from a bounded memo.

Declared tensor shapes are never consulted during execution (they may be
decoys); runtime shapes come from the actual arrays.  The leading axis of
every graph input is treated as a batch dimension and may differ from the
declared size.

The first run of a ``(graph, bundle)`` pair compiles it: ``check_graph`` of
the graph, then :func:`resolve`, the one walk over the operators
(``reconstruct`` uses it too), each step's decoded options and drop list,
the constants as read-only views of the graph's buffers, and the static
byte count.  A graph that fails ``validate``, a missing bundle, an unknown
custom name, a bad true input position or decoy record, and a true input or
graph output that is a decoy's output raise there, before any kernel runs,
and nothing is kept.  The program lives as long as both objects (graphs and
bundles are immutable) and holds neither; later runs only check their inputs
and execute the steps.  Nothing in a program depends on the batch size.
Liveness is decided at compile time: a step drops each activation it reads
last, and its own output if nothing reads it; graph outputs and constants
are kept.
``trace.peak_live_bytes`` is the all-live proxy (``bench.peak_bytes_single``
reads it at batch 1): the sum of every graph input, constant (model- or
bundle-resident) and operator output, decoys included.
``trace.peak_live_bytes_liveness`` is the peak of that sum with each
activation out of it after its last true read.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import NamedTuple

import numpy as np

from .bundle import BundleRecord, KernelBundle, decode_decoy_shape
from .errors import (
    IndexOutOfRange,
    InvariantViolation,
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
    check_graph,
    decode_options,
    materialize_constants,
)


@functools.lru_cache(maxsize=64)
def _decoy_output(raw: bytes) -> tuple[tuple, int]:
    """The ``output_shapes`` entry and float32 byte size of the output a
    decoy record's options encode (bounded by ``decode_decoy_shape``)."""
    shape = decode_decoy_shape(raw)
    return (shape,), 4 * math.prod(shape)


class ExecutionTrace(NamedTuple):
    output_shapes: list[tuple[tuple[int, ...]]]
    peak_live_bytes: int
    peak_live_bytes_liveness: int


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


def resolve(graph: ModelGraph, records: dict[str, BundleRecord] | None) \
        -> tuple[list[tuple], dict[int, tuple[int, bytes]]]:
    """Resolve every operator through ``records`` (a bundle's, or None).

    Returns the real steps ``(s, output, kind, raw_options, true_inputs,
    weights)``, ``kind`` being the real ``BuiltinOp``, and a map from each
    decoy layer's output to its ``(s, raw_options)`` (the options encode its
    shape).  Both callers, ``_program`` and ``reconstruct``, pass only graphs
    that passed ``check_graph``, so only the records are checked here: an
    unknown real code, and a true input or graph output that is a decoy's
    output, raise ``InvariantViolation``.
    """
    steps, decoys = [], {}
    for s, op in enumerate(graph.operators):
        opcode = graph.opcodes[op.opcode_index]
        if opcode.builtin_code != CUSTOM_SENTINEL:
            code, raw, ins, weights = opcode.builtin_code, op.options, op.inputs, ()
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
            if code == DECOY_SENTINEL:  # reads nothing, never reaches a kernel
                decoys[op.outputs[0]] = (s, raw)
                continue
            try:
                ins = [op.inputs[p] for p in rec.true_input_positions]
            except IndexError:
                raise IndexOutOfRange(
                    f"record {opcode.custom_name!r}: true input positions "
                    f"{rec.true_input_positions} exceed the operator's "
                    f"{len(op.inputs)} inputs") from None
            weights = rec.weights
        kind = BuiltinOp._value2member_map_.get(code)
        if kind is None:
            raise InvariantViolation(f"operator {s}: unknown builtin {code}")
        if decoys and not decoys.keys().isdisjoint(ins):
            raise InvariantViolation(f"operator {s}: a true input is a decoy's output")
        steps.append((s, op.outputs[0], kind, raw, ins, weights))
    if decoys and not decoys.keys().isdisjoint(graph.graph_outputs):
        raise InvariantViolation("a graph output is a decoy's output")
    return steps, decoys


# (id(graph), id(bundle)) -> (program, weak references to graph and bundle);
# a reference's callback drops the entry when its object dies, before the id
# can be reused.  Graphs and bundles are immutable, so a program never goes
# stale.
_programs: dict[tuple[int, int], tuple] = {}


def _program(graph: ModelGraph, bundle: KernelBundle | None) -> tuple:
    """``run``'s program for ``(graph, bundle)``, compiled once: the real steps
    ``(s, output, kind, true_inputs, weights, options, drops)``, the decoy
    output shapes, the constants, the static live bytes and the decoy output
    bytes (never live).  ``drops`` lists the activations step ``s`` reads
    last, and its own output if no step reads it; a tensor is in at most one
    list, and constants and graph outputs are in none."""
    key = (id(graph), id(bundle))
    entry = _programs.get(key)
    if entry is not None:
        return entry[0]
    check_graph(graph)
    resolved, decoys = resolve(graph, bundle and bundle.records)
    shapes, decoy_bytes = [()] * len(graph.operators), 0
    for s, raw in decoys.values():
        shapes[s], n = _decoy_output(raw)
        decoy_bytes += n
    steps, reader = [], {}  # tensor -> drops of the step that reads it last
    for s, o, kind, raw, ins, weights in resolved:
        drops = reader[o] = []
        for t in ins:
            reader[t] = drops
        steps.append((s, o, kind, ins, weights, decode_options(kind, raw), drops))
    consts = materialize_constants(graph)  # views of the buffers, not the graph
    for t in (*consts, *graph.graph_outputs):
        reader.pop(t, None)
    for t, drops in reader.items():
        drops.append(t)
    live = sum(a.nbytes for a in consts.values())
    if bundle is not None:
        live += sum(w.nbytes for rec in bundle.records.values() for w in rec.weights)
    program = steps, shapes, consts, live, decoy_bytes

    def drop(_ref):
        _programs.pop(key, None)

    refs = tuple(weakref.ref(o, drop) for o in (graph, bundle) if o is not None)
    _programs[key] = (program, refs)
    return program


def run(graph: ModelGraph, bundle: KernelBundle | None,
        inputs: list[np.ndarray]) -> tuple[list[np.ndarray], ExecutionTrace]:
    """Execute the graph; returns graph outputs and an execution trace of
    every operator's output shapes and both memory figures."""
    steps, shapes, consts, live, decoy_bytes = _program(graph, bundle)
    _check_inputs(graph, inputs)
    shapes = shapes[:]
    values = {t: np.ascontiguousarray(a) for t, a in zip(graph.graph_inputs, inputs)}
    live += sum(a.nbytes for a in values.values())
    values.update(consts)
    total = live + decoy_bytes

    peak = live
    for s, o, kind, ins, weights, opts, drops in steps:
        out = execute_builtin(kind, [*map(values.__getitem__, ins), *weights],
                              opts)[0]
        shapes[s] = (out.shape,)
        values[o] = out
        n = out.nbytes
        del out  # an output in its own step's drops is freed there
        total += n
        live += n
        peak = max(peak, live)
        for t in drops:
            live -= values.pop(t).nbytes

    return ([values[t] for t in graph.graph_outputs],
            ExecutionTrace(shapes, total, peak))
