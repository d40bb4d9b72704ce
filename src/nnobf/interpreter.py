"""Reference execution engine.

Runs plain models through builtin dispatch and obfuscated models through the
kernel bundle: a custom operator's record selects the true activation inputs
from the declared input list, appends encapsulated weights, and executes the
real kernel with the real options.  Every operator has exactly one output.
Decoy inputs and decoy layers never feed the true computation, so obfuscated
outputs are bit-identical to the original's.  A decoy layer's output is
never a true input nor a graph output, so a run allocates none: it records
the shape and size the record's option bytes encode.

Declared tensor shapes are never consulted during execution (they may be
decoys); runtime shapes come from the actual arrays.  The leading axis of
every graph input is treated as a batch dimension and may differ from the
declared size.

The first run of a ``(graph, bundle)`` pair compiles it: ``check_graph`` of
the graph, then :func:`compile_program`, the one walk over the operators
(``reconstruct`` uses it too), builds each step's decoded options and drop
list, the decoy shapes and bytes, the constants as read-only views of the
graph's buffers, and the static byte count.  It reads the bundle's record
table (``KernelBundle.table``), which ``load_bundle`` fills as it checks
each record, and a bundle built in process on its first compile.  A graph
that fails ``validate``, a missing bundle, an unknown custom name, a bad
record or true input position, and a true input or graph output that is a
decoy's output raise there, before any kernel runs, and nothing is kept.
The program lives as long as both objects (graphs and bundles are
immutable) and holds neither; later runs only check their inputs and
execute the steps.  Nothing in a program depends on the batch size.
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

import weakref
from typing import NamedTuple

import numpy as np

from .bundle import KernelBundle
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
    BuiltinOp,
    ModelGraph,
    check_graph,
    decode_options,
    materialize_constants,
)


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


def compile_program(graph: ModelGraph, table: tuple[dict, int] | None,
                    decode) -> tuple:
    """The program for a gated ``graph`` and a bundle's record ``table`` (or
    None), options through ``decode(kind, raw)``: the real steps ``(s,
    output, kind, true_inputs, weights, options, drops)``, the output shapes
    (a decoy's ``(shape,)``, else ``()``), the constants, the static live
    bytes and the decoy output bytes (never live).  ``drops`` lists the
    activations step ``s`` reads last, and its own output if no step reads
    it; a tensor is in at most one list, constants and graph outputs in none.
    Only how the records fit the graph is checked here."""
    facts, live = table or (None, 0)
    shapes, decoy_bytes, decoys = [()] * len(graph.operators), 0, set()
    steps, reader = [], {}  # tensor -> drops of the step that reads it last
    for s, op in enumerate(graph.operators):
        opcode, o = graph.opcodes[op.opcode_index], op.outputs[0]
        if opcode.builtin_code != CUSTOM_SENTINEL:
            kind = BuiltinOp._value2member_map_[opcode.builtin_code]
            raw, ins, weights = op.options, op.inputs, ()
        else:
            if facts is None:
                raise MissingBundle(f"operator {opcode.custom_name!r} is custom "
                                    "but no bundle was supplied")
            fact = facts.get(opcode.custom_name)
            if fact is None:
                raise UnknownCustomName(
                    f"bundle has no record for {opcode.custom_name!r}")
            if fact[0] is None:  # a decoy reads nothing, never reaches a kernel
                _, shapes[s], n = fact
                decoy_bytes += n
                decoys.add(o)
                continue
            kind, raw, positions, weights = fact
            try:
                ins = [op.inputs[p] for p in positions]
            except IndexError:
                raise IndexOutOfRange(
                    f"record {opcode.custom_name!r}: true input positions "
                    f"{positions} exceed the operator's {len(op.inputs)} "
                    f"inputs") from None
        if decoys and not decoys.isdisjoint(ins):
            raise InvariantViolation(f"operator {s}: a true input is a decoy's output")
        drops = reader[o] = []
        for t in ins:
            reader[t] = drops
        steps.append((s, o, kind, ins, weights, decode(kind, raw), drops))
    if decoys and not decoys.isdisjoint(graph.graph_outputs):
        raise InvariantViolation("a graph output is a decoy's output")
    consts = materialize_constants(graph)  # views of the buffers, not the graph
    for t in (*consts, *graph.graph_outputs):
        reader.pop(t, None)
    for t, drops in reader.items():
        drops.append(t)
    live += sum(a.nbytes for a in consts.values())
    return steps, shapes, consts, live, decoy_bytes


# (id(graph), id(bundle)) -> (program, weak references to graph and bundle);
# a reference's callback drops the entry when its object dies, before the id
# can be reused.  Graphs and bundles are immutable, so a program never goes
# stale.
_programs: dict[tuple[int, int], tuple] = {}


def _program(graph: ModelGraph, bundle: KernelBundle | None) -> tuple:
    """``run``'s program for ``(graph, bundle)``, compiled once."""
    key = (id(graph), id(bundle))
    entry = _programs.get(key)
    if entry is not None:
        return entry[0]
    check_graph(graph)
    program = compile_program(graph, bundle and bundle.table, decode_options)

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
