"""The five obfuscation passes and their orchestration.

Passes apply in a fixed order: rename, parameter encapsulation, shape
obfuscation, shortcut injection, extra-layer injection.  Everything is a
pure function of (graph, config): all randomness flows from per-stage PRNGs
derived from the config seed, so the same inputs always produce byte-identical
artifacts.

Three artifacts come out of :func:`obfuscate`:

* the public obfuscated model (safe to ship),
* a :class:`~nnobf.bundle.KernelBundle` sidecar the runtime needs (ships with
  the interpreter, stands in for a recompiled kernel library),
* an :class:`ObfuscationPlan`, the private inverse mapping.  Anyone holding
  the plan can reconstruct the original model, so it must never be
  distributed.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import random
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import interpreter
from .bundle import (
    BundleRecord,
    KernelBundle,
    encode_decoy_shape,
    load_bundle,
    serialize_bundle,
)
from .errors import InvariantViolation, MalformedPlan, NnobfError, PlanMismatch
from .model_format import (
    CUSTOM_SENTINEL,
    DECOY_SENTINEL,
    DTYPE_OF,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    Tensor,
    check_graph,
    materialize_constants,
    validate,  # unused: perfbench's tracer patches obfuscator.validate
)


class SharedConstantWarning(UserWarning):
    """A constant tensor feeds several operators; its data was duplicated."""


class Strategy(Enum):
    RENAME = "rename"
    ENCAPSULATE = "encapsulate"
    SHAPE = "shape"


ALL_STRATEGIES = frozenset(Strategy)


class ShapeStrategy(Enum):
    RANDOM = "random"
    ALIGN_TO_LARGEST = "align"


@dataclass(frozen=True)
class ObfuscationConfig:
    """``strategies`` switches the first three passes; a non-zero count, each
    injection.  Construction checks the config: a bad one raises InvariantViolation."""
    seed: int
    n_shortcuts: int = 0
    n_extra_layers: int = 0
    shape_strategy: ShapeStrategy = ShapeStrategy.ALIGN_TO_LARGEST
    strategies: frozenset[Strategy] = ALL_STRATEGIES

    def __post_init__(self):
        if type(self.seed) is not int:  # type(): bool is an int subclass
            raise InvariantViolation(f"seed must be an int, got {self.seed!r:.40}")
        if self.seed < 0:  # random.Random seeds by absolute value: -3 is 3
            raise InvariantViolation(f"seed must be >= 0, got {self.seed}")
        if any(type(n) is not int or n < 0
               for n in (self.n_shortcuts, self.n_extra_layers)):
            raise InvariantViolation("shortcut/extra-layer counts must be ints >= 0")
        s = self.strategies
        if not (isinstance(self.shape_strategy, ShapeStrategy)
                and all(isinstance(x, Strategy) for x in s)):
            raise InvariantViolation(f"expected Strategy members and a ShapeStrategy, got "
                                     f"{set(s)!r:.50} and {self.shape_strategy!r:.40}")
        if Strategy.ENCAPSULATE in s and Strategy.RENAME not in s:
            raise InvariantViolation(
                "parameter encapsulation requires renaming: bundle records are "
                "keyed by custom operator names")
        if (self.n_shortcuts or self.n_extra_layers) \
                and not {Strategy.RENAME, Strategy.ENCAPSULATE} <= s:
            raise InvariantViolation(
                "a shortcut/extra-layer count > 0 requires rename+encapsulate so "
                "true wiring is hidden in the bundle")


# a 32-bit word's top byte -> the letter of its top 5 bits, unless >= 26
_LETTER = bytes(ord("a") + (x >> 3) for x in range(208)) + bytes(48)
_REJECT = bytes(range(208, 256))


class NameGenerator:
    """Emits unique random names matching [A-Z][a-z]{5}.

    It draws the stream of six ``rng.choice`` calls over 26 letters a name:
    a 32-bit word's top 5 bits, redrawn while >= 26; one ``getrandbits``
    reads the k words that the k letters still missing need at least."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._used: set[str] = set()

    def fresh(self) -> str:
        while True:
            got = b""
            while len(got) < 6:
                k = 6 - len(got)  # the first word drawn is the lowest
                words = self._rng.getrandbits(32 * k).to_bytes(4 * k, "little")
                got += words[3::4].translate(_LETTER, _REJECT)
            name = got.decode().capitalize()
            if name not in self._used:
                self._used.add(name)
                return name


@dataclass
class ObfuscationPlan:
    """Private inverse mapping ("cache file"); never ship with the model.

    ``shapes[i]`` is the true declared shape of public tensor ``i``, for
    every tensor but the decoy layers' outputs (which come last).  It is
    empty when shape obfuscation is off, since then no shape was replaced.
    The injection logs (public operator positions) are filled only by
    :func:`obfuscate`; :func:`plan_from_json` leaves them empty, since the
    records and the public model hold the same facts.
    """
    config: ObfuscationConfig
    records: dict[str, BundleRecord] = field(default_factory=dict)
    injected_shortcuts: list[tuple[int, int]] = field(default_factory=list)
    injected_layers: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    shapes: list[tuple[int, ...]] = field(default_factory=list)


# ---------------------------------------------------------------------------
# individual passes
# ---------------------------------------------------------------------------

def rename(graph: ModelGraph, plan: ObfuscationPlan,
           names: NameGenerator) -> ModelGraph:
    """Give every operator its own custom opcode and every tensor a fresh name.

    Identical layer types deliberately end up with unrelated names.  The plan
    records the real builtin code and options under each new name.
    """
    opcodes: list[OperatorCode] = []
    operators: list[OperatorEntry] = []
    for i, op in enumerate(graph.operators):
        real = graph.opcodes[op.opcode_index]
        if real.is_custom:
            raise InvariantViolation(
                f"operators[{i}] already carries a custom opcode; rename "
                f"expects an unobfuscated graph")
        name = names.fresh()
        opcodes.append(OperatorCode(CUSTOM_SENTINEL, name))
        operators.append(op._replace(opcode_index=i))
        plan.records[name] = BundleRecord(
            real.builtin_code, op.options,
            tuple(range(len(op.inputs))), ())
    tensors = tuple(t._replace(name=names.fresh()) for t in graph.tensors)
    return replace(graph, opcodes=tuple(opcodes), tensors=tensors,
                   operators=tuple(operators))


def encapsulate_parameters(graph: ModelGraph, plan: ObfuscationPlan,
                           rng: random.Random) -> ModelGraph:
    """Move constants and real options into the plan records.

    Constant tensors and their buffers disappear from the public model;
    operator input lists keep only activations.  Public options are replaced
    by meaningless random bytes.
    """
    uses: dict[int, int] = {}
    for op in graph.operators:
        for t in op.inputs:
            if graph.is_constant(t):
                uses[t] = uses.get(t, 0) + 1
    for t, n in uses.items():
        if n > 1:
            warnings.warn(
                f"constant tensor {graph.tensors[t].name!r} feeds {n} "
                f"operators; weights duplicated into each record",
                SharedConstantWarning)

    const_arrays = materialize_constants(graph)

    remap: dict[int, int] = {}
    tensors: list[Tensor] = []
    for i, t in enumerate(graph.tensors):
        if t.buffer_index == 0:
            remap[i] = len(tensors)
            tensors.append(t)

    operators: list[OperatorEntry] = []
    for op in graph.operators:
        name = graph.opcodes[op.opcode_index].custom_name
        acts = [t for t in op.inputs if not graph.is_constant(t)]
        weights = tuple(const_arrays[t] for t in op.inputs
                        if graph.is_constant(t))
        rec = plan.records[name]
        plan.records[name] = BundleRecord(rec.real_builtin_code,
                                          rec.real_options,
                                          tuple(range(len(acts))), weights)
        operators.append(op._replace(
            inputs=tuple(remap[t] for t in acts),
            outputs=tuple(remap[t] for t in op.outputs),
            options=rng.randbytes(rng.randint(8, 24))))  # rename made it CUSTOM

    return replace(graph, buffers=(b"",), tensors=tuple(tensors),
                   operators=tuple(operators),
                   graph_inputs=tuple(remap[t] for t in graph.graph_inputs),
                   graph_outputs=tuple(remap[t] for t in graph.graph_outputs))


def obfuscate_shapes(graph: ModelGraph, strategy: ShapeStrategy,
                     rng: random.Random) -> ModelGraph:
    """Replace declared shapes with decoys; the runtime never reads them.

    Graph-input shapes stay real (callers must build inputs), and constant
    shapes stay real (their buffers must remain interpretable).
    """
    # the pool covers activation shapes, not weights
    largest = max((t.shape for t in graph.tensors if t.buffer_index == 0),
                  key=math.prod, default=())
    inputs = set(graph.graph_inputs)
    tensors: list[Tensor] = []
    for i, t in enumerate(graph.tensors):
        if i in inputs or t.buffer_index != 0:
            tensors.append(t)
        elif strategy is ShapeStrategy.RANDOM:
            tensors.append(t._replace(
                shape=tuple(rng.randint(1, 64) for _ in t.shape)))
        else:
            tensors.append(t._replace(shape=largest))
    return replace(graph, tensors=tuple(tensors))


def inject_shortcuts(graph: ModelGraph, n1: int, rng: random.Random,
                     plan: ObfuscationPlan) -> ModelGraph:
    """Append n1 decoy data-flow edges between topologically ordered pairs.

    Each shortcut draws pairs ``a < b`` until ``b`` does not yet read ``a``'s
    first output.  Free pairs are counted once up front; the shortcuts past
    that count are skipped without drawing, and each warns once, with a message
    starting "no free shortcut pair".
    """
    n_ops = len(graph.operators)
    if n_ops < 2:
        if n1 > 0:
            warnings.warn("graph has fewer than 2 operators; no shortcuts injected")
        return graph
    inputs = [list(op.inputs) for op in graph.operators]
    outs = [op.outputs[0] for op in graph.operators]
    free = sum(outs[a] not in inputs[b] for b in range(n_ops) for a in range(b))
    for _ in range(min(n1, free)):
        a, b = sorted(rng.sample(range(n_ops), 2))
        while outs[a] in inputs[b]:
            a, b = sorted(rng.sample(range(n_ops), 2))
        inputs[b].append(outs[a])
        plan.injected_shortcuts.append((a, b))
    for _ in range(n1 - free):
        warnings.warn("no free shortcut pair left; skipped")
    operators = tuple(op._replace(inputs=tuple(ins))
                      for op, ins in zip(graph.operators, inputs))
    return replace(graph, operators=operators)


def inject_extra_layers(graph: ModelGraph, n2: int, rng: random.Random,
                        plan: ObfuscationPlan,
                        names: NameGenerator) -> ModelGraph:
    """Insert n2 decoy operators whose outputs feed later ops' declared inputs.

    A decoy reads an earlier operator's output.  A run calls no kernel for a
    decoy and makes no output for it: only the all-live memory proxy counts the
    size its record declares.  Each decoy goes right after its producer, ahead
    of older ones, so stored order stays topological; the layout, and the
    plan's indices, are made at the end.
    """
    n = len(graph.operators)
    if n < 2:
        if n2 > 0:
            warnings.warn("graph has fewer than 2 operators; no extra layers injected")
        return graph
    opcodes = list(graph.opcodes)
    tensors = list(graph.tensors)
    decoys: list[list[tuple]] = [[] for _ in range(n)]  # per producer, oldest first
    extra: list[list[int]] = [[] for _ in range(n)]  # decoy tensors each op reads
    shapes = []
    for d in range(n2):
        a, b = sorted(rng.sample(range(n), 2))
        op_name = names.fresh()
        tensor_name = names.fresh()
        shape = (rng.randint(1, 8), rng.randint(1, 8))
        tensors.append(Tensor(tensor_name, DType.F32, shape, 0))
        opcodes.append(OperatorCode(CUSTOM_SENTINEL, op_name))
        options = rng.randbytes(rng.randint(8, 24))
        decoys[a].append((d, OperatorEntry(
            len(opcodes) - 1, (graph.operators[a].outputs[0],),
            (len(tensors) - 1,), options)))
        extra[b].append(len(tensors) - 1)
        shapes.append(shape)
        plan.records[op_name] = BundleRecord(
            DECOY_SENTINEL, encode_decoy_shape(shape), (), ())

    pos, decoy_pos, operators = [], [0] * n2, []
    for op, ins, after in zip(graph.operators, extra, decoys):
        pos.append(len(operators))
        operators.append(op._replace(inputs=op.inputs + tuple(ins)) if ins else op)
        for d, decoy in reversed(after):
            decoy_pos[d] = len(operators)
            operators.append(decoy)
    plan.injected_shortcuts = [(pos[i], pos[j]) for i, j in plan.injected_shortcuts]
    plan.injected_layers = list(zip(decoy_pos, shapes))
    return replace(graph, opcodes=tuple(opcodes), tensors=tuple(tensors),
                   operators=tuple(operators))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def obfuscate(graph: ModelGraph, config: ObfuscationConfig) \
        -> tuple[ModelGraph, KernelBundle, ObfuscationPlan]:
    """Apply the enabled passes in canonical order; fully deterministic."""
    check_graph(graph)

    master = random.Random(config.seed)
    _, encapsulate, shape, shortcut, extra_layer, name_seed = (
        master.getrandbits(64) for _ in range(6))  # in pass order; rename's unused
    names = NameGenerator(name_seed)
    plan = ObfuscationPlan(config)

    g = graph
    if Strategy.RENAME in config.strategies:
        g = rename(g, plan, names)
    if Strategy.ENCAPSULATE in config.strategies:
        g = encapsulate_parameters(g, plan, random.Random(encapsulate))
    if Strategy.SHAPE in config.strategies:
        # the injections below only append tensors, so these indices hold
        plan.shapes = [t.shape for t in g.tensors]
        g = obfuscate_shapes(g, config.shape_strategy, random.Random(shape))
    g = inject_shortcuts(g, config.n_shortcuts, random.Random(shortcut), plan)
    g = inject_extra_layers(g, config.n_extra_layers, random.Random(extra_layer),
                            plan, names)

    check_graph(g, InvariantViolation, "obfuscation produced an invalid graph")
    return g, KernelBundle(plan.records), plan


# ---------------------------------------------------------------------------
# reconstruction (requires the private plan)
# ---------------------------------------------------------------------------

def reconstruct(graph: ModelGraph, plan: ObfuscationPlan) -> ModelGraph:
    """Invert the obfuscation using the private plan.

    Declared activation shapes come from ``plan.shapes``; no model runs.
    An invalid graph, or a plan that does not fit it, raises ``PlanMismatch``.
    """
    check_graph(graph, PlanMismatch, "the graph to reconstruct is invalid")
    renamed = Strategy.RENAME in plan.config.strategies
    for i, op in enumerate(graph.operators):
        if graph.opcodes[op.opcode_index].is_custom != renamed:
            raise PlanMismatch(
                f"operators[{i}] is {'not ' if renamed else ''}custom but the "
                f"plan {'renames' if renamed else 'does not rename'} operators")
    if renamed:
        rebuilt = _unwrap(graph, plan)
    else:
        rebuilt = replace(graph, tensors=_restore_shapes(graph.tensors,
                                                         plan.shapes))
    check_graph(rebuilt, PlanMismatch, "reconstruction produced an invalid graph")
    return rebuilt


def _unwrap(graph: ModelGraph, plan: ObfuscationPlan) -> ModelGraph:
    """Drop the decoys and give each operator its real kind and weights."""
    try:
        steps, shapes, *_ = interpreter.compile_program(
            graph, KernelBundle(plan.records).table,
            lambda kind, raw: raw)  # options stay raw bytes
    except NnobfError as e:
        raise PlanMismatch(f"plan does not fit the graph: {e}") from e
    decoys = {op.outputs[0] for op, shape in zip(graph.operators, shapes) if shape}

    kept = [i for i in range(len(graph.tensors)) if i not in decoys]
    remap = {i: k for k, i in enumerate(kept)}
    tensors = list(_restore_shapes([graph.tensors[i] for i in kept], plan.shapes))
    opcode_index: dict[int, int] = {}
    # keep existing buffers: without encapsulation, constants still live here
    buffers: list[bytes] = list(graph.buffers)
    operators: list[OperatorEntry] = []
    for s, _, kind, ins, weights, raw, _ in steps:
        inputs = [remap[t] for t in ins]
        for w in weights:
            buffers.append(np.ascontiguousarray(w).tobytes())
            tensors.append(Tensor(f"const{len(buffers) - 1}", DTYPE_OF[w.dtype],
                                  tuple(w.shape), len(buffers) - 1))
            inputs.append(len(tensors) - 1)
        operators.append(OperatorEntry(
            opcode_index.setdefault(kind, len(opcode_index)), tuple(inputs),
            tuple(remap[t] for t in graph.operators[s].outputs), raw))

    opcodes = tuple(OperatorCode(int(kind)) for kind in opcode_index)
    return ModelGraph(opcodes, tuple(buffers), tuple(tensors), tuple(operators),
                      tuple(remap[t] for t in graph.graph_inputs),
                      tuple(remap[t] for t in graph.graph_outputs))


def _restore_shapes(tensors, shapes: list[tuple[int, ...]]) -> tuple[Tensor, ...]:
    """Give the non-decoy tensors their true shapes; empty ``shapes`` keeps them."""
    if not shapes:
        return tuple(tensors)
    if len(shapes) != len(tensors):
        raise PlanMismatch(f"plan holds {len(shapes)} tensor shapes; the graph "
                           f"has {len(tensors)} non-decoy tensors")
    return tuple(t._replace(shape=s) for t, s in zip(tensors, shapes))


# ---------------------------------------------------------------------------
# plan persistence (JSON, private)
# ---------------------------------------------------------------------------

PLAN_WARNING = ("PRIVATE ARTIFACT: this plan inverts the obfuscation. "
                "Never distribute it alongside the model or bundle.")
_BUNDLE_KEY = ', "bundle": "'  # the plan's last key, its value spliced in


def plan_to_json(plan: ObfuscationPlan) -> str:
    """Version-5 plan: config, true shapes, then the bundle; all that
    :func:`reconstruct` reads.  The injection logs are not written: each
    decoy record encodes its shape, and each real record its true inputs.

    The records travel as ``base64(serialize_bundle(...))``, so the plan
    shares the bundle's one record codec and its load-time checks.  The
    bundle text goes last and is spliced in as it is: base64 never needs
    JSON escaping, so the encoder is spared a scan of the largest field.
    """
    doc = {
        "warning": PLAN_WARNING,
        "format": "nnobf-plan",
        "version": 5,
        "config": {
            "seed": plan.config.seed,
            "n_shortcuts": plan.config.n_shortcuts,
            "n_extra_layers": plan.config.n_extra_layers,
            "shape_strategy": plan.config.shape_strategy.value,
            "strategies": [s.value for s in Strategy
                           if s in plan.config.strategies],
        },
        "shapes": plan.shapes,
    }
    bundle = serialize_bundle(KernelBundle(plan.records))
    return "".join((json.dumps(doc)[:-1], _BUNDLE_KEY,
                    base64.b64encode(bundle).decode("ascii"), '"}'))


def plan_from_json(text: str) -> ObfuscationPlan:
    """Inverse of :func:`plan_to_json`; malformed input raises MalformedPlan.
    Like the writer, it splits the text at the last ``, "bundle": "``: only
    the head goes to ``json.loads``, and the tail must be strict base64 and
    ``"}``, so a JSON-escaped bundle string is rejected."""
    cut = text.rfind(_BUNDLE_KEY)
    if cut < 0 or not text.endswith('"}'):
        raise MalformedPlan('not a plan file: no closing "bundle" string')
    try:
        doc = json.loads(text[:cut] + "}")  # text ending in "}": a dict or an error
        if doc.get("format") != "nnobf-plan" or doc.get("version") != 5:
            raise MalformedPlan("not a version-5 nnobf plan file")
        cfg = doc["config"]
        config = ObfuscationConfig(
            seed=cfg["seed"],
            n_shortcuts=cfg["n_shortcuts"],
            n_extra_layers=cfg["n_extra_layers"],
            shape_strategy=ShapeStrategy(cfg["shape_strategy"]),
            strategies=frozenset(Strategy(s) for s in _list(cfg["strategies"])))
        # strict rejects non-alphabet bytes; reads the str in place, no copy
        blob = binascii.a2b_base64(text[cut + len(_BUNDLE_KEY):-2], strict_mode=True)
        return ObfuscationPlan(config, dict(load_bundle(blob).records),
                               shapes=[_shape(s) for s in _list(doc["shapes"])])
    except MalformedPlan:
        raise
    except (KeyError, TypeError, ValueError, RecursionError, NnobfError) as e:
        raise MalformedPlan(f"malformed plan file: {e!r}") from e


def _list(v) -> list:
    if not isinstance(v, list):
        raise MalformedPlan(f"expected a list, got {type(v).__name__} {v!r:.40}")
    return v


def _shape(v) -> tuple[int, ...]:
    if any(type(d) is not int or d < 1 for d in _list(v)):
        raise MalformedPlan(f"expected a shape (dims >= 1), got {v!r:.40}")
    return tuple(v)
