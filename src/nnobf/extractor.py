"""Attacker-side analysis: what does a public model file give away?

Three attack classes are replayed against model files:

* ``convert`` mimics format-conversion tooling: it walks the graph and maps
  every builtin operator to a neutral interchange record.  Any custom opcode
  aborts the conversion, which is the defense-success signal (gradient-attack
  pipelines are gated on this same conversion step).
* ``parse_in_buffer`` reports exactly what a raw file parse reveals: operator
  type strings, tensor names and shapes, constant payloads.
* ``find_surrogate`` scores a query model against a zoo of candidate
  originals using structure (propagation kernel) plus coarse weight
  statistics, imitating feature-matching attacks that look for a
  differentiable stand-in model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NnobfError, BadMagic, EmptyZoo, UnknownOperator
from .fixtures import FIXTURE_NAMES, build_fixture
from .model_format import (
    BUILTIN_NAMES,
    BuiltinOp,
    ModelGraph,
    materialize_constants,
    options_to_dict,
    parse_model,
    serialize_model,
    tensor_byte_size,
)
from .obfuscator import (
    ALL_STRATEGIES,
    ObfuscationConfig,
    ShapeStrategy,
    Strategy,
    obfuscate,
)
from .similarity import similarity_row, to_labeled_graph


class ConversionStatus(Enum):
    SUCCESS = "success"
    MALFORMED = "malformed"


@dataclass
class ExtractionReport:
    op_types_recovered: list[str] = field(default_factory=list)
    weight_tensor_count: int = 0
    weight_bytes: int = 0
    shapes_recovered: list[tuple[int, ...]] = field(default_factory=list)
    conversion: ConversionStatus = ConversionStatus.SUCCESS


def parse_in_buffer(data: bytes) -> ExtractionReport:
    """Everything a raw parse of the public file reveals, nothing more."""
    try:
        graph = parse_model(data)
    except BadMagic:
        raise
    except NnobfError:
        return ExtractionReport(conversion=ConversionStatus.MALFORMED)
    report = ExtractionReport()
    for op in graph.operators:
        oc = graph.op_kind(op)
        if oc.is_custom:
            report.op_types_recovered.append(oc.custom_name)
        else:
            report.op_types_recovered.append(BUILTIN_NAMES[BuiltinOp(oc.builtin_code)])
    for t in graph.tensors:
        report.shapes_recovered.append(t.shape)
        if t.buffer_index != 0:
            report.weight_tensor_count += 1
            report.weight_bytes += tensor_byte_size(t)
    return report


@dataclass
class ConvertedOp:
    op: str
    attrs: dict
    weights: list[np.ndarray]


def convert(graph: ModelGraph) -> list[ConvertedOp]:
    """Map builtins to neutral interchange records; custom opcodes abort."""
    consts = materialize_constants(graph)
    out: list[ConvertedOp] = []
    for op in graph.operators:
        oc = graph.op_kind(op)
        if oc.is_custom:
            raise UnknownOperator(oc.custom_name)
        kind = BuiltinOp(oc.builtin_code)
        weights = [consts[t] for t in op.inputs if t in consts]
        out.append(ConvertedOp(BUILTIN_NAMES[kind],
                               options_to_dict(kind, op.options), weights))
    return out


def recover_weights(graph: ModelGraph) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """All constant tensors readable from the model file."""
    consts = materialize_constants(graph)
    return [(graph.tensors[i].shape, consts[i]) for i in sorted(consts)]


# ---------------------------------------------------------------------------
# surrogate matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightStats:
    count: int
    total_bytes: int
    l1: float


def weight_stats(graph: ModelGraph) -> WeightStats:
    consts = materialize_constants(graph)
    total = 0
    l1 = 0.0
    for i, arr in consts.items():
        total += tensor_byte_size(graph.tensors[i])
        l1 += float(np.abs(arr.astype(np.float64)).sum())
    return WeightStats(len(consts), total, l1)


def _ratio(a: float, b: float) -> float:
    if a == b:
        return 1.0
    hi, lo = (a, b) if a > b else (b, a)
    return lo / hi if hi else 1.0


def _param_similarity(a: WeightStats, b: WeightStats) -> float:
    if a.count == 0 and b.count == 0:
        return 1.0
    if a.count == 0 or b.count == 0:
        return 0.0
    return (_ratio(a.count, b.count) + _ratio(a.total_bytes, b.total_bytes)
            + _ratio(a.l1, b.l1)) / 3.0


def find_surrogate(query: ModelGraph,
                   zoo: list[ModelGraph]) -> list[tuple[int, float]]:
    """Rank zoo members by similarity to the query, best first: structure
    (the propagation kernel) and parameter features weighted equally."""
    if not zoo:
        raise EmptyZoo("surrogate search needs a non-empty zoo")
    struct = similarity_row(to_labeled_graph(query),
                            [to_labeled_graph(g) for g in zoo])
    q, *stats = map(weight_stats, (query, *zoo))
    scored = [(i, 0.5 * (k + _param_similarity(q, s)))
              for i, (k, s) in enumerate(zip(struct, stats))]
    return sorted(scored, key=lambda p: (-p[1], p[0]))


def surrogate_rank(ranked: list[tuple[int, float]], true_index: int) -> float:
    """Tie-averaged rank of the true original; 1.0 means uniquely identified."""
    true_score = None
    for i, s in ranked:
        if i == true_index:
            true_score = s
    if true_score is None:
        raise EmptyZoo(f"zoo index {true_index} not present in ranking")
    above = sum(1 for i, s in ranked if s > true_score)
    tied = sum(1 for i, s in ranked if s == true_score and i != true_index)
    return 1.0 + above + 0.5 * tied


def build_default_zoo() -> list[tuple[str, ModelGraph]]:
    """Local model zoo: every fixture at weight seeds 11, 12 and 13."""
    return [(f"{name}#{s}", build_fixture(name, s))
            for name in FIXTURE_NAMES for s in (11, 12, 13)]


# ---------------------------------------------------------------------------
# attack matrix over strategy subsets
# ---------------------------------------------------------------------------

# Minimal strategy closures: a count switches each injection on, and needs
# rename+encapsulate, so those rows carry both.
ATTACK_ROWS: list[tuple[str, frozenset[Strategy], int, int]] = [
    ("none", frozenset(), 0, 0),
    ("renaming", frozenset({Strategy.RENAME}), 0, 0),
    ("parameter_encapsulation",
     frozenset({Strategy.RENAME, Strategy.ENCAPSULATE}), 0, 0),
    ("structure_obfuscation", frozenset({Strategy.SHAPE}), 0, 0),
    ("shortcut_injection", frozenset({Strategy.RENAME, Strategy.ENCAPSULATE}), 20, 0),
    ("extra_layer_injection", frozenset({Strategy.RENAME, Strategy.ENCAPSULATE}), 0, 20),
    ("all_five", ALL_STRATEGIES, 20, 20),
]


@dataclass
class AttackRow:
    label: str
    convert_successes: int
    buffer_successes: int
    surrogate_successes: int
    total: int


def _buffer_parse_succeeds(data: bytes) -> bool:
    report = parse_in_buffer(data)
    known = set(BUILTIN_NAMES.values())
    return all(t in known for t in report.op_types_recovered)


def _convert_succeeds(graph: ModelGraph) -> bool:
    try:
        convert(graph)
        return True
    except UnknownOperator:
        return False


def attack_matrix(models: list[tuple[str, ModelGraph]],
                  zoo: list[tuple[str, ModelGraph]],
                  seed: int = 0) -> list[AttackRow]:
    """Success counts per attack per strategy subset, over the given models."""
    zoo_graphs = [g for _, g in zoo]
    # each model's zoo entry; serialization is canonical, so == is byte equality
    zoo_index = [next((i for i, z in enumerate(zoo_graphs) if z == g), None)
                 for _, g in models]
    already_custom = {id(g) for _, g in models
                      if any(g.op_kind(op).is_custom for op in g.operators)}
    rows = []
    for label, strategies, n1, n2 in ATTACK_ROWS:
        conv = buf = surr = 0
        for (_, graph), true_index in zip(models, zoo_index):
            if id(graph) in already_custom:
                # the input is already obfuscated; attack it as shipped
                public = graph
            else:
                config = ObfuscationConfig(seed=seed, n_shortcuts=n1,
                                           n_extra_layers=n2,
                                           shape_strategy=ShapeStrategy.ALIGN_TO_LARGEST,
                                           strategies=strategies)
                public, _, _ = obfuscate(graph, config)
            if _convert_succeeds(public):
                conv += 1
            if _buffer_parse_succeeds(serialize_model(public)):
                buf += 1
            if true_index is not None:
                ranked = find_surrogate(public, zoo_graphs)
                if surrogate_rank(ranked, true_index) == 1.0:
                    surr += 1
        rows.append(AttackRow(label, conv, buf, surr, len(models)))
    return rows
