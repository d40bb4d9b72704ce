"""Propagation graph kernel for structural similarity between models.

A model graph becomes a directed labeled graph: one node per operator, an
edge whenever an operator's output appears in another's declared input list,
and each node labeled by its total degree capped at 8 (names carry no signal
once obfuscated, so only structure is used).

The kernel propagates per-node label distributions ``_T_MAX`` times over the
row-normalized symmetrized adjacency (with self-loops) and, at every
iteration, buckets them on a grid of width ``_BIN_WIDTH`` offset by the seed.
Same-bucket nodes of the two graphs contribute count products, normalized
to [0, 1] by the two self-kernels.

All arithmetic is in float64 with a fixed accumulation order, so results
are exactly reproducible and an independent brute-force implementation can
match them bit for bit.  Each label column is a list of floats; one step
gives every node ``acc += w * col[u]`` over its closed neighbourhood in
ascending index order, starting from 0.0.  The loop is explicit because
``sum()`` compensates its rounding from Python 3.12 on, and neither it nor
``math.fsum`` would match the plain left-to-right sum of the reference.

Every label column propagates and bins on its own, using only its label's
offset, so a graph is propagated and binned once per label set.  A column
whose label neither graph carries stays zero in every row and lands every
node in the same bucket coordinate, so it changes no count product: the
self-kernels and every pair of a :func:`similarity_matrix` or
:func:`similarity_row` share one binning over the union of all labels.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyGraph, InvariantViolation
from .model_format import ModelGraph

_M64 = (1 << 64) - 1

# Picked empirically: on desk-scale graphs, a coarse grid and few iterations
# keep similarity decreasing as injections grow; very fine bins with deep
# propagation let decoy nodes dominate the bucket counts and the trend flips.
_T_MAX = 3
_BIN_WIDTH = 0.05


@dataclass(frozen=True)
class LabeledGraph:
    n: int
    edges: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.n:
            raise InvariantViolation(f"{self.n} nodes but {len(self.labels)} labels")
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvariantViolation(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InvariantViolation(f"self-edge at node {u}")


def to_labeled_graph(graph: ModelGraph) -> LabeledGraph:
    """One node per operator; edges follow declared inputs; degree labels."""
    producers: dict[int, int] = {}
    for i, op in enumerate(graph.operators):
        for t in op.outputs:
            producers[t] = i
    edges: set[tuple[int, int]] = set()
    for v, op in enumerate(graph.operators):
        for tin in op.inputs:
            u = producers.get(tin)
            if u is not None and u != v:
                edges.add((u, v))
    n = len(graph.operators)
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return LabeledGraph(n, tuple(sorted(edges)), tuple(min(d, 8) for d in deg))


def _mix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@functools.lru_cache(maxsize=1024)
def quantization_offset(seed: int, t: int, label: int) -> float:
    """Deterministic offset in [0, 1) for one grid coordinate."""
    h = _mix64(_mix64(_mix64(seed & _M64) ^ ((t + 0x1F123BB5) & _M64))
               ^ ((label + 0x5851F42D) & _M64))
    return h / 2.0 ** 64


def _bucket_counts(g: LabeledGraph, labels: list[int], seed: int) -> Counter[tuple]:
    """Bucket occupancy of every iteration t = 0..``_T_MAX``, over ``labels``.

    Keys are ``(t, floor((d + offset) / width) per label column)`` int tuples.
    """
    if g.n == 0:
        raise EmptyGraph("propagation kernel needs non-empty graphs")
    closed = [{v} for v in range(g.n)]
    for u, v in g.edges:
        closed[u].add(v)
        closed[v].add(u)
    neigh = [(1.0 / len(ns), sorted(ns)) for ns in closed]
    cols = [[1.0 if x == lab else 0.0 for x in g.labels] for lab in labels]
    width, counts = _BIN_WIDTH, Counter()
    for t in range(_T_MAX + 1):
        offsets = [quantization_offset(seed, t, lab) * width for lab in labels]
        counts.update(zip([t] * g.n, *([math.floor((x + off) / width) for x in col]
                                        for col, off in zip(cols, offsets))))
        if t < _T_MAX:
            for j, col in enumerate(cols):
                new = []
                for w, ns in neigh:
                    acc = 0.0
                    for u in ns:
                        acc += w * col[u]
                    new.append(acc)
                cols[j] = new
    return counts


def _dot(c1: Counter[tuple], c2: Counter[tuple]) -> int:
    return sum(cnt * c2[key] for key, cnt in c1.items())


def _normalized(c1: Counter[tuple], c2: Counter[tuple]) -> float:
    return _dot(c1, c2) / math.sqrt(_dot(c1, c1) * _dot(c2, c2))


def _counts(graphs: list[LabeledGraph], seed: int) -> list[Counter[tuple]]:
    """Each graph propagated and binned once, over the labels of all graphs."""
    labels = sorted(set().union(*(g.labels for g in graphs)))
    return [_bucket_counts(g, labels, seed) for g in graphs]


def propagation_kernel(g1: LabeledGraph, g2: LabeledGraph, seed: int = 0) -> float:
    """Normalized similarity in [0, 1]; symmetric and deterministic in seed."""
    return similarity_row(g1, [g2], seed)[0]


def similarity_row(query: LabeledGraph, graphs: list[LabeledGraph],
                   seed: int = 0) -> list[float]:
    """:func:`propagation_kernel` of ``query`` against each of ``graphs``."""
    q, *counts = _counts([query, *graphs], seed)
    return [_normalized(q, c) for c in counts]


def similarity_matrix(graphs: list[LabeledGraph],
                      seed: int = 0) -> list[list[float]]:
    """Pairwise :func:`propagation_kernel` values; 1.0 on the diagonal."""
    n = len(graphs)
    m = [[1.0] * n for _ in range(n)]
    if n < 2:
        return m
    counts = _counts(graphs, seed)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = _normalized(counts[i], counts[j])
    return m
