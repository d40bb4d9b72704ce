import itertools

import numpy as np
import pytest

from reference_kernel import reference_propagation_kernel
from nnobf import similarity
from nnobf.errors import EmptyGraph, InvariantViolation
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.obfuscator import ObfuscationConfig, obfuscate
from nnobf.similarity import (
    LabeledGraph,
    propagation_kernel,
    similarity_matrix,
    similarity_row,
    to_labeled_graph,
)


def chain(n):
    edges = tuple((i, i + 1) for i in range(n - 1))
    deg = [2] * n
    if n >= 1:
        deg[0] = deg[-1] = 1 if n > 1 else 0
    return LabeledGraph(n, edges, tuple(min(d, 8) for d in deg))


def test_three_op_chain_structure(lenet):
    g = to_labeled_graph(build_fixture("mlp", 0))
    assert g.n == 4  # dense, dense, dense, softmax
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.labels == (1, 2, 2, 1)
    # the documented example: a plain 3-node chain
    c = chain(3)
    assert c.edges == ((0, 1), (1, 2)) and c.labels == (1, 2, 1)


def test_lenet_node_count(lenet):
    assert to_labeled_graph(lenet).n == 7


def test_obfuscated_lenet_growth(lenet):
    base = to_labeled_graph(lenet)
    public, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=1, n_shortcuts=3, n_extra_layers=2))
    g = to_labeled_graph(public)
    assert g.n == 9
    # each shortcut adds one edge; each decoy node adds two incident edges
    assert len(plan.injected_shortcuts) == 3
    assert len(g.edges) == len(base.edges) + 3 + 2 * 2


def test_labeled_graph_invariants():
    with pytest.raises(InvariantViolation):
        LabeledGraph(2, ((0, 0),), (1, 1))
    with pytest.raises(InvariantViolation):
        LabeledGraph(2, ((0, 5),), (1, 1))
    with pytest.raises(InvariantViolation):
        LabeledGraph(2, (), (1,))


def test_self_similarity_is_one():
    for g in [chain(1), chain(4), chain(6)]:
        assert propagation_kernel(g, g) == pytest.approx(1.0, abs=1e-9)
    for name in FIXTURE_NAMES:
        g = to_labeled_graph(build_fixture(name, 0))
        assert propagation_kernel(g, g) == pytest.approx(1.0, abs=1e-9)


def test_symmetry_exact():
    pairs = [(chain(3), chain(5)),
             (to_labeled_graph(build_fixture("lenet", 0)),
              to_labeled_graph(build_fixture("branchy", 0)))]
    for a, b in pairs:
        assert propagation_kernel(a, b, 3) == propagation_kernel(b, a, 3)


def test_range_on_fixture_pairs():
    graphs = [to_labeled_graph(build_fixture(n, 0)) for n in FIXTURE_NAMES]
    m = similarity_matrix(graphs)
    for row in m:
        assert all(0.0 <= v <= 1.0 for v in row)


def test_empty_graph_rejected():
    g = LabeledGraph(0, (), ())
    with pytest.raises(EmptyGraph):
        propagation_kernel(g, chain(2))


def test_chain3_vs_chain4_matches_brute_force():
    got = propagation_kernel(chain(3), chain(4), 7)
    want = reference_propagation_kernel(chain(3), chain(4), 7)
    assert got == want


def _all_dags(n):
    """Every edge subset of the upper-triangular pair set on n nodes."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(2 ** len(pairs)):
        edges = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        yield LabeledGraph(n, edges, tuple(min(d, 8) for d in deg))


def test_enumerated_suite_matches_brute_force_exactly(monkeypatch):
    monkeypatch.setattr(similarity, "_T_MAX", 4)
    suite = list(_all_dags(3)) + [chain(k) for k in range(1, 7)]
    for g1, g2 in itertools.combinations(suite, 2):
        assert propagation_kernel(g1, g2, 11) == \
            reference_propagation_kernel(g1, g2, 11)


def test_random_small_graphs_match_brute_force_exactly(monkeypatch):
    rng = np.random.default_rng(23)

    def random_graph(min_n=1, max_n=6, max_edges=8):
        n = int(rng.integers(min_n, max_n + 1))
        edges = set()
        for _ in range(int(rng.integers(0, max_edges + 1))):
            u, v = rng.integers(0, n, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        labels = tuple(int(x) for x in rng.integers(0, 9, size=n))
        return LabeledGraph(n, tuple(sorted(edges)), labels)

    for _ in range(100):
        g1, g2 = random_graph(), random_graph()
        assert propagation_kernel(g1, g2, 5) == \
            reference_propagation_kernel(g1, g2, 5)

    def renumbered(g):
        p = rng.permutation(g.n).tolist()
        labels = [0] * g.n
        for v, lab in enumerate(g.labels):
            labels[p[v]] = lab
        return LabeledGraph(g.n, tuple(sorted((p[u], p[v]) for u, v in g.edges)),
                            tuple(labels))

    # larger graphs, each against the next and against a renumbering of
    # itself: on the 1e-16 grid a node then shares its image's bucket only
    # when both sum their neighbours in the same order, so any order other
    # than the reference's changes the score
    large = [random_graph(40, 120, 360) for _ in range(4)]
    pairs = [*zip(large, large[1:]), *((g, renumbered(g)) for g in large)]
    for t_max, width in ((similarity._T_MAX, similarity._BIN_WIDTH), (4, 1e-16)):
        monkeypatch.setattr(similarity, "_T_MAX", t_max)
        monkeypatch.setattr(similarity, "_BIN_WIDTH", width)
        for g1, g2 in pairs:
            assert propagation_kernel(g1, g2, 5) == \
                reference_propagation_kernel(g1, g2, 5)


def test_similarity_drops_below_one_under_obfuscation(lenet):
    base = to_labeled_graph(lenet)
    public, _, _ = obfuscate(
        lenet, ObfuscationConfig(seed=2, n_shortcuts=10, n_extra_layers=10))
    sim = propagation_kernel(base, to_labeled_graph(public))
    assert 0.0 <= sim < 1.0


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_against_its_obfuscation_matches_brute_force_exactly(
        name, monkeypatch):
    g = build_fixture(name, 0)
    base = to_labeled_graph(g)
    # the 1e-16 grid is finer than float64 spacing near 1, so neighbour sums
    # taken in another order than the reference's land in other buckets
    grids = ((similarity._T_MAX, similarity._BIN_WIDTH), (4, 1e-16))
    for n in (0, 10, 30):
        public, _, _ = obfuscate(
            g, ObfuscationConfig(seed=n + 1, n_shortcuts=n, n_extra_layers=n))
        obf = to_labeled_graph(public)
        for t_max, width in grids:
            monkeypatch.setattr(similarity, "_T_MAX", t_max)
            monkeypatch.setattr(similarity, "_BIN_WIDTH", width)
            for a, b in ((base, obf), (obf, obf)):
                assert propagation_kernel(a, b, 4) == \
                    reference_propagation_kernel(a, b, 4)


def test_single_iteration_matches_brute_force_exactly(monkeypatch):
    monkeypatch.setattr(similarity, "_T_MAX", 1)
    graphs = [chain(1), chain(5),
              to_labeled_graph(build_fixture("branchy", 0))]
    for g1, g2 in itertools.combinations(graphs, 2):
        assert propagation_kernel(g1, g2, 9) == \
            reference_propagation_kernel(g1, g2, 9)


def disjoint_label_pair():
    edges = ((0, 1), (1, 2), (0, 2))
    return (LabeledGraph(3, edges, (0, 1, 2)),
            LabeledGraph(4, edges + ((2, 3),), (5, 6, 7, 7)))


def test_graphs_sharing_no_label_score_zero(monkeypatch):
    g1, g2 = disjoint_label_pair()
    assert propagation_kernel(g1, g2) == reference_propagation_kernel(g1, g2) == 0.0
    monkeypatch.setattr(similarity, "_T_MAX", 1)
    assert propagation_kernel(g1, g2, 2) == \
        reference_propagation_kernel(g1, g2, 2) == 0.0


def test_labels_a_graph_lacks_match_brute_force_exactly(monkeypatch):
    # each graph carries labels the other lacks, so each bins columns that it
    # does not propagate; the reference propagates every column.  On the
    # 1e-16 grid a carried column left unpropagated moves its buckets
    rng = np.random.default_rng(31)

    def graph(n, label_set):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = rng.permutation(len(pairs))[:2 * n]
        return LabeledGraph(n, tuple(sorted(pairs[k] for k in picked)),
                            tuple(int(x) for x in rng.choice(label_set, n)))

    pairs = [disjoint_label_pair()] + [
        (graph(int(rng.integers(5, 30)), [0, 1, 2, 3]),
         graph(int(rng.integers(5, 30)), [3, 5, 6, 8])) for _ in range(6)]
    for t_max, width in ((similarity._T_MAX, similarity._BIN_WIDTH), (4, 1e-16)):
        monkeypatch.setattr(similarity, "_T_MAX", t_max)
        monkeypatch.setattr(similarity, "_BIN_WIDTH", width)
        for g1, g2 in pairs:
            assert propagation_kernel(g1, g2, 8) == \
                reference_propagation_kernel(g1, g2, 8)
            assert propagation_kernel(g2, g1, 8) == \
                reference_propagation_kernel(g2, g1, 8)
    assert any(propagation_kernel(g1, g2) > 0.0 for g1, g2 in pairs)


def test_similarity_matrix_equals_pairwise_kernel_exactly():
    # label sets differ across graphs, so the matrix bins over columns that
    # some pairs do not share
    graphs = [chain(1), chain(2), *disjoint_label_pair()]
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 0)
        public, _, _ = obfuscate(
            g, ObfuscationConfig(seed=5, n_shortcuts=10, n_extra_layers=10))
        graphs += [to_labeled_graph(g), to_labeled_graph(public)]
    m = similarity_matrix(graphs, 6)
    for i, j in itertools.product(range(len(graphs)), repeat=2):
        want = 1.0 if i == j else propagation_kernel(graphs[i], graphs[j], 6)
        assert m[i][j] == want
    for i, g in enumerate(graphs):
        others = graphs[:i] + graphs[i + 1:]
        assert similarity_row(g, others, 6) == m[i][:i] + m[i][i + 1:]


def test_similarity_matrix_rejects_empty_graph():
    assert similarity_matrix([LabeledGraph(0, (), ())]) == [[1.0]]
    with pytest.raises(EmptyGraph):
        similarity_matrix([chain(2), LabeledGraph(0, (), ())])
