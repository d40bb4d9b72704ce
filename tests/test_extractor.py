import itertools
import re

import pytest

from reference_kernel import reference_propagation_kernel
from nnobf.errors import BadMagic, EmptyZoo, UnknownOperator
from nnobf.extractor import (
    ATTACK_ROWS,
    ConversionStatus,
    attack_matrix,
    build_default_zoo,
    convert,
    find_surrogate,
    parse_in_buffer,
    recover_weights,
    surrogate_rank,
    weight_stats,
)
from nnobf.fixtures import FIXTURE_NAMES, FIXTURE_STATS, build_fixture
from nnobf.model_format import (
    serialize_model,
    tensor_byte_size,
)
from nnobf.obfuscator import ObfuscationConfig, Strategy, obfuscate
from nnobf.similarity import propagation_kernel, to_labeled_graph
from test_obfuscator import relu_chain

NAME_RE = re.compile(r"^[A-Z][a-z]{5}$")


def obf(graph, seed=1, n1=0, n2=0, strategies=None):
    kw = {} if strategies is None else {"strategies": strategies}
    config = ObfuscationConfig(seed=seed, n_shortcuts=n1, n_extra_layers=n2, **kw)
    return obfuscate(graph, config)


# -- parse_in_buffer -------------------------------------------------------------

def test_buffer_parse_reveals_original_everything(lenet):
    report = parse_in_buffer(serialize_model(lenet))
    assert "Conv2D" in report.op_types_recovered
    assert report.weight_tensor_count == FIXTURE_STATS["lenet"]["constants"]
    assert report.weight_bytes == sum(len(b) for b in lenet.buffers)
    assert (1, 28, 28, 1) in report.shapes_recovered
    assert report.conversion is ConversionStatus.SUCCESS


def test_buffer_parse_on_obfuscated_sees_only_noise(lenet):
    public, _, _ = obf(lenet, n1=5, n2=5)
    report = parse_in_buffer(serialize_model(public))
    assert all(NAME_RE.match(t) for t in report.op_types_recovered)
    assert report.weight_tensor_count == 0
    assert report.weight_bytes == 0


def test_buffer_parse_truncated_is_malformed(lenet):
    data = serialize_model(lenet)
    report = parse_in_buffer(data[:40])
    assert report.conversion is ConversionStatus.MALFORMED
    assert report.op_types_recovered == []


def test_buffer_parse_bad_magic_raises():
    with pytest.raises(BadMagic):
        parse_in_buffer(b"GIF89a")


# -- convert -----------------------------------------------------------------------

def test_convert_succeeds_on_all_fixtures_with_full_weights():
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 3)
        ir = convert(g)
        assert len(ir) == len(g.operators)
        got = sum(w.nbytes for rec in ir for w in rec.weights)
        want = sum(tensor_byte_size(t) for t in g.tensors if t.buffer_index != 0)
        assert got == want


def test_convert_fails_after_rename_alone(lenet):
    public, _, _ = obf(lenet, strategies=frozenset({Strategy.RENAME}))
    with pytest.raises(UnknownOperator) as err:
        convert(public)
    assert NAME_RE.match(err.value.custom_name)


def test_convert_empty_graph(empty_graph):
    assert convert(empty_graph) == []


def test_convert_keeps_attrs(lenet):
    ir = convert(lenet)
    assert ir[0].op == "Conv2D"
    assert ir[0].attrs["stride_w"] == 1
    assert ir[0].attrs["activation"] == "RELU"


# -- recover_weights ------------------------------------------------------------------

def test_recover_weights_original_count(lenet):
    got = recover_weights(lenet)
    assert len(got) == FIXTURE_STATS["lenet"]["constants"]
    assert {shape for shape, _ in got} == {
        (5, 5, 1, 6), (5, 5, 6, 16), (256, 10), (10,)}


def test_recover_weights_empty_after_encapsulation(lenet):
    public, _, _ = obf(lenet, strategies=frozenset(
        {Strategy.RENAME, Strategy.ENCAPSULATE}))
    assert recover_weights(public) == []


def test_recover_weights_exactly_the_declared_constants():
    g = build_fixture("pool_net", 3)
    got = recover_weights(g)
    assert len(got) == 4
    for shape, data in got:
        assert tuple(data.shape) == shape


# -- surrogate matching ------------------------------------------------------------------

def test_exact_zoo_member_is_rank_one_with_score_one():
    zoo = build_default_zoo()
    graphs = [g for _, g in zoo]
    k = next(i for i, (name, _) in enumerate(zoo) if name == "lenet#12")
    ranked = find_surrogate(graphs[k], graphs)
    assert ranked[0][0] == k and ranked[0][1] == 1.0
    assert surrogate_rank(ranked, k) == 1.0


def test_obfuscated_query_does_not_stand_out_of_natural_spread():
    zoo = build_default_zoo()
    lg = [to_labeled_graph(g) for _, g in zoo]
    cross = [propagation_kernel(lg[i], lg[j])
             for (i, (a, _)), (j, (b, _))
             in itertools.combinations(list(enumerate(zoo)), 2)
             if a.split("#")[0] != b.split("#")[0]]
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 11)
        public, _, _ = obf(g, seed=2, n1=20, n2=20)
        sim = propagation_kernel(to_labeled_graph(public), to_labeled_graph(g))
        # similarity to the true original is hidden inside (here: below or
        # within) the range of ordinary model-to-model similarities
        assert sim <= max(cross)


def test_find_surrogate_matches_brute_force_recomputation():
    zoo = build_default_zoo()
    graphs = [g for _, g in zoo]
    query, _, _ = obf(build_fixture("lenet", 11), seed=4, n1=30, n2=30)
    q_lg = to_labeled_graph(query)
    q_stats = weight_stats(query)

    def param_sim(a, b):
        if a.count == 0 and b.count == 0:
            return 1.0
        if a.count == 0 or b.count == 0:
            return 0.0
        def ratio(x, y):
            if x == y:
                return 1.0
            hi, lo = max(x, y), min(x, y)
            return lo / hi if hi else 1.0
        return (ratio(a.count, b.count) + ratio(a.total_bytes, b.total_bytes)
                + ratio(a.l1, b.l1)) / 3.0

    expected = []
    for i, z in enumerate(graphs):
        struct = reference_propagation_kernel(q_lg, to_labeled_graph(z))
        expected.append((i, 0.5 * (struct + param_sim(q_stats, weight_stats(z)))))
    expected.sort(key=lambda p: (-p[1], p[0]))
    assert find_surrogate(query, graphs) == expected


def test_empty_zoo_rejected(lenet):
    with pytest.raises(EmptyZoo):
        find_surrogate(lenet, [])


def test_rank_of_an_index_not_ranked_raises(lenet):
    ranked = find_surrogate(lenet, [lenet])
    with pytest.raises(EmptyZoo, match="^zoo index 1 not present in ranking$"):
        surrogate_rank(ranked, 1)


def test_weightless_models_have_parameter_similarity_one():
    query, zoo = relu_chain(2), [relu_chain(3), relu_chain(2)]
    struct = propagation_kernel(to_labeled_graph(query), to_labeled_graph(zoo[0]))
    assert struct < 1.0
    assert find_surrogate(query, zoo) == [(1, 1.0), (0, 0.5 * (struct + 1.0))]


# -- invariants over the attack matrix ------------------------------------------------------

def test_baseline_row_all_attacks_succeed():
    models = [(f"{n}#11", build_fixture(n, 11)) for n in FIXTURE_NAMES]
    zoo = build_default_zoo()
    rows = {r.label: r for r in attack_matrix(models, zoo, seed=3)}
    base = rows["none"]
    assert (base.convert_successes, base.buffer_successes,
            base.surrogate_successes) == (5, 5, 5)


def test_all_five_row_all_attacks_fail():
    models = [(f"{n}#11", build_fixture(n, 11)) for n in FIXTURE_NAMES]
    zoo = build_default_zoo()
    rows = {r.label: r for r in attack_matrix(models, zoo, seed=3)}
    full = rows["all_five"]
    assert (full.convert_successes, full.buffer_successes,
            full.surrogate_successes) == (0, 0, 0)
    # and the public files hold zero weight bytes
    for _, g in models:
        public, _, _ = obf(g, seed=3, n1=20, n2=20)
        assert parse_in_buffer(serialize_model(public)).weight_bytes == 0


def test_encapsulation_degrades_surrogate_matching_most():
    zoo = build_default_zoo()
    graphs = [g for _, g in zoo]

    def mean_rank(strategies):
        ranks = []
        for name in FIXTURE_NAMES:
            g = build_fixture(name, 11)
            true_idx = next(i for i, (nm, _) in enumerate(zoo)
                            if nm == f"{name}#11")
            public, _, _ = obf(g, seed=6, strategies=strategies)
            ranks.append(surrogate_rank(find_surrogate(public, graphs), true_idx))
        return sum(ranks) / len(ranks)

    encapsulate = mean_rank(frozenset({Strategy.RENAME, Strategy.ENCAPSULATE}))
    rename_only = mean_rank(frozenset({Strategy.RENAME}))
    shape_only = mean_rank(frozenset({Strategy.SHAPE}))
    assert encapsulate >= rename_only
    assert encapsulate >= shape_only
    assert encapsulate > 1.0  # ties with same-structure zoo twins


def test_matrix_rows_cover_the_strategy_taxonomy():
    labels = [label for label, _, _, _ in ATTACK_ROWS]
    assert labels[0] == "none" and labels[-1] == "all_five"
    assert len(labels) == 7
