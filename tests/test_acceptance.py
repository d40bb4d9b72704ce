"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest -v` shows the same verdicts as test outcomes.
"""

import itertools
import statistics
import time
import warnings

import numpy as np
import pytest

from reference_kernel import reference_propagation_kernel
from nnobf.bench import (
    batched_random_inputs,
    compare_outputs,
    latency_overhead,
    peak_bytes_single,
)
from nnobf.bundle import serialize_bundle
from nnobf.errors import UnknownOperator
from nnobf.extractor import (
    build_default_zoo,
    convert,
    find_surrogate,
    parse_in_buffer,
    recover_weights,
    surrogate_rank,
)
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.interpreter import run
from nnobf.model_format import (
    BUILTIN_NAMES,
    dump_json,
    parse_model,
    serialize_model,
)
from nnobf.obfuscator import (
    ObfuscationConfig,
    ShapeStrategy,
    obfuscate,
    plan_to_json,
    reconstruct,
)
from nnobf.similarity import LabeledGraph, propagation_kernel, to_labeled_graph

warnings.filterwarnings("ignore", message="no free shortcut pair")

WEIGHT_SEED = 7
SHAPES = (ShapeStrategy.RANDOM, ShapeStrategy.ALIGN_TO_LARGEST)


def _pass(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE PASS criterion {n}: {msg}")


def _obf(graph, seed, n1, n2, shape=ShapeStrategy.ALIGN_TO_LARGEST,
         strategies=None):
    kw = {} if strategies is None else {"strategies": strategies}
    return obfuscate(graph, ObfuscationConfig(
        seed=seed, n_shortcuts=n1, n_extra_layers=n2, shape_strategy=shape, **kw))


def test_criterion_1_zero_obfuscation_error(tmp_path):
    """5 fixtures x {(0,0),(10,10),(20,20),(30,30)} x 2 shapes x 2 seeds:
    compare over 1000 random inputs returns exactly 0.0; runtime < 5 min."""
    t_start = time.time()
    combos = 0
    for name in FIXTURE_NAMES:
        g = build_fixture(name, WEIGHT_SEED)
        orig_path = tmp_path / f"{name}.nnm1"
        orig_path.write_bytes(serialize_model(g))
        for (n1, n2), shape, seed in itertools.product(
                [(0, 0), (10, 10), (20, 20), (30, 30)], SHAPES, (101, 202)):
            public, bundle, _ = _obf(g, seed, n1, n2, shape)
            model_path = tmp_path / "model.nnm1"
            bundle_path = tmp_path / "bundle.obfb"
            model_path.write_bytes(serialize_model(public))
            bundle_path.write_bytes(serialize_bundle(bundle))
            err = compare_outputs(orig_path, model_path, bundle_path,
                                  n=1000, seed=seed)
            assert err == 0.0, (name, n1, n2, shape, seed, err)
            combos += 1
    elapsed = time.time() - t_start
    assert combos == 80
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s (limit 300s)"
    _pass(1, f"max L2 error is exactly 0.0 over {combos} combos x 1000 inputs "
             f"({elapsed:.0f}s)")


def test_criterion_2_file_obfuscation_metrics():
    """Opcode count == operator count, tensor count == original minus
    constants, and the public bytes leak no names, types, or weights."""
    for name in FIXTURE_NAMES:
        g = build_fixture(name, WEIGHT_SEED)
        n_const = sum(1 for t in g.tensors if t.buffer_index != 0)
        for n1, n2 in [(0, 0), (20, 20)]:
            public, _, _ = _obf(g, 31, n1, n2)
            assert len(public.opcodes) == len(public.operators)
            assert len(public.tensors) == len(g.tensors) - n_const + n2
            blob = serialize_model(public)
            doc = dump_json(public)
            for t in g.tensors:
                assert t.name.encode() not in blob
                assert f'"{t.name}"' not in doc
            for builtin in BUILTIN_NAMES.values():
                assert builtin.encode() not in blob
            for buf in g.buffers[1:]:
                assert buf not in blob
            assert sum(1 for t in public.tensors if t.buffer_index != 0) == 0
    _pass(2, "exact structural equalities hold and public artifacts leak "
             "no names, no type strings, no weight bytes")


def test_criterion_3_structure_similarity_trend():
    """Mean similarity over 5 fixtures x 3 seeds is non-increasing over
    (10,10) -> (20,20) -> (30,30) within 0.02; each < 1.0; self-sim == 1."""
    t_start = time.time()
    means = {}
    for n in (10, 20, 30):
        vals = []
        for name in FIXTURE_NAMES:
            g = build_fixture(name, WEIGHT_SEED)
            base = to_labeled_graph(g)
            assert propagation_kernel(base, base) == pytest.approx(1.0, abs=1e-9)
            for seed in (1, 2, 3):
                public, _, _ = _obf(g, seed, n, n)
                lg = to_labeled_graph(public)
                assert propagation_kernel(lg, lg) == pytest.approx(1.0, abs=1e-9)
                vals.append(propagation_kernel(base, lg))
        means[n] = sum(vals) / len(vals)
    assert means[10] >= means[20] - 0.02
    assert means[20] >= means[30] - 0.02
    assert all(m < 1.0 for m in means.values())
    elapsed = time.time() - t_start
    assert elapsed < 120, f"criterion 3 took {elapsed:.0f}s (limit 120s)"
    _pass(3, f"mean similarity {means[10]:.3f} >= {means[20]:.3f} >= "
             f"{means[30]:.3f} (slack 0.02), all < 1.0, self-sim == 1")


def test_criterion_4_propagation_kernel_oracle():
    """Exact agreement with the brute-force reference on an enumerated
    <=6-node suite plus 100 random small graphs; exact symmetry."""
    seed = 17

    def all_dags(n):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            edges = tuple(p for k, p in enumerate(pairs) if mask >> k & 1)
            deg = [0] * n
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            yield LabeledGraph(n, edges, tuple(min(d, 8) for d in deg))

    def chain(k):
        deg = [min(2, k - 1)] * k
        if k > 1:
            deg[0] = deg[-1] = 1
        return LabeledGraph(k, tuple((i, i + 1) for i in range(k - 1)),
                            tuple(deg))

    suite = list(all_dags(3)) + [chain(k) for k in range(1, 7)]
    checked = 0
    for g1, g2 in itertools.combinations(suite, 2):
        a = propagation_kernel(g1, g2, seed)
        assert a == reference_propagation_kernel(g1, g2, seed)
        assert a == propagation_kernel(g2, g1, seed)
        checked += 1

    rng = np.random.default_rng(99)
    for _ in range(100):
        gs = []
        for _ in range(2):
            n = int(rng.integers(1, 7))
            edges = set()
            for _ in range(int(rng.integers(0, 9))):
                u, v = rng.integers(0, n, size=2)
                if u != v:
                    edges.add((int(u), int(v)))
            labels = tuple(int(x) for x in rng.integers(0, 9, size=n))
            gs.append(LabeledGraph(n, tuple(sorted(edges)), labels))
        a = propagation_kernel(gs[0], gs[1], seed)
        assert a == reference_propagation_kernel(gs[0], gs[1], seed)
        assert a == propagation_kernel(gs[1], gs[0], seed)
        checked += 1
    _pass(4, f"bit-exact oracle agreement and symmetry on {checked} graph pairs")


def test_criterion_5_resilience_matrix():
    """Originals: all three attacks succeed 5/5.  All-five at (20,20):
    conversion fails with UnknownOperator, zero weight bytes recovered,
    rank-1 surrogate identification fails on >= 50% of 20 trials."""
    zoo = build_default_zoo()
    zoo_graphs = [g for _, g in zoo]

    for name in FIXTURE_NAMES:
        g = build_fixture(name, 11)
        ir = convert(g)
        assert len(ir) == len(g.operators)
        assert sum(len(b) for b in g.buffers) == \
            sum(w.nbytes for rec in ir for w in rec.weights)
        report = parse_in_buffer(serialize_model(g))
        assert report.weight_bytes > 0
        assert all(t in BUILTIN_NAMES.values()
                   for t in report.op_types_recovered)
        true_idx = next(i for i, (nm, _) in enumerate(zoo)
                        if nm == f"{name}#11")
        assert surrogate_rank(find_surrogate(g, zoo_graphs), true_idx) == 1.0

    failures = 0
    trials = 0
    for name in FIXTURE_NAMES:
        g = build_fixture(name, 11)
        true_idx = next(i for i, (nm, _) in enumerate(zoo)
                        if nm == f"{name}#11")
        for seed in (1, 2, 3, 4):
            public, _, _ = _obf(g, seed, 20, 20)
            with pytest.raises(UnknownOperator):
                convert(public)
            assert recover_weights(public) == []
            assert parse_in_buffer(serialize_model(public)).weight_bytes == 0
            rank = surrogate_rank(find_surrogate(public, zoo_graphs), true_idx)
            trials += 1
            failures += (rank != 1.0)
    assert trials == 20
    assert failures >= trials / 2
    _pass(5, f"baseline attacks succeed 5/5; at (20,20) conversion fails "
             f"20/20, zero weights recovered, rank-1 identification fails "
             f"{failures}/{trials}")


def test_criterion_6_overhead():
    """Median latency overhead <= 5% at (20,20) and <= 2% at (30,0);
    peak bytes monotone in n2 and <= 35% over original at (20,20)."""
    t_start = time.time()
    over_2020 = []
    over_3000 = []
    for name in FIXTURE_NAMES:
        g = build_fixture(name, WEIGHT_SEED)
        g2020, b2020, _ = _obf(g, 51, 20, 20)
        g3000, b3000, _ = _obf(g, 51, 30, 0)
        over_2020.append(latency_overhead(g, None, g2020, b2020, n=300, reps=3))
        over_3000.append(latency_overhead(g, None, g3000, b3000, n=300, reps=3))

        peaks = []
        for n2 in (0, 10, 20, 30):
            gv, bv, _ = _obf(g, 51, 0, n2)
            peaks.append(peak_bytes_single(gv, bv))
        assert all(a <= b for a, b in zip(peaks, peaks[1:])), (name, peaks)
        peak_orig = peak_bytes_single(g, None)
        peak_2020 = peak_bytes_single(g2020, b2020)
        assert peak_2020 <= 1.35 * peak_orig, (name, peak_orig, peak_2020)

    med_2020 = statistics.median(over_2020)
    med_3000 = statistics.median(over_3000)
    assert med_2020 <= 0.05, f"(20,20) overhead {med_2020:+.2%}"
    assert med_3000 <= 0.02, f"(30,0) overhead {med_3000:+.2%}"
    elapsed = time.time() - t_start
    assert elapsed < 300, f"criterion 6 took {elapsed:.0f}s (limit 300s)"
    _pass(6, f"median latency overhead (20,20) {med_2020:+.2%} <= 5%, "
             f"(30,0) {med_3000:+.2%} <= 2%; peak bytes monotone in n2, "
             f"<= 35% at (20,20) ({elapsed:.0f}s)")


def test_criterion_7_round_trip_and_determinism():
    """serialize/parse is a byte-exact identity on originals and obfuscated
    artifacts; a fixed seed reproduces byte-identical model+bundle+plan."""
    for name in FIXTURE_NAMES:
        g = build_fixture(name, WEIGHT_SEED)
        blob = serialize_model(g)
        assert serialize_model(parse_model(blob)) == blob

        first = _obf(g, 77, 10, 10)
        second = _obf(g, 77, 10, 10)
        model_bytes = serialize_model(first[0])
        assert serialize_model(parse_model(model_bytes)) == model_bytes
        assert model_bytes == serialize_model(second[0])
        assert serialize_bundle(first[1]) == serialize_bundle(second[1])
        assert plan_to_json(first[2]) == plan_to_json(second[2])
        assert serialize_model(_obf(g, 78, 10, 10)[0]) != model_bytes
    _pass(7, "byte-exact round-trips; seeded obfuscation reproduces "
             "byte-identical model+bundle+plan")


def test_criterion_8_reconstruction():
    """reconstruct(obfuscated, plan) executes bit-identically to the
    original on 100 random inputs for every fixture."""
    for name in FIXTURE_NAMES:
        g = build_fixture(name, WEIGHT_SEED)
        public, _, plan = _obf(g, 13, 15, 15)
        rebuilt = reconstruct(public, plan)
        inputs = batched_random_inputs(g, 100, seed=21)
        want, _ = run(g, None, inputs)
        got, _ = run(rebuilt, None, inputs)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    _pass(8, "reconstructed models run bit-identically on 100 inputs "
             "per fixture")
