import base64
import json
import random
import re
import string
import warnings
from dataclasses import replace

import numpy as np
import pytest

from nnobf.bundle import (
    BundleRecord,
    KernelBundle,
    decode_decoy_shape,
    encode_decoy_shape,
    load_bundle,
    serialize_bundle,
)
from nnobf.errors import (
    CycleDetected,
    IndexOutOfRange,
    InvariantViolation,
    MalformedPlan,
    NnobfError,
    PlanMismatch,
)
from nnobf.fixtures import FIXTURE_NAMES, FIXTURE_STATS, build_fixture
from nnobf.interpreter import run
from nnobf.model_format import (
    BUILTIN_NAMES,
    BuiltinOp,
    CUSTOM_SENTINEL,
    DECOY_SENTINEL,
    DType,
    ModelGraph,
    OperatorCode,
    OperatorEntry,
    Tensor,
    dump_json,
    serialize_model,
    validate,
)
from nnobf.obfuscator import (
    ALL_STRATEGIES,
    NameGenerator,
    ObfuscationConfig,
    ObfuscationPlan,
    ShapeStrategy,
    SharedConstantWarning,
    Strategy,
    encapsulate_parameters,
    inject_extra_layers,
    inject_shortcuts,
    obfuscate,
    obfuscate_shapes,
    plan_from_json,
    plan_to_json,
    reconstruct,
    rename,
)
from test_bundle import CORRUPTIONS as BUNDLE_CORRUPTIONS
from test_interpreter import decoy_op, decoy_reader

F = np.float32
NAME_RE = re.compile(r"^[A-Z][a-z]{5}$")


def rand_input(graph, seed=0, batch=1):
    shape = graph.tensors[graph.graph_inputs[0]].shape
    return np.random.default_rng(seed).random((batch, *shape[1:]), dtype=F)


def relu_chain(n_ops, width=4):
    opcodes = (OperatorCode(int(BuiltinOp.RELU)),)
    tensors = [Tensor(f"t{i}", DType.F32, (1, width)) for i in range(n_ops + 1)]
    operators = tuple(OperatorEntry(0, (i,), (i + 1,)) for i in range(n_ops))
    return ModelGraph(opcodes, (b"",), tuple(tensors), operators,
                      (0,), (n_ops,))


def fresh_plan(seed=0, **kw):
    return ObfuscationPlan(ObfuscationConfig(seed=seed, **kw))


# -- config invariants ------------------------------------------------------------

def test_config_requires_rename_for_encapsulate():
    with pytest.raises(InvariantViolation):
        obfuscate(relu_chain(3),
                  ObfuscationConfig(seed=0, strategies=frozenset(
                      {Strategy.ENCAPSULATE})))


def test_config_requires_prereqs_for_injections():
    # a count switches its injection on; a shape-only config with counts of
    # 20 used to drop them silently
    for pre, n1, n2 in (({Strategy.RENAME}, 1, 0), ({Strategy.RENAME}, 0, 1),
                        ({Strategy.SHAPE}, 20, 20)):
        with pytest.raises(InvariantViolation, match="count > 0 requires rename"):
            obfuscate(relu_chain(3), ObfuscationConfig(
                seed=0, n_shortcuts=n1, n_extra_layers=n2, strategies=frozenset(pre)))


@pytest.mark.parametrize("kw", [
    dict(strategies=frozenset({"rename", "encapsulate"})),
    dict(strategies=frozenset({Strategy.RENAME, "shape"})),
    dict(shape_strategy="random"),
    dict(shape_strategy=None),
], ids=["strategy-names", "one-name", "shape-name", "shape-none"])
def test_config_checks_member_types(kw):
    # strategy names once gave back the original graph and an empty bundle;
    # a shape name obfuscated as align, then broke plan_to_json
    with pytest.raises(InvariantViolation, match="expected Strategy members"):
        ObfuscationConfig(seed=0, **kw)


def test_config_is_checked_when_constructed():
    with pytest.raises(InvariantViolation, match="^seed must be an int, got True$"):
        ObfuscationConfig(seed=True)
    with pytest.raises(InvariantViolation, match="counts must be ints >= 0"):
        replace(ObfuscationConfig(seed=0), n_extra_layers=-1)


def test_config_rejects_negative_counts():
    with pytest.raises(InvariantViolation):
        obfuscate(relu_chain(3), ObfuscationConfig(seed=0, n_shortcuts=-1))


def cyclic_graph():
    """Two ADDs that each read the other's output."""
    tensors = tuple(Tensor(n, DType.F32, (4,)) for n in "abc")
    return ModelGraph((OperatorCode(int(BuiltinOp.ADD)),), (b"",), tensors,
                      (OperatorEntry(0, (0, 2), (1,)), OperatorEntry(0, (0, 1), (2,))),
                      (0,), (2,))


@pytest.mark.parametrize("broken, error", [
    (cyclic_graph, CycleDetected),
    (lambda: replace(relu_chain(3), graph_outputs=(99,)), IndexOutOfRange),
], ids=["cycle", "out of range"])
def test_obfuscate_rejects_a_bad_graph_as_serialize_model_does(broken, error):
    with pytest.raises(NnobfError) as want:
        serialize_model(broken())
    with pytest.raises(NnobfError) as got:
        obfuscate(broken(), ObfuscationConfig(seed=0))
    assert type(want.value) is type(got.value) is error
    assert str(want.value) == str(got.value)


# -- rename -----------------------------------------------------------------------

def test_rename_gives_every_operator_a_fresh_custom_opcode(lenet):
    plan = fresh_plan()
    g = rename(lenet, plan, NameGenerator(1))
    assert len(g.opcodes) == len(g.operators) == len(lenet.operators)
    names = [oc.custom_name for oc in g.opcodes]
    assert len(set(names)) == len(names)
    assert all(oc.builtin_code == CUSTOM_SENTINEL for oc in g.opcodes)
    assert all(NAME_RE.match(n) for n in names)
    # two Conv2D layers end up with unrelated names
    conv_names = [names[i] for i, op in enumerate(lenet.operators)
                  if lenet.opcodes[op.opcode_index].builtin_code
                  == int(BuiltinOp.CONV_2D)]
    assert len(conv_names) == 2 and conv_names[0] != conv_names[1]
    # plan remembers the real identity
    assert plan.records[conv_names[0]].real_builtin_code == int(BuiltinOp.CONV_2D)


def test_rename_rejects_an_already_custom_graph(lenet):
    public, _, _ = obfuscate(lenet, ObfuscationConfig(seed=1))
    with pytest.raises(InvariantViolation,
                       match=r"^operators\[0\] already carries a custom opcode"):
        rename(public, fresh_plan(), NameGenerator(1))


def test_rename_replaces_every_tensor_name(lenet):
    g = rename(lenet, fresh_plan(), NameGenerator(1))
    old = {t.name for t in lenet.tensors}
    assert all(t.name not in old and NAME_RE.match(t.name) for t in g.tensors)


def test_rename_deterministic(lenet):
    a = rename(lenet, fresh_plan(), NameGenerator(42))
    b = rename(lenet, fresh_plan(), NameGenerator(42))
    assert a == b


def test_name_generator_never_repeats():
    gen = NameGenerator(0)
    names = [gen.fresh() for _ in range(2000)]
    assert len(set(names)) == 2000
    assert all(NAME_RE.match(n) for n in names)


def choice_names(seed, count):
    """``count`` names as ``NameGenerator`` first drew them, six
    ``random.choice`` calls a name; and the next 32-bit word after them."""
    rng, names = random.Random(seed), []
    while len(names) < count:
        name = (rng.choice(string.ascii_uppercase)
                + "".join(rng.choice(string.ascii_lowercase) for _ in range(5)))
        if name not in names:
            names.append(name)
    return names, rng.getrandbits(32)


def test_name_generator_draws_the_choice_stream():
    # choice over 26 letters rejects a word whose top 5 bits are >= 26
    first_rejected = [s for s in range(200)
                      if random.Random(s).getrandbits(32) >> 27 >= 26]
    assert first_rejected
    for seed in (*range(200), 2**64 - 1):
        gen = NameGenerator(seed)
        names = [gen.fresh() for _ in range(300)]
        assert (names, gen._rng.getrandbits(32)) == choice_names(seed, 300)


def test_rename_scales_one_opcode_per_operator():
    # many operators sharing one builtin code fan out into distinct opcodes
    g = rename(relu_chain(60), fresh_plan(), NameGenerator(3))
    assert len(g.opcodes) == 60
    assert len({oc.custom_name for oc in g.opcodes}) == 60


def test_plan_covers_every_obfuscated_operator(lenet):
    public, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=3, n_shortcuts=4, n_extra_layers=4))
    op_names = [public.opcodes[op.opcode_index].custom_name
                for op in public.operators]
    assert sorted(op_names) == sorted(plan.records)


# -- parameter encapsulation --------------------------------------------------------

def test_encapsulate_drops_constants_from_lenet(lenet):
    import random
    plan = fresh_plan()
    g = rename(lenet, plan, NameGenerator(1))
    g = encapsulate_parameters(g, plan, random.Random(2))
    stats = FIXTURE_STATS["lenet"]
    assert len(g.tensors) == stats["tensors"] - stats["constants"] == 8
    assert all(t.buffer_index == 0 for t in g.tensors)
    assert g.buffers == (b"",)
    assert validate(g) == []
    # operator inputs keep only activations; weights land in the records
    conv0 = g.operators[0]
    rec = plan.records[g.opcodes[conv0.opcode_index].custom_name]
    assert len(conv0.inputs) == 1
    assert rec.true_input_positions == (0,)
    assert len(rec.weights) == 1 and rec.weights[0].shape == (5, 5, 1, 6)
    assert 8 <= len(conv0.options) <= 24


def test_encapsulate_without_constants_keeps_tensor_table():
    import random
    g0 = relu_chain(3)
    plan = fresh_plan()
    g = rename(g0, plan, NameGenerator(1))
    g = encapsulate_parameters(g, plan, random.Random(2))
    assert len(g.tensors) == len(g0.tensors)


def test_encapsulate_warns_on_shared_constant():
    import random
    w = np.ones((1, 4), F)
    graph = ModelGraph(
        opcodes=(OperatorCode(int(BuiltinOp.ADD)),),
        buffers=(b"", w.tobytes()),
        tensors=(Tensor("x", DType.F32, (1, 4)),
                 Tensor("y1", DType.F32, (1, 4)),
                 Tensor("y2", DType.F32, (1, 4)),
                 Tensor("w", DType.F32, (1, 4), buffer_index=1)),
        operators=(OperatorEntry(0, (0, 3), (1,)),
                   OperatorEntry(0, (1, 3), (2,))),
        graph_inputs=(0,), graph_outputs=(2,))
    plan = fresh_plan()
    g = rename(graph, plan, NameGenerator(1))
    with pytest.warns(SharedConstantWarning):
        g = encapsulate_parameters(g, plan, random.Random(2))
    recs = list(plan.records.values())
    assert all(len(r.weights) == 1 for r in recs)
    assert np.array_equal(recs[0].weights[0], recs[1].weights[0])


# -- shape obfuscation ---------------------------------------------------------------

def test_align_to_largest_matches_fig3_pattern():
    import random
    g = relu_chain(2)  # tensor shapes (1,4) each; make them (4), (2), (1)
    tensors = (Tensor("a", DType.F32, (4,)), Tensor("b", DType.F32, (2,)),
               Tensor("c", DType.F32, (1,)))
    g = ModelGraph(g.opcodes, g.buffers, tensors, g.operators, (0,), (2,))
    out = obfuscate_shapes(g, ShapeStrategy.ALIGN_TO_LARGEST, random.Random(0))
    assert out.tensors[0].shape == (4,)   # graph input preserved (and largest)
    assert out.tensors[1].shape == (4,)
    assert out.tensors[2].shape == (4,)


def test_align_single_tensor_graph_unchanged():
    import random
    g = ModelGraph((), (b"",), (Tensor("t", DType.F32, (3,)),), (), (0,), (0,))
    assert obfuscate_shapes(g, ShapeStrategy.ALIGN_TO_LARGEST,
                            random.Random(0)) == g


def test_random_shapes_deterministic_and_bounded(lenet):
    import random
    a = obfuscate_shapes(lenet, ShapeStrategy.RANDOM, random.Random(5))
    b = obfuscate_shapes(lenet, ShapeStrategy.RANDOM, random.Random(5))
    assert a == b
    inputs = set(lenet.graph_inputs)
    for i, (old, new) in enumerate(zip(lenet.tensors, a.tensors)):
        if i in inputs or old.buffer_index != 0:
            assert new.shape == old.shape
        else:
            assert len(new.shape) == len(old.shape)
            assert all(1 <= d <= 64 for d in new.shape)


def test_shape_only_config_still_runs(lenet):
    config = ObfuscationConfig(seed=3, strategies=frozenset({Strategy.SHAPE}))
    public, bundle, _ = obfuscate(lenet, config)
    assert len(bundle.records) == 0
    x = rand_input(lenet, 1)
    want, _ = run(lenet, None, [x])
    got, _ = run(public, None, [x])
    assert np.array_equal(want[0], got[0])


# -- shortcut injection ---------------------------------------------------------------

def test_shortcuts_append_producer_outputs():
    import random
    g0 = relu_chain(10)
    plan = fresh_plan()
    g = inject_shortcuts(g0, 3, random.Random(1), plan)
    assert len(plan.injected_shortcuts) == 3
    extra = 0
    for a, b in plan.injected_shortcuts:
        assert a < b
        assert g.operators[a].outputs[0] in g.operators[b].inputs[1:]
        extra += 1
    total0 = sum(len(op.inputs) for op in g0.operators)
    assert sum(len(op.inputs) for op in g.operators) == total0 + extra
    assert validate(g) == []


def test_shortcut_zero_is_identity(lenet):
    import random
    assert inject_shortcuts(lenet, 0, random.Random(1), fresh_plan()) == lenet


def test_chain_with_three_shortcuts_runs_bit_exact():
    g0 = relu_chain(10)
    config = ObfuscationConfig(seed=4, n_shortcuts=3)
    public, bundle, plan = obfuscate(g0, config)
    assert len(plan.injected_shortcuts) == 3
    x = rand_input(g0, 2)
    want, _ = run(g0, None, [x])
    got, _ = run(public, bundle, [x])
    assert np.array_equal(want[0], got[0])


def test_a_one_operator_graph_takes_no_injection():
    g, plan = relu_chain(1), fresh_plan()
    with pytest.warns(UserWarning, match="^graph has fewer than 2 operators; "
                                         "no shortcuts injected$"):
        assert inject_shortcuts(g, 2, random.Random(0), plan) is g
    with pytest.warns(UserWarning, match="^graph has fewer than 2 operators; "
                                         "no extra layers injected$"):
        assert inject_extra_layers(g, 2, random.Random(0), plan, NameGenerator(0)) is g
    assert plan == fresh_plan()


def test_shortcut_saturation_warns():
    import random
    g = relu_chain(2)  # only one admissible pair, already wired
    with pytest.warns(UserWarning, match="no free shortcut pair"):
        inject_shortcuts(g, 3, random.Random(1), fresh_plan())


def hundred_draw_inject_shortcuts(graph, n1, rng, plan):
    """The shortcut pass before its saturation stop: every shortcut draws up
    to 100 pairs, even when no free pair is left."""
    n_ops = len(graph.operators)
    if n_ops < 2:
        if n1 > 0:
            warnings.warn("graph has fewer than 2 operators; no shortcuts injected")
        return graph
    inputs = [list(op.inputs) for op in graph.operators]
    for _ in range(n1):
        for _attempt in range(100):
            a, b = sorted(rng.sample(range(n_ops), 2))
            out = graph.operators[a].outputs[0]
            if out in inputs[b]:
                continue
            inputs[b].append(out)
            plan.injected_shortcuts.append((a, b))
            break
        else:
            warnings.warn("no free shortcut pair found after 100 draws; skipped")
    operators = tuple(op._replace(inputs=tuple(ins))
                      for op, ins in zip(graph.operators, inputs))
    return replace(graph, operators=operators)


def _shortcut_pass(fn, graph, n1, seed):
    plan = fresh_plan()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(graph, n1, random.Random(seed), plan)
    warned = sum(str(w.message).startswith("no free shortcut pair")
                 for w in caught)
    return out, plan.injected_shortcuts, warned


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_shortcuts_match_hundred_draw_loop(name):
    # the graph as obfuscate() hands it to the shortcut pass
    pre = frozenset({Strategy.RENAME, Strategy.ENCAPSULATE, Strategy.SHAPE})
    graph, _, _ = obfuscate(build_fixture(name, 0),
                            ObfuscationConfig(seed=1, strategies=pre))
    saturated = False
    for n1 in (0, 3, 30, 100):
        for seed in range(3):
            got = _shortcut_pass(inject_shortcuts, graph, n1, seed)
            want = _shortcut_pass(hundred_draw_inject_shortcuts, graph, n1, seed)
            assert got == want
            saturated |= got[2] > 0
    assert saturated


def free_shortcut_pairs(graph):
    ops = graph.operators
    return [(a, b) for a in range(len(ops)) for b in range(a + 1, len(ops))
            if ops[a].outputs[0] not in ops[b].inputs]


@pytest.mark.parametrize("n_ops", [20, 60])
def test_shortcuts_fill_every_free_pair(n_ops):
    graph = relu_chain(n_ops)
    free = free_shortcut_pairs(graph)
    assert len(free) == n_ops * (n_ops - 1) // 2 - (n_ops - 1)
    for seed in range(3):
        out, injected, warned = _shortcut_pass(inject_shortcuts, graph, len(free), seed)
        assert sorted(injected) == free and warned == 0
        assert free_shortcut_pairs(out) == []
        out, injected, warned = _shortcut_pass(inject_shortcuts, graph, len(free) + 3, seed)
        assert sorted(injected) == free and warned == 3


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_shortcuts_fill_every_free_pair(name):
    # the graph as obfuscate() hands it to the shortcut pass; with a draw
    # budget of 100 per shortcut, 1 to 11 of these 200 seeds fell short on
    # every fixture but mlp
    pre = frozenset({Strategy.RENAME, Strategy.ENCAPSULATE, Strategy.SHAPE})
    graph, _, _ = obfuscate(build_fixture(name, 0),
                            ObfuscationConfig(seed=1, strategies=pre))
    free = free_shortcut_pairs(graph)
    for seed in range(200):
        out, injected, warned = _shortcut_pass(inject_shortcuts, graph, len(free), seed)
        assert (sorted(injected), warned) == (free, 0), seed


# -- extra layer injection --------------------------------------------------------------

def test_extra_layers_shape_and_wiring(lenet):
    config = ObfuscationConfig(seed=6, n_shortcuts=0, n_extra_layers=5)
    public, bundle, plan = obfuscate(lenet, config)
    assert len(public.operators) == len(lenet.operators) + 5 == 12
    assert len(plan.injected_layers) == 5
    decoys = {name for name, rec in plan.records.items() if rec.is_decoy}
    assert len(decoys) == 5
    for pos, shape in plan.injected_layers:
        op = public.operators[pos]
        name = public.opcodes[op.opcode_index].custom_name
        assert name in decoys
        assert decode_decoy_shape(plan.records[name].real_options) == shape
        assert len(shape) == 2 and all(1 <= d <= 8 for d in shape)
        # the decoy's output feeds some later operator's declared inputs
        decoy_out = op.outputs[0]
        consumers = [q for q in public.operators[pos + 1:]
                     if decoy_out in q.inputs]
        assert consumers
    assert validate(public) == []
    x = rand_input(lenet, 7)
    want, _ = run(lenet, None, [x])
    got, _ = run(public, bundle, [x])
    assert np.array_equal(want[0], got[0])


def insert_and_shift_inject_extra_layers(graph, n2, rng, plan, names):
    """The extra-layer pass as first written: each decoy is inserted into the
    operator list, and every operator index after it is shifted, in the
    list and in both injection logs."""
    if len(graph.operators) < 2:
        if n2 > 0:
            warnings.warn("graph has fewer than 2 operators; no extra layers injected")
        return graph
    opcodes = list(graph.opcodes)
    tensors = list(graph.tensors)
    operators = [[op.opcode_index, list(op.inputs), list(op.outputs),
                  op.options] for op in graph.operators]
    real_pos = list(range(len(operators)))
    for _ in range(n2):
        ai, bi = sorted(rng.sample(range(len(real_pos)), 2))
        r1 = real_pos[ai]
        op_name = names.fresh()
        tensor_name = names.fresh()
        shape = (rng.randint(1, 8), rng.randint(1, 8))
        tensors.append(Tensor(tensor_name, DType.F32, shape, 0))
        t_idx = len(tensors) - 1
        opcodes.append(OperatorCode(CUSTOM_SENTINEL, op_name))
        options = rng.randbytes(rng.randint(8, 24))
        insert_pos = r1 + 1
        operators.insert(insert_pos, [len(opcodes) - 1, [operators[r1][2][0]],
                                      [t_idx], options])
        real_pos = [p + 1 if p >= insert_pos else p for p in real_pos]
        plan.injected_shortcuts = [
            (i + 1 if i >= insert_pos else i, j + 1 if j >= insert_pos else j)
            for i, j in plan.injected_shortcuts]
        plan.injected_layers = [(i + 1 if i >= insert_pos else i, s)
                                for i, s in plan.injected_layers]
        operators[real_pos[bi]][1].append(t_idx)
        plan.injected_layers.append((insert_pos, shape))
        plan.records[op_name] = BundleRecord(
            DECOY_SENTINEL, encode_decoy_shape(shape), (), ())
    frozen = tuple(OperatorEntry(oc, tuple(ins), tuple(outs), opts)
                   for oc, ins, outs, opts in operators)
    return replace(graph, opcodes=tuple(opcodes), tensors=tuple(tensors),
                   operators=frozen)


@pytest.mark.parametrize("name", ["relu_chain", *FIXTURE_NAMES])
def test_extra_layers_match_insert_and_shift_loop(name):
    graph = relu_chain(60) if name == "relu_chain" else build_fixture(name, 0)
    # the graph and plan as obfuscate() hands them to the extra-layer pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # saturated shortcuts
        graph, _, before = obfuscate(graph, ObfuscationConfig(seed=1, n_shortcuts=20))
    assert before.injected_shortcuts
    for n2 in (1, 30, 300):
        got = []
        for inject in (inject_extra_layers, insert_and_shift_inject_extra_layers):
            plan = ObfuscationPlan(before.config, dict(before.records),
                                   list(before.injected_shortcuts))
            out = inject(graph, n2, random.Random(n2), plan, NameGenerator(n2))
            got.append((out, plan.injected_shortcuts, plan.injected_layers,
                        list(plan.records.items())))
        assert got[0] == got[1]


def test_extra_layer_zero_is_identity(lenet):
    import random
    g = inject_extra_layers(lenet, 0, random.Random(1), fresh_plan(),
                            NameGenerator(1))
    assert g == lenet


# -- full pipeline -----------------------------------------------------------------------

def test_obfuscate_rename_only_counts(lenet):
    config = ObfuscationConfig(seed=2, strategies=frozenset({Strategy.RENAME}))
    public, _, _ = obfuscate(lenet, config)
    assert len(public.tensors) == len(lenet.tensors)
    assert len(public.opcodes) == len(public.operators)


def test_obfuscate_deterministic_artifacts(lenet):
    config = ObfuscationConfig(seed=11, n_shortcuts=4, n_extra_layers=4)
    g1, b1, p1 = obfuscate(lenet, config)
    g2, b2, p2 = obfuscate(lenet, config)
    assert serialize_model(g1) == serialize_model(g2)
    assert serialize_bundle(b1) == serialize_bundle(b2)
    assert plan_to_json(p1) == plan_to_json(p2)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("shape", [ShapeStrategy.RANDOM,
                                   ShapeStrategy.ALIGN_TO_LARGEST])
def test_equivalence_all_fixtures(name, shape):
    g = build_fixture(name, 3)
    config = ObfuscationConfig(seed=1, n_shortcuts=10, n_extra_layers=10,
                               shape_strategy=shape)
    public, bundle, _ = obfuscate(g, config)
    x = rand_input(g, 13, batch=8)
    want, _ = run(g, None, [x])
    got, _ = run(public, bundle, [x])
    assert np.array_equal(want[0], got[0])


def test_public_artifacts_leak_nothing(all_fixtures):
    for name, g in all_fixtures.items():
        config = ObfuscationConfig(seed=8, n_shortcuts=10, n_extra_layers=10)
        public, _, _ = obfuscate(g, config)
        blob = serialize_model(public)
        doc = dump_json(public)
        for t in g.tensors:
            assert t.name.encode() not in blob
            assert f'"{t.name}"' not in doc
        for builtin in BUILTIN_NAMES.values():
            assert builtin.encode() not in blob
            assert f'"{builtin}Options"' not in doc
        for buf in g.buffers[1:]:
            assert buf not in blob
        assert "builtin_options" not in doc
        parsed = json.loads(doc)
        assert all("custom_code" in oc for oc in parsed["operator_codes"])


def test_structural_growth(all_fixtures):
    for name, g in all_fixtures.items():
        n1, n2 = (5, 6) if name != "mlp" else (2, 6)  # mlp is tiny
        config = ObfuscationConfig(seed=3, n_shortcuts=n1, n_extra_layers=n2)
        public, _, plan = obfuscate(g, config)
        assert len(public.operators) == len(g.operators) + n2
        assert len(public.opcodes) == len(public.operators)
        assert len(plan.injected_shortcuts) == n1
        # declared input entries across surviving ops grow by n1 + n2
        true_entries = sum(
            sum(1 for t in op.inputs if not g.is_constant(t))
            for op in g.operators)
        decoy_ops = {pos for pos, _ in plan.injected_layers}
        surviving = sum(len(op.inputs) for i, op in enumerate(public.operators)
                        if i not in decoy_ops)
        assert surviving == true_entries + n1 + n2


# -- bundle emission ------------------------------------------------------------------------

def test_empty_plan_emits_header_only_bundle():
    blob = serialize_bundle(KernelBundle(fresh_plan().records))
    assert len(blob) == 12  # magic + version + zero records
    assert load_bundle(blob).records == {}


def test_bundle_record_count_matches_operator_count(lenet):
    public, bundle, plan = obfuscate(
        lenet, ObfuscationConfig(seed=1, n_shortcuts=3, n_extra_layers=3))
    assert len(bundle.records) == len(public.operators)
    assert load_bundle(serialize_bundle(bundle)) == bundle


# -- plan persistence -------------------------------------------------------------------------

def test_plan_json_round_trip(lenet):
    _, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=2, n_extra_layers=2))
    loaded = plan_from_json(plan_to_json(plan))
    assert loaded.config == plan.config
    assert loaded.records == plan.records
    assert loaded.shapes == plan.shapes
    assert list(json.loads(plan_to_json(plan))) == [  # what reconstruct reads
        "warning", "format", "version", "config", "shapes", "bundle"]


def injection_log(public, records):
    """The injection logs as the public model and the plan's records hold
    them: ``(position, shape)`` per decoy record, and ``(producer, consumer)``
    per declared input that is neither a true input nor a decoy's output."""
    kinds = [records[public.op_kind(op).custom_name] for op in public.operators]
    layers = [(s, decode_decoy_shape(rec.real_options))
              for s, rec in enumerate(kinds) if rec.is_decoy]
    producer = {op.outputs[0]: s for s, op in enumerate(public.operators)}
    decoy_outputs = {public.operators[s].outputs[0] for s, _ in layers}
    shortcuts = [(producer[t], s)
                 for s, (op, rec) in enumerate(zip(public.operators, kinds))
                 if not rec.is_decoy for p, t in enumerate(op.inputs)
                 if p not in rec.true_input_positions and t not in decoy_outputs]
    return sorted(shortcuts), sorted(layers)


@pytest.mark.parametrize("strategy", ShapeStrategy)
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_plan_file_loses_no_injection_fact(name, strategy):
    # the v4 file drops the injection logs: the records and the public model
    # still give back both, as obfuscate logged them
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mlp has fewer than 20 free pairs
        public, _, plan = obfuscate(build_fixture(name, 0), ObfuscationConfig(
            seed=1, n_shortcuts=20, n_extra_layers=20, shape_strategy=strategy))
    assert plan.injected_shortcuts and len(plan.injected_layers) == 20
    loaded = plan_from_json(plan_to_json(plan))
    assert (loaded.injected_shortcuts, loaded.injected_layers) == ([], [])
    assert injection_log(public, loaded.records) == (
        sorted(plan.injected_shortcuts), sorted(plan.injected_layers))


def test_negative_seed_is_refused(lenet):
    # random.Random seeds by absolute value, so -3 would repeat seed 3's bytes
    with pytest.raises(InvariantViolation, match="^seed must be >= 0, got -3$"):
        ObfuscationConfig(seed=-3)
    _, _, plan = obfuscate(lenet, ObfuscationConfig(seed=3))
    text = plan_to_json(plan)
    assert plan_from_json(text).config.seed == 3
    with pytest.raises(MalformedPlan, match="seed must be >= 0"):
        plan_from_json(text.replace('"seed": 3,', '"seed": -3,'))


def test_plan_json_carries_warning_banner(lenet):
    _, _, plan = obfuscate(lenet, ObfuscationConfig(seed=5))
    doc = json.loads(plan_to_json(plan))
    assert "never distribute" in doc["warning"].lower()


def test_plan_json_is_compact(lenet):
    _, _, plan = obfuscate(lenet, ObfuscationConfig(seed=5))
    assert "\n" not in plan_to_json(plan)


def _drop_config_seed(doc):
    del doc["config"]["seed"]


def _bad_strategy(doc):
    doc["config"]["strategies"].append("teleport")


def _bad_base64(doc):
    doc["bundle"] = "@@" + doc["bundle"]


def _bundle_not_string(doc):
    doc["bundle"] = 7


def _drop_shapes(doc):
    del doc["shapes"]


def _shape_not_list(doc):
    doc["shapes"][1] = 7


def _zero_dim(doc):
    doc["shapes"][1][0] = 0


def _bool_dim(doc):
    doc["shapes"][1][0] = True


def _float_dim(doc):
    doc["shapes"][1][0] = 1.0


def _config_set(key, value):
    """Set a config field to a value ``obfuscate`` never writes."""
    def apply(doc):
        doc["config"][key] = value
    apply.__name__ = f"_config_{key}_{value!r}"
    return apply


def _on_bundle(corrupt):
    """Apply a byte-level bundle corruption to the plan's embedded blob."""
    def apply(doc):
        blob = corrupt(base64.b64decode(doc["bundle"]))
        doc["bundle"] = base64.b64encode(blob).decode()
    apply.__name__ = "_" + corrupt.__name__
    return apply


@pytest.mark.parametrize(
    "corrupt",
    [_drop_config_seed, _bad_strategy, _bad_base64, _bundle_not_string,
     _drop_shapes, _shape_not_list, _zero_dim, _bool_dim, _float_dim]
    + [_config_set("seed", v) for v in ("x", True, 1.5)]
    + [_config_set("n_shortcuts", -5), _config_set("n_extra_layers", "lots"),
       _config_set("strategies", ["encapsulate"]),
       _config_set("strategies", {"rename": 1})]
    + [_on_bundle(c) for c in BUNDLE_CORRUPTIONS],
    ids=lambda f: f.__name__)
def test_malformed_plan_doc_raises(lenet, corrupt):
    _, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=2, n_extra_layers=2))
    doc = json.loads(plan_to_json(plan))
    corrupt(doc)
    with pytest.raises(MalformedPlan):
        plan_from_json(json.dumps(doc))


def _old_plans():
    """Plans as versions 2 (no shapes), 3 (v4 plus the injection logs) and 4
    (v5 with the injection flags among the strategies) wrote them, a v3 plan
    labelled v2 and a v5 plan labelled v4."""
    _, _, plan = obfuscate(build_fixture("mlp", 0), ObfuscationConfig(seed=5))
    v5 = json.loads(plan_to_json(plan))
    v4 = {**v5, "version": 4, "config": {**v5["config"], "strategies": [
        *v5["config"]["strategies"], "shortcut", "extra_layer"]}}
    v3 = {**v4, "version": 3,
          "injected_shortcuts": plan.injected_shortcuts,
          "injected_layers": plan.injected_layers}
    v2 = {k: v3[k] for k in ("warning", "format", "config", "bundle",
                             "injected_shortcuts", "injected_layers")}
    return [pytest.param(json.dumps({**v2, "version": 2}), id="version-2-plan"),
            pytest.param(json.dumps({**v3, "version": 2}), id="version-3-labelled-2"),
            pytest.param(json.dumps(v3), id="version-3-plan"),
            pytest.param(json.dumps(v4), id="version-4-plan"),
            pytest.param(plan_to_json(plan).replace('"version": 5', '"version": 4'),
                         id="version-5-labelled-4")]


@pytest.mark.parametrize("text", [
    "", "{", "not json", "[]", "null", '{"format": "nnobf-plan"}',
    '{"format": "nnobf-plan", "version": 2}', "[" * 100_000,
    *_old_plans(),
])
def test_malformed_plan_text_raises(text):
    with pytest.raises(MalformedPlan):
        plan_from_json(text)


def _split_plan_texts():
    """A (20, 20) lenet plan as ``plan_to_json`` writes it, rewritten in ways
    ``json.loads`` accepts but the split reader rejects."""
    _, _, plan = obfuscate(build_fixture("lenet", 0), ObfuscationConfig(
        seed=5, n_shortcuts=20, n_extra_layers=20))
    text = plan_to_json(plan)
    head, bundle = text.split(', "bundle": "')
    assert "/" in bundle and text.endswith('"}')
    return [
        pytest.param(json.dumps(json.loads(text), separators=(",", ":")),
                     id="no-marker"),
        pytest.param(text[:-1] + ', "extra": 1}', id="bundle-not-last"),
        pytest.param(text + "\n", id="text-after-the-bundle"),
        pytest.param(head + ', "bundle": "' + bundle.replace("/", "\\/"),
                     id="json-escaped-bundle")]


@pytest.mark.parametrize("text", _split_plan_texts())
def test_plan_reader_rejects_what_its_split_cannot_read(text):
    assert json.loads(text)["bundle"]  # valid JSON with a bundle string
    with pytest.raises(MalformedPlan):
        plan_from_json(text)


# -- reconstruction ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reconstruct_runs_bit_identically(name):
    g = build_fixture(name, 9)
    public, _, plan = obfuscate(
        g, ObfuscationConfig(seed=2, n_shortcuts=6, n_extra_layers=6))
    rebuilt = reconstruct(public, plan)
    x = rand_input(g, 21, batch=4)
    want, _ = run(g, None, [x])
    got, _ = run(rebuilt, None, [x])
    assert np.array_equal(want[0], got[0])


def _normalized_dump(graph):
    doc = json.loads(dump_json(graph))
    for i, t in enumerate(doc["tensors"]):
        t["name"] = f"t{i}"
    return doc


def test_reconstruct_dump_matches_up_to_tensor_naming(all_fixtures):
    for g in all_fixtures.values():
        for strategy in ShapeStrategy:
            for n in (0, 20):
                public, _, plan = obfuscate(g, ObfuscationConfig(4, n, n, strategy))
                rebuilt = reconstruct(public, plan_from_json(plan_to_json(plan)))
                assert _normalized_dump(rebuilt) == _normalized_dump(g)
                assert rebuilt.buffers == g.buffers


def test_reconstruct_runs_no_inference(all_fixtures, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("reconstruct ran the model")

    cases = [(g, obfuscate(g, ObfuscationConfig(3, 5, 5, strategy)))
             for g in all_fixtures.values() for strategy in ShapeStrategy]
    monkeypatch.setattr("nnobf.interpreter.run", no_run)
    for g, (public, _, plan) in cases:
        assert _normalized_dump(reconstruct(public, plan)) == _normalized_dump(g)


@pytest.mark.parametrize("renamed", [True, False])
def test_reconstruct_rejects_an_operator_without_one_output(renamed):
    # operator 3 of lenet (seed 5) declaring no output: the input graph is
    # checked before the operator walk could index its empty output list
    strategies, n = (ALL_STRATEGIES, 20) if renamed else (frozenset({Strategy.SHAPE}), 0)
    public, _, plan = obfuscate(build_fixture("lenet", 5), ObfuscationConfig(
        seed=1, n_shortcuts=n, n_extra_layers=n, strategies=strategies))
    ops = list(public.operators)
    ops[3] = ops[3]._replace(outputs=())
    with pytest.raises(PlanMismatch, match=r"invalid: operators\[3\]\.outputs"):
        reconstruct(replace(public, operators=tuple(ops)), plan)


@pytest.mark.parametrize("change", [-1, 1])
def test_reconstruct_rejects_a_wrong_shape_count(lenet, change):
    public, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=5, n_extra_layers=5))
    plan.shapes = plan.shapes[:-1] if change < 0 else [*plan.shapes, (1, 2)]
    with pytest.raises(PlanMismatch, match="tensor shapes"):
        reconstruct(public, plan)


@pytest.mark.parametrize("renamed", [True, False])
def test_reconstruct_rejects_a_plan_that_disagrees_on_renaming(lenet, renamed):
    # a fully obfuscated graph with a shape-only plan, or the original with
    # a full plan
    public, _, full = obfuscate(lenet, ObfuscationConfig(seed=1))
    _, _, shape_only = obfuscate(lenet, ObfuscationConfig(
        seed=1, strategies=frozenset({Strategy.SHAPE})))
    graph, plan = (public, shape_only) if renamed else (lenet, full)
    with pytest.raises(PlanMismatch, match=rf"^operators\[0\] is "
                       rf"{'' if renamed else 'not '}custom but the plan"):
        reconstruct(graph, plan)


def test_reconstruct_rejects_foreign_plan(lenet):
    public, _, _ = obfuscate(lenet, ObfuscationConfig(seed=1))
    _, _, other_plan = obfuscate(lenet, ObfuscationConfig(seed=2))
    with pytest.raises(PlanMismatch):
        reconstruct(public, other_plan)


@pytest.mark.parametrize("fault", ["position past inputs", "decoy read", "no record",
                                   "decoy graph output"])
def test_reconstruct_rejects_a_plan_that_does_not_fit(lenet, fault):
    public, _, plan = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=5, n_extra_layers=5))
    name, pos = decoy_reader(public, plan.records)
    rec = plan.records[name]
    if fault == "no record":
        del plan.records[name]
    elif fault == "decoy graph output":  # the model is the tampered part
        public = replace(public, graph_outputs=decoy_op(public, plan).outputs)
    else:
        first = 99 if fault == "position past inputs" else pos
        plan.records[name] = replace(
            rec, true_input_positions=(first, *rec.true_input_positions[1:]))
    with pytest.raises(PlanMismatch):
        reconstruct(public, plan_from_json(plan_to_json(plan)))


def test_identity_config_is_identity(lenet):
    config = ObfuscationConfig(seed=1, strategies=frozenset())
    public, bundle, plan = obfuscate(lenet, config)
    assert public == lenet
    assert bundle.records == {}
    assert reconstruct(public, plan) == lenet
