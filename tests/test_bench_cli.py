import argparse
import json
import re
import runpy
import sys
from dataclasses import replace

import numpy as np
import pytest

from nnobf.bench import (
    bench,
    batched_random_inputs,
    compare_graphs,
    compare_outputs,
    records_to_csv,
)
from nnobf.bundle import serialize_bundle
from nnobf.cli import build_parser, cli_dispatch, main
from nnobf.errors import BadMagic, InvariantViolation, TruncatedSection
from nnobf.fixtures import build_fixture
from nnobf.interpreter import run
from nnobf.model_format import parse_model, serialize_model
from nnobf.obfuscator import ALL_STRATEGIES, ObfuscationConfig, Strategy, obfuscate
from nnobf.tensor_io import read_tensor, write_tensor

F = np.float32


def write_model(tmp_path, name, seed=7):
    g = build_fixture(name, seed)
    p = tmp_path / f"{name}.nnm1"
    p.write_bytes(serialize_model(g))
    return g, p


# -- compare --------------------------------------------------------------------

def test_compare_fixture_vs_obfuscation_is_exactly_zero(tmp_path, lenet):
    public, bundle, _ = obfuscate(
        lenet, ObfuscationConfig(seed=1, n_shortcuts=10, n_extra_layers=10))
    assert compare_graphs(lenet, public, bundle, n=64, seed=3) == 0.0


def test_compare_model_vs_itself_is_zero(lenet):
    assert compare_graphs(lenet, lenet, None, n=16, seed=0) == 0.0


def test_compare_detects_single_weight_perturbation(lenet):
    # flip one float in the dense weights; softmax output must move
    idx = next(i for i, t in enumerate(lenet.tensors)
               if t.buffer_index != 0 and t.shape == (256, 10))
    b = lenet.tensors[idx].buffer_index
    weights = np.frombuffer(lenet.buffers[b], dtype=F).copy()
    weights[0] += F(0.25)
    buffers = lenet.buffers[:b] + (weights.tobytes(),) + lenet.buffers[b + 1:]
    perturbed = replace(lenet, buffers=buffers)
    assert compare_graphs(lenet, perturbed, None, n=16, seed=0) > 0.0


def test_compare_outputs_via_files(tmp_path, lenet):
    orig = tmp_path / "lenet.nnm1"
    orig.write_bytes(serialize_model(lenet))
    public, bundle, plan = obfuscate(lenet, ObfuscationConfig(seed=2))
    obf_p = tmp_path / "obf.nnm1"
    obf_p.write_bytes(serialize_model(public))
    bun_p = tmp_path / "b.obfb"
    bun_p.write_bytes(serialize_bundle(bundle))
    assert compare_outputs(orig, obf_p, bun_p, n=32, seed=1) == 0.0


# -- bench ----------------------------------------------------------------------

def test_bench_sweep_row_count_and_csv(tmp_path):
    _, path = write_model(tmp_path, "mlp")
    records = bench(path, None, configs=[(0, 0), (2, 2)], n=20, seed=0,
                    include_original=True, reps=1)
    assert len(records) == 3
    csv = records_to_csv(records)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("model,n1,n2,shape,strategies,latency")
    assert len(lines) == 4
    base, plain, obf22 = records
    assert base.strategies == "none" and base.bundle_bytes == 0
    assert obf22.n1 == 2 and obf22.n2 == 2
    assert obf22.bundle_bytes > 0
    assert obf22.peak_bytes > plain.peak_bytes  # decoys add output bytes
    assert all(r.latency_s_per_1000 > 0 for r in records)
    assert plain.model_file_bytes < base.model_file_bytes  # constants gone


def test_bench_reports_achieved_injection_counts(tmp_path):
    # mlp has too few free operator pairs for 20 shortcuts
    _, path = write_model(tmp_path, "mlp")
    base, obf = bench(path, None, configs=[(20, 20)], n=4, seed=1,
                      include_original=True, reps=1)
    assert (base.shortcuts, base.extra_layers) == (0, 0)
    assert obf.shortcuts < obf.n1 == 20
    assert obf.extra_layers == obf.n2 == 20
    lines = records_to_csv([base, obf]).strip().split("\n")
    assert lines[0].endswith(",bundle_bytes,shortcuts,extra_layers")
    assert lines[1].endswith(",0,0")
    assert lines[2].endswith(f",{obf.shortcuts},20")


def test_batched_random_inputs_deterministic(lenet):
    a = batched_random_inputs(lenet, 4, 9)
    b = batched_random_inputs(lenet, 4, 9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_bench_sweep_shape_over_all_fixtures(tmp_path):
    from nnobf.fixtures import FIXTURE_NAMES
    sweep = [(0, 0), (10, 0), (0, 10), (20, 20), (0, 30)]
    rows = []
    for name in FIXTURE_NAMES:
        _, path = write_model(tmp_path, name)
        rows.extend(bench(path, None, configs=sweep, n=4, seed=0, reps=1))
    assert len(rows) == len(FIXTURE_NAMES) * 5
    csv = records_to_csv(rows)
    assert len(csv.strip().split("\n")) == 1 + len(rows)


# -- tensor files ------------------------------------------------------------------

def test_tensor_file_round_trip(tmp_path):
    for arr in [np.arange(12, dtype=F).reshape(3, 4),
                np.arange(8, dtype=np.int32),
                np.arange(24, dtype=np.uint8).reshape(2, 3, 4)]:
        p = tmp_path / "t.nnt1"
        write_tensor(p, arr)
        back = read_tensor(p)
        assert back.dtype == arr.dtype and np.array_equal(back, arr)


def test_tensor_file_bad_magic(tmp_path):
    p = tmp_path / "bad.nnt1"
    p.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(BadMagic):
        read_tensor(p)


def test_tensor_file_unknown_dtype(tmp_path):
    p = tmp_path / "t.nnt1"
    write_tensor(p, np.arange(4, dtype=np.uint8))
    data = bytearray(p.read_bytes())
    data[4] = 9  # the dtype byte
    p.write_bytes(bytes(data))
    with pytest.raises(InvariantViolation):
        read_tensor(p)


@pytest.mark.parametrize("array, message", [
    (np.zeros(2), "unsupported tensor dtype float64"),
    (np.zeros((1,) * 5, dtype=F), "tensor rank 5 exceeds 4"),
], ids=["float64", "rank 5"])
def test_tensor_file_write_rejects(tmp_path, array, message):
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        write_tensor(tmp_path / "t.nnt1", array)
    assert not (tmp_path / "t.nnt1").exists()


@pytest.mark.parametrize("damage, error, message", [
    (lambda data: data[:23], TruncatedSection, "tensor header needs 24 bytes"),
    (lambda data: data[:5] + b"\x05" + data[6:], InvariantViolation,
     "tensor rank 5 exceeds 4"),
    (lambda data: data[:12] + b"\x05" + data[13:], InvariantViolation,
     "rank-1 tensor has nonzero unused dims (4, 5, 0, 0)"),
    (lambda data: data[:-1], TruncatedSection,
     "tensor payload is 15 bytes, header implies 16"),
], ids=["short header", "rank 5", "stray dim", "short payload"])
def test_tensor_file_read_rejects(tmp_path, damage, error, message):
    p = tmp_path / "t.nnt1"
    write_tensor(p, np.arange(4, dtype=F))
    p.write_bytes(damage(p.read_bytes()))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read_tensor(p)


# -- CLI ------------------------------------------------------------------------------

def test_cli_full_pipeline(tmp_path, capsys):
    g, model = write_model(tmp_path, "lenet")
    out = tmp_path / "obf"
    assert cli_dispatch(["obfuscate", str(model), "-o", str(out),
                         "--seed", "3", "--n1", "4", "--n2", "4"]) == 0
    assert (out / "model.nnm1").exists()
    assert (out / "bundle.obfb").exists()
    assert "never distribute" in json.loads(
        (out / "plan.json").read_text())["warning"].lower()

    assert cli_dispatch(["compare", str(model), str(out / "model.nnm1"),
                         "--bundle", str(out / "bundle.obfb"), "-n", "32"]) == 0
    assert "max_l2_error 0.0" in capsys.readouterr().out

    # attacking the public artifact fails across the whole matrix
    assert cli_dispatch(["attack", str(out / "model.nnm1"),
                         "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    for line in lines[1:]:
        label, conv, buf, surr, total = line.split(",")
        assert (conv, buf, surr) == ("0", "0", "0")


def test_cli_run_matches_library_run(tmp_path):
    g, model = write_model(tmp_path, "mlp")
    out = tmp_path / "obf"
    cli_dispatch(["obfuscate", str(model), "-o", str(out), "--seed", "5"])
    x = np.random.default_rng(0).random((1, 128), dtype=F)
    write_tensor(tmp_path / "x.nnt1", x)
    assert cli_dispatch(["run", str(out / "model.nnm1"),
                         "--bundle", str(out / "bundle.obfb"),
                         "--input", str(tmp_path / "x.nnt1"),
                         "-o", str(tmp_path / "y.nnt1")]) == 0
    want, _ = run(g, None, [x])
    assert np.array_equal(read_tensor(tmp_path / "y.nnt1"), want[0])


def test_cli_run_prints_outputs_without_o(tmp_path, capsys):
    g, model = write_model(tmp_path, "mlp")
    x = np.random.default_rng(0).random((1, 128), dtype=F)
    write_tensor(tmp_path / "x.nnt1", x)
    assert cli_dispatch(["run", str(model), "--input", str(tmp_path / "x.nnt1")]) == 0
    (want,), _ = run(g, None, [x])
    assert capsys.readouterr().out == (f"output[0] shape={want.shape} "
                                       f"values={want.ravel()[:8].tolist()}\n")


def test_cli_run_o_needs_exactly_one_output(tmp_path, capsys):
    g = build_fixture("mlp", 7)
    g = replace(g, graph_outputs=(g.operators[0].outputs[0], *g.graph_outputs))
    (tmp_path / "two.nnm1").write_bytes(serialize_model(g))
    write_tensor(tmp_path / "x.nnt1", np.zeros((1, 128), F))
    assert cli_dispatch(["run", str(tmp_path / "two.nnm1"), "--input",
                         str(tmp_path / "x.nnt1"), "-o", str(tmp_path / "y.nnt1")]) == 1
    assert capsys.readouterr().err == "error: model has 2 outputs; -o expects exactly 1\n"
    assert not (tmp_path / "y.nnt1").exists()


def test_cli_run_without_bundle_fails_operationally(tmp_path):
    _, model = write_model(tmp_path, "mlp")
    out = tmp_path / "obf"
    cli_dispatch(["obfuscate", str(model), "-o", str(out), "--seed", "5"])
    x = np.zeros((1, 128), F)
    write_tensor(tmp_path / "x.nnt1", x)
    # plan.json is never needed; the bundle is, and its absence is exit 1
    assert cli_dispatch(["run", str(out / "model.nnm1"),
                         "--input", str(tmp_path / "x.nnt1")]) == 1


def test_cli_dump_shows_only_custom_codes(tmp_path, capsys):
    _, model = write_model(tmp_path, "pool_net")
    out = tmp_path / "obf"
    cli_dispatch(["obfuscate", str(model), "-o", str(out), "--seed", "2"])
    capsys.readouterr()
    assert cli_dispatch(["dump", str(out / "model.nnm1")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all("custom_code" in oc for oc in doc["operator_codes"])
    assert all("builtin_options" not in op for op in doc["operators"])


def test_cli_similarity_csv(tmp_path, capsys):
    _, m1 = write_model(tmp_path, "mlp")
    _, m2 = write_model(tmp_path, "lenet")
    assert cli_dispatch(["similarity", str(m1), str(m2)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "model,mlp,lenet"
    first = lines[1].split(",")
    assert first[0] == "mlp" and first[1] == "1.00"


def test_cli_bench_csv(tmp_path, capsys):
    _, model = write_model(tmp_path, "mlp")
    assert cli_dispatch(["bench", str(model), "--configs", "1,1",
                         "-n", "10", "--reps", "1", "--original"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_cli_bench_writes_csv_file(tmp_path, capsys):
    _, model = write_model(tmp_path, "mlp")
    out = tmp_path / "bench.csv"
    assert cli_dispatch(["bench", str(model), "--configs", "1,1", "-n", "10",
                         "--reps", "1", "-o", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2 and lines[1].startswith("mlp,1,1,align,")


def test_cli_attack_with_a_zoo_directory(tmp_path, capsys):
    zoo = tmp_path / "zoo"
    zoo.mkdir()
    assert cli_dispatch(["attack", str(write_model(tmp_path, "mlp")[1]),
                         "--zoo", str(zoo)]) == 1
    assert capsys.readouterr().err == f"error: no .nnm1 files in {zoo}\n"
    for name in ("mlp", "lenet"):
        write_model(zoo, name)
    assert cli_dispatch(["attack", str(zoo / "mlp.nnm1"), "--zoo", str(zoo)]) == 0
    # renaming and encapsulation keep the structure; injections hide it
    assert capsys.readouterr().out == (
        "strategies,convert,buffer_parse,surrogate,models\n"
        "none,1,1,1,1\n"
        "renaming,0,0,1,1\n"
        "parameter_encapsulation,0,0,1,1\n"
        "structure_obfuscation,1,1,1,1\n"
        "shortcut_injection,0,0,0,1\n"
        "extra_layer_injection,0,0,0,1\n"
        "all_five,0,0,0,1\n")


def test_cli_main_exits_with_the_dispatch_code(tmp_path, monkeypatch, capsys):
    _, model = write_model(tmp_path, "mlp")
    for argv, code in ((["dump", str(model)], 0), (["dump", str(tmp_path)], 1),
                       (["dump"], 2)):
        monkeypatch.setattr(sys, "argv", ["nnobf", *argv])
        for entry in (main, lambda: runpy.run_module("nnobf", run_name="__main__")):
            with pytest.raises(SystemExit) as exit_:
                entry()
            assert exit_.value.code == code
    capsys.readouterr()


def test_cli_usage_errors(tmp_path, capsys):
    assert cli_dispatch(["definitely-not-a-command"]) == 2
    assert cli_dispatch([]) == 2
    assert cli_dispatch(["obfuscate"]) == 2  # missing required args
    capsys.readouterr()


@pytest.mark.parametrize("pair", ["1", "a,b", "1,2,3"])
def test_cli_bench_malformed_configs_are_usage_errors(pair, capsys):
    assert cli_dispatch(["bench", "m.nnm1", "--configs", "1,1", pair]) == 2
    err = capsys.readouterr().err
    assert "argument --configs" in err and "'n1,n2'" in err and repr(pair) in err


@pytest.mark.parametrize("argv,option,value", [
    (["bench", "m.nnm1", "-n", "0", "--configs", "1,1"], "-n", "0"),
    (["bench", "m.nnm1", "--reps", "0"], "--reps", "0"),
    (["bench", "m.nnm1", "--reps", "x"], "--reps", "x"),
    (["compare", "a", "b", "--bundle", "c", "-n", "0"], "-n", "0"),
    (["compare", "a", "b", "-n", "-2"], "-n", "-2"),
    (["obfuscate", "m", "-o", "d", "--strategies", "rename,bogus"], "--strategies",
     "rename,bogus"),
    (["obfuscate", "m", "-o", "d", "--strategies", "all,rename"], "--strategies",
     "all,rename"),
    (["obfuscate", "m", "-o", "d", "--n1", "-3"], "--n1", "-3"),
    (["obfuscate", "m", "-o", "d", "--n2", "2.5"], "--n2", "2.5"),
    (["build-fixture", "mlp", "-o", "m", "--seed", "-1"], "--seed", "-1"),
    (["compare", "a", "b", "--seed", "-1"], "--seed", "-1"),
    (["bench", "m.nnm1", "--seed", "-1"], "--seed", "-1"),
    (["obfuscate", "m", "-o", "d", "--seed", "-1"], "--seed", "-1"),
    (["attack", "a", "--seed", "-1"], "--seed", "-1"),
    (["similarity", "a", "--seed", "-1"], "--seed", "-1"),
    (["obfuscate", "m", "-o", "d", "--strategies", "shortcut"], "--strategies",
     "shortcut"),
    (["obfuscate", "m", "-o", "d", "--strategies", "rename,extra_layer"],
     "--strategies", "rename,extra_layer"),
])
def test_cli_bad_counts_and_strategies_are_usage_errors(argv, option, value, capsys):
    assert cli_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected " in err and repr(value) in err


# subcommand -> (handler, minimal argv and its namespace, argv setting every
# option and its namespace); the namespaces omit ``command`` and ``func``
_CLI_PARSES = {
    "obfuscate": ("_cmd_obfuscate",
                  ["m", "-o", "d"],
                  dict(model="m", output="d", seed=0, n1=0, n2=0,
                       shape="align", strategies=ALL_STRATEGIES),
                  ["m", "--output", "d", "--seed", "3", "--n1", "4", "--n2",
                   "5", "--shape", "random", "--strategies", "rename,shape"],
                  dict(model="m", output="d", seed=3, n1=4, n2=5,
                       shape="random",
                       strategies=frozenset({Strategy.RENAME, Strategy.SHAPE}))),
    "run": ("_cmd_run",
            ["m", "--input", "a"],
            dict(model="m", bundle=None, input=["a"], output=None),
            ["m", "--bundle", "b", "--input", "a", "--input", "c", "-o", "y"],
            dict(model="m", bundle="b", input=["a", "c"], output="y")),
    "compare": ("_cmd_compare",
                ["a", "b"],
                dict(original="a", obfuscated="b", bundle=None, n=1000, seed=0),
                ["a", "b", "--bundle", "c", "-n", "8", "--seed", "2"],
                dict(original="a", obfuscated="b", bundle="c", n=8, seed=2)),
    "dump": ("_cmd_dump", ["m"], dict(model="m"), ["m"], dict(model="m")),
    "similarity": ("_cmd_similarity",
                   ["a"], dict(models=["a"], seed=0),
                   ["a", "b", "--seed", "3"], dict(models=["a", "b"], seed=3)),
    "attack": ("_cmd_attack",
               ["a"], dict(models=["a"], zoo=None, seed=0),
               ["a", "b", "--zoo", "z", "--seed", "4"],
               dict(models=["a", "b"], zoo="z", seed=4)),
    "bench": ("_cmd_bench",
              ["m"],
              dict(model="m", bundle=None, configs=[], original=False, n=1000,
                   reps=3, seed=0, shape="align", output=None),
              ["m", "--bundle", "b", "--configs", "1,2", "3,4", "--original",
               "-n", "9", "--reps", "2", "--seed", "5", "--shape", "random",
               "-o", "x.csv"],
              dict(model="m", bundle="b", configs=["1,2", "3,4"], original=True,
                   n=9, reps=2, seed=5, shape="random", output="x.csv")),
    "build-fixture": ("_cmd_build_fixture",
                      ["mlp", "-o", "f"], dict(name="mlp", output="f", seed=0),
                      ["pool_net", "--output", "f", "--seed", "6"],
                      dict(name="pool_net", output="f", seed=6)),
}


@pytest.mark.parametrize("command", sorted(_CLI_PARSES))
def test_cli_parses_every_option(command, capsys):
    handler, minimal, minimal_ns, full, full_ns = _CLI_PARSES[command]
    parser = build_parser()
    for argv, want in ((minimal, minimal_ns), (full, full_ns)):
        args = vars(parser.parse_args([command, *argv]))
        assert args.pop("command") == command
        assert args.pop("func").__name__ == handler
        assert args == want
    assert cli_dispatch([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: nnobf {command}")


def test_cli_parses_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(_CLI_PARSES)


def test_cli_operational_error_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.nnm1"
    assert cli_dispatch(["dump", str(missing)]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_compare_nonzero_error_exits_1(tmp_path, capsys):
    # exit status is nonzero iff the max error is nonzero
    g7, p7 = write_model(tmp_path, "lenet", seed=7)
    g8 = build_fixture("lenet", 8)
    p8 = tmp_path / "lenet8.nnm1"
    p8.write_bytes(serialize_model(g8))
    assert cli_dispatch(["compare", str(p7), str(p8), "-n", "8"]) == 1
    assert "max_l2_error" in capsys.readouterr().out


def test_cli_obfuscate_reproducible(tmp_path):
    _, model = write_model(tmp_path, "depthwise_net")
    for d in ("a", "b"):
        assert cli_dispatch(["obfuscate", str(model), "-o", str(tmp_path / d),
                             "--seed", "9", "--n1", "3", "--n2", "3"]) == 0
    for f in ("model.nnm1", "bundle.obfb", "plan.json"):
        assert (tmp_path / "a" / f).read_bytes() == \
            (tmp_path / "b" / f).read_bytes()


def test_cli_build_fixture_round_trip(tmp_path):
    out = tmp_path / "m.nnm1"
    assert cli_dispatch(["build-fixture", "branchy", "-o", str(out),
                         "--seed", "9"]) == 0
    assert parse_model(out.read_bytes()) == build_fixture("branchy", 9)
