"""Command-line front end.

Subcommands: obfuscate, run, compare, dump, similarity, attack, bench,
build-fixture.  Exit codes: 0 success, 1 operational error, 2 usage error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .bench import bench as run_bench, compare_outputs, records_to_csv
from .bundle import load_bundle, serialize_bundle
from .errors import NnobfError
from .extractor import attack_matrix, build_default_zoo
from .fixtures import FIXTURE_NAMES, build_fixture
from .interpreter import run
from .model_format import dump_json, parse_model, serialize_model
from .obfuscator import (
    ALL_STRATEGIES,
    ObfuscationConfig,
    ShapeStrategy,
    Strategy,
    obfuscate,
    plan_to_json,
)
from .similarity import similarity_matrix, to_labeled_graph
from .tensor_io import read_tensor, write_tensor


def _load_model(path: str):
    return parse_model(Path(path).read_bytes())


def _cmd_obfuscate(args) -> int:
    graph = _load_model(args.model)
    config = ObfuscationConfig(seed=args.seed, n_shortcuts=args.n1,
                               n_extra_layers=args.n2,
                               shape_strategy=ShapeStrategy(args.shape),
                               strategies=args.strategies)
    public, bundle, plan = obfuscate(graph, config)
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    (out / "model.nnm1").write_bytes(serialize_model(public))
    (out / "bundle.obfb").write_bytes(serialize_bundle(bundle))
    (out / "plan.json").write_text(plan_to_json(plan))
    print(f"wrote {out / 'model.nnm1'}")
    print(f"wrote {out / 'bundle.obfb'}")
    print(f"wrote {out / 'plan.json'}  (PRIVATE: do not ship)")
    return 0


def _cmd_run(args) -> int:
    graph = _load_model(args.model)
    bundle = load_bundle(Path(args.bundle).read_bytes()) if args.bundle else None
    inputs = [read_tensor(p) for p in args.input]
    outputs, _trace = run(graph, bundle, inputs)
    if len(outputs) != 1 and args.output:
        print(f"error: model has {len(outputs)} outputs; -o expects exactly 1",
              file=sys.stderr)
        return 1
    if args.output:
        write_tensor(args.output, outputs[0])
        print(f"wrote {args.output}")
    else:
        for i, o in enumerate(outputs):
            print(f"output[{i}] shape={tuple(o.shape)} "
                  f"values={o.ravel()[:8].tolist()}")
    return 0


def _cmd_compare(args) -> int:
    err = compare_outputs(args.original, args.obfuscated, args.bundle,
                          n=args.n, seed=args.seed)
    print(f"max_l2_error {err}")
    return 0 if err == 0.0 else 1


def _cmd_dump(args) -> int:
    print(dump_json(_load_model(args.model)))
    return 0


def _cmd_similarity(args) -> int:
    paths = [Path(p) for p in args.models]
    graphs = [to_labeled_graph(_load_model(p)) for p in paths]
    ids = [p.stem for p in paths]
    matrix = similarity_matrix(graphs, args.seed)
    print("model," + ",".join(ids))
    for name, row in zip(ids, matrix):
        print(name + "," + ",".join(f"{v:.2f}" for v in row))
    return 0


def _cmd_attack(args) -> int:
    models = [(Path(p).stem, _load_model(p)) for p in args.models]
    if args.zoo:
        zoo_paths = sorted(Path(args.zoo).glob("*.nnm1"))
        if not zoo_paths:
            print(f"error: no .nnm1 files in {args.zoo}", file=sys.stderr)
            return 1
        zoo = [(p.stem, _load_model(p)) for p in zoo_paths]
    else:
        zoo = build_default_zoo()
    rows = attack_matrix(models, zoo, seed=args.seed)
    print("strategies,convert,buffer_parse,surrogate,models")
    for r in rows:
        print(f"{r.label},{r.convert_successes},{r.buffer_successes},"
              f"{r.surrogate_successes},{r.total}")
    return 0


def _typed(pattern: str, expected: str, convert=str):
    """An argparse type: ``convert(text)`` of a ``text`` that fully matches
    ``pattern``, else a usage error saying what was ``expected``."""
    def check(text: str):
        if not re.fullmatch(pattern, text):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return convert(text)
    return check


def _cmd_bench(args) -> int:
    configs = [tuple(map(int, pair.split(","))) for pair in args.configs]
    records = run_bench(args.model, args.bundle, configs, n=args.n,
                        seed=args.seed,
                        shape_strategy=ShapeStrategy(args.shape),
                        include_original=args.original, reps=args.reps)
    csv = records_to_csv(records)
    if args.output:
        Path(args.output).write_text(csv)
        print(f"wrote {args.output}")
    else:
        print(csv, end="")
    return 0


def _cmd_build_fixture(args) -> int:
    graph = build_fixture(args.name, args.seed)
    Path(args.output).write_bytes(serialize_model(graph))
    print(f"wrote {args.output}")
    return 0


_SEED = dict(type=int, default=0)
_COUNT = _typed("[0-9]*[1-9][0-9]*", "a positive count", int)
_COUNT0 = _typed("[0-9]+", "a count of 0 or more", int)
_STRATEGY = "|".join(s.value for s in Strategy)
_STRATEGIES = _typed(f"all|none|(({_STRATEGY})(,({_STRATEGY}))*)?",
                     f"'all', 'none' or a comma list of {_STRATEGY.replace('|', ',')}",
                     lambda t: ALL_STRATEGIES if t == "all" else frozenset(
                         Strategy(p) for p in t.split(",") if p not in ("", "none")))
_SHAPE = dict(choices=sorted(s.value for s in ShapeStrategy), default="align")

# subcommand -> (help, handler, {flags: add_argument keywords} in help order)
_COMMANDS = {
    "obfuscate": ("obfuscate a model into a directory", _cmd_obfuscate, {
        "model": {},
        "-o --output": dict(required=True, help="output directory"),
        "--seed": _SEED,
        "--n1": dict(type=_COUNT0, default=0, help="shortcut count"),
        "--n2": dict(type=_COUNT0, default=0, help="extra layer count"),
        "--shape": _SHAPE,
        "--strategies": dict(default="all", type=_STRATEGIES,
                             help="comma list of rename,encapsulate,shape,"
                                  "shortcut,extra_layer, or 'all'/'none'")}),
    "run": ("execute a model on NNT1 tensor files", _cmd_run, {
        "model": {},
        "--bundle": dict(help="kernel bundle for obfuscated models"),
        "--input": dict(action="append", required=True,
                        help="NNT1 input file (repeat per graph input)"),
        "-o --output": dict(help="NNT1 output path")}),
    "compare": ("max L2 output distance on random inputs", _cmd_compare, {
        "original": {},
        "obfuscated": {},
        "--bundle": {},
        "-n": dict(type=_COUNT, default=1000),
        "--seed": _SEED}),
    "dump": ("print the JSON view of a model", _cmd_dump, {"model": {}}),
    "similarity": ("pairwise structure-similarity CSV", _cmd_similarity, {
        "models": dict(nargs="+"),
        "--seed": _SEED}),
    "attack": ("replay parsing attacks per strategy subset", _cmd_attack, {
        "models": dict(nargs="+"),
        "--zoo": dict(help="directory of candidate original .nnm1 files"),
        "--seed": _SEED}),
    "bench": ("latency/memory/size sweep as CSV", _cmd_bench, {
        "model": {},
        "--bundle": {},
        "--configs": dict(nargs="*", default=[],
                          type=_typed("[0-9]+,[0-9]+", "an 'n1,n2' pair of counts"),
                          help="obfuscation settings as 'n1,n2' pairs"),
        "--original": dict(action="store_true",
                           help="include an un-obfuscated baseline row"),
        "-n": dict(type=_COUNT, default=1000, help="inferences per timing run"),
        "--reps": dict(type=_COUNT, default=3),
        "--seed": _SEED,
        "--shape": _SHAPE,
        "-o --output": dict(help="CSV path (default stdout)")}),
    "build-fixture": ("write a built-in fixture model", _cmd_build_fixture, {
        "name": dict(choices=FIXTURE_NAMES),
        "-o --output": dict(required=True),
        "--seed": _SEED}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnobf",
        description="Obfuscate serialized neural-network models and run, "
                    "compare, analyze, and benchmark the results.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        for flags, kw in arguments.items():
            p.add_argument(*flags.split(), **kw)
        p.set_defaults(func=func)
    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (NnobfError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
