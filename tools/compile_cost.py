"""Cold start cost: wall time of ``bundle.load_bundle`` and then of
``interpreter._program`` on freshly parsed obfuscated models, per fixture.

    PYTHONPATH=src python3 tools/compile_cost.py [--rounds 40] \\
        [--fixtures lenet ...]

Each fixture (weight seed 0) is obfuscated at (20, 20) ``align`` (the
serving point of ``perfbench``) with obfuscation seeds 0-3, and each model
and bundle is serialized once.  Each round parses a fresh copy of every
model from those bytes, so no run has compiled it, then, with the collector
off, times ``load_bundle`` of the pair's bundle bytes and ``_program`` on the
model and that bundle.  The copies die once timed, and their programs with
them.  It prints the median load and compile times per fixture and over all
of them, in µs: loading derives each record's facts, so work it takes on
shows here rather than in the compile.  Run it on two checkouts alternately
(``PYTHONPATH`` set to each side's ``src``) to compare them.  Standard
library plus nnobf.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
import warnings

from nnobf import interpreter
from nnobf.bundle import load_bundle, serialize_bundle
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.model_format import parse_model, serialize_model
from nnobf.obfuscator import ObfuscationConfig, ShapeStrategy, obfuscate

SEEDS = range(4)


def serialized(name: str) -> list[tuple[bytes, bytes]]:
    """Model and bundle bytes of the fixture's (20, 20) obfuscations."""
    graph = build_fixture(name, 0)
    pairs = []
    for seed in SEEDS:
        with warnings.catch_warnings():  # saturated shortcuts are expected
            warnings.simplefilter("ignore")
            public, bundle, _ = obfuscate(graph, ObfuscationConfig(
                seed=seed, n_shortcuts=20, n_extra_layers=20,
                shape_strategy=ShapeStrategy.ALIGN_TO_LARGEST))
        pairs.append((serialize_model(public), serialize_bundle(bundle)))
    return pairs


def cold_seconds(pairs: list[tuple[bytes, bytes]]) -> list[tuple[float, float]]:
    """One round: per pair, ``load_bundle``'s and then ``_program``'s wall
    time on fresh copies."""
    graphs = [parse_model(m) for m, _ in pairs]
    times = []
    gc.disable()
    try:
        for graph, (_, data) in zip(graphs, pairs):
            t0 = time.perf_counter()
            bundle = load_bundle(data)
            t1 = time.perf_counter()
            interpreter._program(graph, bundle)
            times.append((t1 - t0, time.perf_counter() - t1))
    finally:
        gc.enable()
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--fixtures", nargs="+", default=list(FIXTURE_NAMES),
                        choices=FIXTURE_NAMES)
    args = parser.parse_args(argv)
    data = {name: serialized(name) for name in args.fixtures}
    samples = {name: [] for name in args.fixtures}
    for _ in range(args.rounds):
        for name, pairs in data.items():
            samples[name] += cold_seconds(pairs)
    samples["all"] = [t for times in samples.values() for t in times]
    print(f"{'fixture':<14} {'load_us':>9} {'compile_us':>11}")
    for name, times in samples.items():
        load, build = zip(*times)
        print(f"{name:<14} {statistics.median(load) * 1e6:9.1f} "
              f"{statistics.median(build) * 1e6:11.1f}"
              + (f" ({len(times)} pairs)" if name == "all" else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
