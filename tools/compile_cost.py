"""Cold compile cost: wall time of ``interpreter._program`` on freshly parsed
obfuscated models, per fixture.

    PYTHONPATH=src python3 tools/compile_cost.py [--rounds 40] \\
        [--fixtures lenet ...]

Each fixture (weight seed 0) is obfuscated at (20, 20) ``align`` (the
serving point of ``perfbench``) with obfuscation seeds 0-3, and each model
and bundle is serialized once.  Each round parses fresh copies of every
model and bundle from those bytes, so no run has compiled them, then times
``interpreter._program`` on each pair with the collector off.  The copies
die once timed, and their programs with them.  It prints the
median compile time per fixture and over all of them, in µs.  Run it on
two checkouts alternately (``PYTHONPATH`` set to each side's ``src``) to
compare them.  Standard library plus nnobf.
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


def compile_seconds(pairs: list[tuple[bytes, bytes]]) -> list[float]:
    """One round: ``_program``'s wall time on fresh copies of each pair."""
    copies = [(parse_model(m), load_bundle(b)) for m, b in pairs]
    times = []
    gc.disable()
    try:
        for graph, bundle in copies:
            t0 = time.perf_counter()
            interpreter._program(graph, bundle)
            times.append(time.perf_counter() - t0)
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
            samples[name] += compile_seconds(pairs)
    for name, times in samples.items():
        print(f"{name:<14} {statistics.median(times) * 1e6:8.1f} us")
    overall = [t for times in samples.values() for t in times]
    print(f"{'all':<14} {statistics.median(overall) * 1e6:8.1f} us "
          f"({len(overall)} compiles)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
