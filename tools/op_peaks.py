"""Per-operator memory of a run: live bytes before each kernel call and the
tracemalloc peak inside it, for every fixture, obfuscated and original.

    PYTHONPATH=src python3 tools/op_peaks.py [--batch 1] [--seed 0] \\
        [--fixtures lenet ...]

Each fixture is obfuscated at (20, 20) ``align`` (the serving point of
``perfbench``) with the given seed.  A run is measured as ``perfbench``
measures its footprint: one warm-up run, the collector off, then one run
under ``tracemalloc``.  ``interpreter.execute_builtin`` is wrapped for the
measured run; per kernel call it reads the traced bytes above the run's
starting level before the call (``live``) and the peak inside the call
above that (``in-call``), so ``live + in-call`` is the run's level at that
operator's peak.  Decoy layers call no kernel and print no row.  The
wrapper's own records add a few dozen bytes per call to later ``live``
figures.  ``run peak`` is a second, unwrapped measured run: the figure
``perfbench`` reports as ``peak_alloc_kib`` for a serving workload is the
largest of these over the obfuscated models.  ``program`` is the traced
memory a compiled program keeps while its graph and bundle live: the growth,
after ``gc.collect()``, left by a first run of fresh copies of both.  The
warm-up run compiles the program before the measured one, so ``run peak``
(like ``peak_alloc_kib``) leaves it out.  ``plans`` is the scratch held by
the kernel plan cache after the runs so far, with its plan count and their
total step count (a step is one multiply and one add or reduce): plans are
keyed by geometry and shared by every model, so a model whose kernel shapes
were all seen before adds none.  The warm-up run builds them too, so this is
memory moved out of ``run peak``, not saved.  Standard library plus nnobf.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import sys
import tracemalloc
import warnings

import numpy as np

from nnobf import interpreter, kernels
from nnobf.bundle import KernelBundle
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.obfuscator import ObfuscationConfig, ShapeStrategy, obfuscate


def measured(fn):
    """Traced bytes above the starting level: ``fn()``'s peak."""
    fn()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        gc.enable()


def program_bytes(graph, bundle, x) -> int:
    """Traced bytes that compiling ``(graph, bundle)`` leaves held."""
    graph = dataclasses.replace(graph)  # equal copies no run has compiled
    bundle = bundle and KernelBundle(bundle.records)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        interpreter.run(graph, bundle, x)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()


def plan_bytes() -> tuple[int, int, int]:
    """Scratch bytes, count and total steps of the kernel plans cached now."""
    plans = kernels._plans.values()
    return sum(p[0] for p in plans), len(plans), sum(len(p[4]) for p in plans)


def op_rows(graph, bundle, x) -> list[tuple[str, list[tuple], int, int]]:
    """(kind, input shapes, live bytes before, in-call peak) per kernel call."""
    rows, kernel, state = [], interpreter.execute_builtin, {}

    def spy(kind, args, opts):
        if not tracemalloc.is_tracing():
            return kernel(kind, args, opts)
        now = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = kernel(kind, args, opts)
        peak = tracemalloc.get_traced_memory()[1] - now
        rows.append((kind.name, [a.shape for a in args], now - state["base"], peak))
        return out

    def go():
        rows.clear()
        if tracemalloc.is_tracing():
            state["base"] = tracemalloc.get_traced_memory()[0]
        interpreter.run(graph, bundle, x)

    interpreter.execute_builtin = spy
    try:
        measured(go)
    finally:
        interpreter.execute_builtin = kernel
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--batch", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fixtures", nargs="+", default=list(FIXTURE_NAMES))
    args = parser.parse_args(argv)
    config = ObfuscationConfig(seed=args.seed, n_shortcuts=20, n_extra_layers=20,
                               shape_strategy=ShapeStrategy.ALIGN_TO_LARGEST)
    for name in args.fixtures:
        g = build_fixture(name, args.seed)
        shape = g.tensors[g.graph_inputs[0]].shape
        x = [np.random.default_rng(args.seed).random((args.batch, *shape[1:]),
                                                     dtype=np.float32)]
        with warnings.catch_warnings():  # saturated shortcuts are expected
            warnings.simplefilter("ignore")
            public, bundle, _ = obfuscate(g, config)
        for label, model, kb in (("obfuscated", public, bundle), ("original", g, None)):
            peak = measured(lambda: interpreter.run(model, kb, x))
            held = program_bytes(model, kb, x)
            scratch, plans, steps = plan_bytes()
            print(f"{name} {label} batch {args.batch}: run peak {peak / 1024:.1f} KiB, "
                  f"program {held / 1024:.1f} KiB, plans {scratch / 1024:.1f} KiB "
                  f"in {plans}, {steps} steps")
            print(f"  {'kernel':<18} {'live KiB':>9} {'in-call KiB':>12}  inputs")
            for kind, shapes, live, call in op_rows(model, kb, x):
                print(f"  {kind:<18} {live / 1024:>9.1f} {call / 1024:>12.1f}  "
                      + " ".join("x".join(map(str, s)) for s in shapes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
