"""Output comparison and overhead measurement.

``compare_outputs`` drives the equivalence check: n seeded random inputs
through an original and an obfuscated model, reporting the worst L2 output
distance.  With this runtime the distance is exactly 0.0 because both sides
execute identical kernels in an identical order.

``bench`` measures per-inference latency (median of several repetitions,
after warm-up, reported as seconds per 1000 inferences), the all-intermediates
peak-memory proxy, artifact sizes, and the shortcut and decoy-layer counts
the obfuscator achieved for a sweep of obfuscation configs.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bundle import KernelBundle, load_bundle, serialize_bundle
from .interpreter import run
from .model_format import ModelGraph, parse_model, serialize_model
from .obfuscator import (
    ALL_STRATEGIES,
    ObfuscationConfig,
    ShapeStrategy,
    Strategy,
    obfuscate,
)

_CHUNK = 256   # inputs per run() in compare_graphs
_WARMUP = 10   # untimed inferences per model before timing


class BenchRecord(NamedTuple):
    """One CSV row; the field names are the header."""
    model: str
    n1: int
    n2: int
    shape: str
    strategies: str
    latency_s_per_1000: float
    peak_bytes: int
    model_file_bytes: int
    bundle_bytes: int
    shortcuts: int      # achieved, which may fall short of n1
    extra_layers: int   # achieved, which may fall short of n2


def record_to_csv(r: BenchRecord) -> str:
    return ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in r)


def records_to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([",".join(BenchRecord._fields)]
                     + [record_to_csv(r) for r in records]) + "\n"


def batched_random_inputs(graph: ModelGraph, n: int, seed: int) \
        -> list[np.ndarray]:
    """One batch-n random array per graph input, uniform [0, 1) float32."""
    arrays = []
    for k, t_idx in enumerate(graph.graph_inputs):
        shape = graph.tensors[t_idx].shape
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(k,)))
        arrays.append(rng.random((n, *shape[1:]), dtype=np.float32))
    return arrays


def compare_graphs(original: ModelGraph, obfuscated: ModelGraph,
                   bundle: KernelBundle | None, n: int = 1000,
                   seed: int = 0) -> float:
    """Max over n random inputs of the L2 distance between output vectors.

    ``original`` runs without a bundle; ``obfuscated`` runs with ``bundle``."""
    inputs = batched_random_inputs(original, n, seed)
    worst = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(n, lo + _CHUNK)
        part = [a[lo:hi] for a in inputs]
        y1, _ = run(original, None, part)
        y2, _ = run(obfuscated, bundle, part)
        diffs = [(a.astype(np.float64) - b.astype(np.float64))
                 .reshape(hi - lo, -1) for a, b in zip(y1, y2)]
        stacked = np.concatenate(diffs, axis=1)
        per_input = np.sqrt((stacked ** 2).sum(axis=1))
        worst = max(worst, float(per_input.max()))
    return worst


def compare_outputs(original_path: str | Path, obfuscated_path: str | Path,
                    bundle_path: str | Path | None, n: int = 1000,
                    seed: int = 0) -> float:
    original = parse_model(Path(original_path).read_bytes())
    obfuscated = parse_model(Path(obfuscated_path).read_bytes())
    bundle = (load_bundle(Path(bundle_path).read_bytes())
              if bundle_path is not None else None)
    return compare_graphs(original, obfuscated, bundle, n=n, seed=seed)


def _interleaved_seconds(models: list[tuple[ModelGraph, KernelBundle | None]],
                         n: int, seed: int, reps: int) -> list[list[float]]:
    """Per repetition, each model's total seconds over n batch-1 inferences.

    The models run alternately on every input, so load bursts and clock drift
    land on all of them symmetrically; block A-then-B timing shows
    multi-percent bias on shared machines.
    """
    batched = batched_random_inputs(models[0][0], n, seed)
    single = [[a[k:k + 1] for a in batched] for k in range(n)]
    for inp in single[:_WARMUP]:
        for graph, bundle in models:
            run(graph, bundle, inp)
    clock = time.perf_counter
    totals = []
    gc.disable()
    try:
        for _ in range(reps):
            rep = [0.0] * len(models)
            for inp in single:
                for m, (graph, bundle) in enumerate(models):
                    t0 = clock()
                    run(graph, bundle, inp)
                    rep[m] += clock() - t0
            totals.append(rep)
    finally:
        gc.enable()
    return totals


def measure_latency(graph: ModelGraph, bundle: KernelBundle | None,
                    n: int = 1000, seed: int = 0, reps: int = 3) -> float:
    """Median wall-clock seconds per 1000 single-input inferences."""
    totals = _interleaved_seconds([(graph, bundle)], n, seed, reps)
    return statistics.median(rep[0] for rep in totals) / n * 1000.0


def latency_overhead(baseline: ModelGraph, base_bundle: KernelBundle | None,
                     variant: ModelGraph, variant_bundle: KernelBundle | None,
                     n: int = 300, seed: int = 0, reps: int = 3) -> float:
    """Relative latency of variant over baseline, noise-cancelled.

    Both models are timed alternately on every single inference.  Returns
    the median over repetitions of (variant total / baseline total) minus one.
    """
    totals = _interleaved_seconds([(baseline, base_bundle),
                                   (variant, variant_bundle)],
                                  n, seed, reps)
    return statistics.median(v / b for b, v in totals) - 1.0


def peak_bytes_single(graph: ModelGraph, bundle: KernelBundle | None,
                      seed: int = 0) -> int:
    return run(graph, bundle, batched_random_inputs(graph, 1, seed))[1].peak_live_bytes


def bench(model_path: str | Path, bundle_path: str | Path | None,
          configs: list[tuple[int, int]], n: int = 1000, seed: int = 0,
          shape_strategy: ShapeStrategy = ShapeStrategy.ALIGN_TO_LARGEST,
          include_original: bool = False, reps: int = 3) -> list[BenchRecord]:
    """Benchmark a model as-is and/or across an (n1, n2) obfuscation sweep."""
    path = Path(model_path)
    graph = parse_model(path.read_bytes())
    model_id = path.stem
    records: list[BenchRecord] = []

    if include_original or not configs:
        bundle = (load_bundle(Path(bundle_path).read_bytes())
                  if bundle_path is not None else None)
        records.append(BenchRecord(
            model_id, 0, 0, "-", "none",
            measure_latency(graph, bundle, n=n, seed=seed, reps=reps),
            peak_bytes_single(graph, bundle, seed=seed),
            path.stat().st_size,
            Path(bundle_path).stat().st_size if bundle_path else 0, 0, 0))

    for n1, n2 in configs:
        config = ObfuscationConfig(seed=seed, n_shortcuts=n1, n_extra_layers=n2,
                                   shape_strategy=shape_strategy,
                                   strategies=ALL_STRATEGIES)
        public, bundle, plan = obfuscate(graph, config)
        strategies = "+".join(s.value for s in Strategy
                              if s in config.strategies)
        records.append(BenchRecord(
            model_id, n1, n2, shape_strategy.value, strategies,
            measure_latency(public, bundle, n=n, seed=seed, reps=reps),
            peak_bytes_single(public, bundle, seed=seed),
            len(serialize_model(public)),
            len(serialize_bundle(bundle)),
            len(plan.injected_shortcuts), len(plan.injected_layers)))
    return records
