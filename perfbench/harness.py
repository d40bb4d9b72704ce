"""The three workloads of the nnobf benchmark.

Each workload builds everything it uses from the seed argument: fixture
weights, obfuscation seeds and inputs (uniform [0, 1) float32).  It drives
only nnobf's public functions, always through the module attribute
(``interpreter.run``, ``obfuscator.obfuscate`` ...) so the tracer in
``tracing.py`` can time each layer from outside.

One operation per workload:

* ``serve-b1``: a batch-1 inference of an obfuscated fixture at
  (n1, n2) = (20, 20), shape strategy ``align``, paired with the original
  model on the same input; which of the two runs first alternates.
* ``batch-256``: a batch-256 inference of the same obfuscated fixtures,
  checked against original-model outputs computed in set-up.
* ``toolchain``: one offline job (``offline_job``) for one fixture at one
  point of the (n1, n2) x shape-strategy sweep, with a fresh obfuscation seed.

Every operation checks its result; a failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import gc
import hashlib
import time
import tracemalloc
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from nnobf import (bundle, extractor, fixtures, interpreter, model_format,
                   obfuscator, similarity)
from nnobf.bundle import KernelBundle
from nnobf.errors import UnknownOperator
from nnobf.model_format import ModelGraph
from nnobf.obfuscator import ObfuscationConfig, ShapeStrategy

clock = time.perf_counter

FIXTURES = fixtures.FIXTURE_NAMES
SERVE_POINT = (20, 20, ShapeStrategy.ALIGN_TO_LARGEST)
SWEEP = tuple((n, n, shape) for n in (0, 10, 20, 30)
              for shape in (ShapeStrategy.RANDOM, ShapeStrategy.ALIGN_TO_LARGEST))
# the largest sweep point; the toolchain footprint pass runs it per fixture
FOOTPRINT_POINT = (30, 30, ShapeStrategy.ALIGN_TO_LARGEST)
DETERMINISM_EVERY = 7  # coprime with the 40-job cycle, so every job kind is sampled

# seed-derivation tags, one per use, so no two streams share a seed
_SERVE_OBF, _JOB_OBF, _FOOTPRINT_OBF, _INPUTS, _SETUP_CHECK = range(1, 6)


class CheckFailed(Exception):
    """An output or artifact differs from what correctness requires."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def same_outputs(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    """Bit-exact: equal count, equal dtypes, equal values."""
    return len(got) == len(want) and all(
        a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def make_inputs(graph: ModelGraph, batch: int, count: int,
                seed: int) -> list[list[np.ndarray]]:
    rng = np.random.default_rng(seed)
    shapes = [graph.tensors[t].shape[1:] for t in graph.graph_inputs]
    return [[rng.random((batch, *s), dtype=np.float32) for s in shapes]
            for _ in range(count)]


def outputs_digest(outputs: list[list[np.ndarray]]) -> str:
    h = hashlib.sha256()
    for outs in outputs:
        for a in outs:
            h.update(str(a.dtype).encode())
            h.update(str(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class Shipped:
    """Artifacts of one offline job, as read back from their bytes."""
    model: ModelGraph
    bundle: KernelBundle
    model_bytes: bytes
    bundle_bytes: bytes
    plan_bytes: bytes
    obf_s: float
    orig_s: float

    @property
    def artifact_bytes(self) -> int:
        return len(self.model_bytes) + len(self.bundle_bytes)


def obfuscate_to_bytes(original: ModelGraph, config: ObfuscationConfig) \
        -> tuple[bytes, bytes, bytes]:
    public, kb, plan = obfuscator.obfuscate(original, config)
    return (model_format.serialize_model(public), bundle.serialize_bundle(kb),
            obfuscator.plan_to_json(plan).encode())


def offline_job(original: ModelGraph, config: ObfuscationConfig,
                x: list[np.ndarray], obf_first: bool) -> Shipped:
    """Obfuscate, write and read back all three artifacts, then check them.

    Checks: the model bytes re-serialize identically; the leak scan finds no
    weight bytes and ``convert`` refuses the model; the shipped and the
    reconstructed models both reproduce the original's batch-1 output
    bit for bit.
    """
    model_bytes, bundle_bytes, plan_bytes = obfuscate_to_bytes(original, config)
    shipped = model_format.parse_model(model_bytes)
    shipped_bundle = bundle.load_bundle(bundle_bytes)
    plan = obfuscator.plan_from_json(plan_bytes.decode())
    check(model_format.serialize_model(shipped) == model_bytes,
          "serialize_model(parse_model(b)) != b")
    rebuilt = obfuscator.reconstruct(shipped, plan)
    score = similarity.propagation_kernel(similarity.to_labeled_graph(original),
                                          similarity.to_labeled_graph(shipped))
    check(0.0 <= score <= 1.0, f"similarity {score} outside [0, 1]")
    leaked = extractor.parse_in_buffer(model_bytes).weight_bytes
    check(leaked == 0, f"leak scan found {leaked} weight bytes")
    try:
        extractor.convert(shipped)
    except UnknownOperator:
        pass
    else:
        raise CheckFailed("convert accepted the obfuscated model")
    y_obf, y_orig, obf_s, orig_s = run_pair(original, shipped, shipped_bundle,
                                            x, obf_first)
    y_rebuilt, _ = interpreter.run(rebuilt, None, x)
    check(same_outputs(y_obf, y_orig), "obfuscated output differs from original")
    check(same_outputs(y_rebuilt, y_orig), "reconstructed output differs from original")
    return Shipped(shipped, shipped_bundle, model_bytes, bundle_bytes,
                   plan_bytes, obf_s, orig_s)


@contextmanager
def paused(tracer):
    """Stop recording spans for the duration; a no-op without a tracer."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was


def run_pair(original, model, kb, x, obf_first: bool, tracer=None):
    """Run the obfuscated and the original model on one input, timing each.

    The tracer, if any, is paused around the original's run only.
    """
    def obf():
        t0 = clock()
        y, _ = interpreter.run(model, kb, x)
        return y, clock() - t0

    def orig():
        with paused(tracer):
            t0 = clock()
            y, _ = interpreter.run(original, None, x)
            t = clock() - t0
        return y, t

    if obf_first:
        (y_obf, obf_s), (y_orig, orig_s) = obf(), orig()
    else:
        (y_orig, orig_s), (y_obf, obf_s) = orig(), obf()
    return y_obf, y_orig, obf_s, orig_s


def peak_alloc_bytes(fn) -> int:
    """tracemalloc peak above the starting level while ``fn()`` runs.

    ``fn`` runs once unmeasured first, so lazily filled caches (``struct``
    and ``re`` formats) are warm; the collector is off and warnings go to a
    fresh list.  So the figure does not depend on what ran before.
    """
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
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


def _config(seed: int, point) -> ObfuscationConfig:
    n1, n2, shape = point
    return ObfuscationConfig(seed=seed, n_shortcuts=n1, n_extra_layers=n2,
                             shape_strategy=shape)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up once, then ``op(k)`` for k = 0, 1, ...; ``op`` returns seconds."""

    name = ""
    rows = 1          # inferences per operation, for throughput
    block_ops = 0     # operations scaled by one host speed: whole cycles of the mix
    setups = 0        # set-ups per timed run, spread over its window
    traced_ops = 0    # operations in the traced pass: whole cycles of the mix

    def __init__(self, seed: int, tracer=None, draw: int = 0):
        self.seed = seed
        self.tracer = tracer  # paused around work that is not the operation
        self.draw = draw  # which obfuscation of the fixtures a serving set-up ships
        self.obf_s = 0.0
        self.orig_s = 0.0

    def setup(self) -> None:
        self.originals = [fixtures.build_fixture(n, self.seed) for n in FIXTURES]

    def op(self, k: int) -> float:
        raise NotImplementedError

    def end_slice(self) -> None:
        """Untimed work after this set-up's slice of the timed window."""

    def carry(self, prev: Workload) -> None:
        """Continue the interleaved obfuscated/original record of ``prev``,
        the workload that measured the slice before."""
        self.obf_s, self.orig_s = prev.obf_s, prev.orig_s

    def overhead_ratio(self) -> float:
        return self.obf_s / self.orig_s

    def footprint(self) -> tuple[int, float]:
        """Max over fixtures of one operation's tracemalloc peak, in bytes,
        and the mean shipped artifact bytes per fixture."""
        raise NotImplementedError

    def reference_outputs(self) -> list[list[np.ndarray]] | None:
        """Outputs the default-seed digest covers; None if not a serving load."""
        return None


class _Serving(Workload):
    batch = 1
    pool_size = 1

    def setup(self) -> None:
        super().setup()
        self.shipped = []
        for f, g in enumerate(self.originals):
            x = make_inputs(g, 1, 1, derive_seed(self.seed, _SETUP_CHECK, f))[0]
            config = _config(derive_seed(self.seed, _SERVE_OBF, f, self.draw),
                             SERVE_POINT)
            self.shipped.append(offline_job(g, config, x, obf_first=f % 2 == 0))
        self.pool = [make_inputs(g, self.batch, self.pool_size,
                                 derive_seed(self.seed, _INPUTS, f))
                     for f, g in enumerate(self.originals)]

    def _pick(self, k: int):
        f = k % len(FIXTURES)
        return f, (k // len(FIXTURES)) % self.pool_size

    def footprint(self) -> tuple[int, float]:
        peak = 0
        for f, s in enumerate(self.shipped):
            x = self.pool[f][0]
            peak = max(peak, peak_alloc_bytes(
                lambda: interpreter.run(s.model, s.bundle, x)))
        return peak, float(np.mean([s.artifact_bytes for s in self.shipped]))


class ServeB1(_Serving):
    name = "serve-b1"
    pool_size = 16
    block_ops = 50
    setups = 12
    traced_ops = 100

    def setup(self) -> None:
        super().setup()
        for k in range(2 * len(FIXTURES)):  # warm-up, untimed
            self.op(k)
        self.obf_s = self.orig_s = 0.0

    def op(self, k: int) -> float:
        f, i = self._pick(k)
        s = self.shipped[f]
        y_obf, y_orig, obf_s, orig_s = run_pair(
            self.originals[f], s.model, s.bundle, self.pool[f][i],
            obf_first=k % 2 == 0, tracer=self.tracer)
        check(same_outputs(y_obf, y_orig), "obfuscated output differs from original")
        self.obf_s += obf_s
        self.orig_s += orig_s
        return obf_s

    def reference_outputs(self):
        return [interpreter.run(g, None, x)[0]
                for g, xs in zip(self.originals, self.pool) for x in xs]


class Batch256(_Serving):
    name = "batch-256"
    batch = 256
    rows = 256
    pool_size = 2
    block_ops = 2 * len(FIXTURES)
    setups = 6
    traced_ops = 10

    def setup(self) -> None:
        super().setup()
        self.ratios: list[float] = []
        self.expected = [[interpreter.run(g, None, x)[0] for x in xs]
                         for g, xs in zip(self.originals, self.pool)]
        for f, s in enumerate(self.shipped):  # warm-up, untimed
            interpreter.run(s.model, s.bundle, self.pool[f][0])

    def op(self, k: int) -> float:
        f, i = self._pick(k)
        s = self.shipped[f]
        t0 = clock()
        y, _ = interpreter.run(s.model, s.bundle, self.pool[f][i])
        t = clock() - t0
        check(same_outputs(y, self.expected[f][i]),
              "obfuscated output differs from original")
        return t

    def end_slice(self) -> None:
        """One interleaved pair per fixture, on this set-up's obfuscation.

        Which model runs first alternates by fixture and by set-up, and
        the input cycles through the pool by set-up.
        """
        for f, s in enumerate(self.shipped):
            y_obf, y_orig, t_obf, t_orig = run_pair(
                self.originals[f], s.model, s.bundle,
                self.pool[f][self.draw % self.pool_size],
                obf_first=(f + self.draw) % 2 == 0)
            check(same_outputs(y_obf, y_orig), "obfuscated output differs from original")
            self.ratios.append(t_obf / t_orig)

    def carry(self, prev: Workload) -> None:
        super().carry(prev)
        self.ratios = prev.ratios

    def overhead_ratio(self) -> float:
        """Median per-pair ratio of the pairs run after each slice: a median,
        because a few dozen long pairs are too few for a sum to shrug off a
        burst of load from elsewhere on the machine."""
        return float(np.median(self.ratios))

    def reference_outputs(self):
        return [y for ys in self.expected for y in ys]


class Toolchain(Workload):
    name = "toolchain"
    pool_size = 4
    block_ops = len(FIXTURES) * len(SWEEP)
    setups = 12
    traced_ops = len(FIXTURES) * len(SWEEP)

    def setup(self) -> None:
        super().setup()
        self.pool = [make_inputs(g, 1, self.pool_size,
                                 derive_seed(self.seed, _INPUTS, f))
                     for f, g in enumerate(self.originals)]
        for k in range(len(FIXTURES)):  # warm-up, untimed
            self.op(k)
        self.obf_s = self.orig_s = 0.0

    def job(self, k: int):
        f = k % len(FIXTURES)
        cycle = len(FIXTURES) * len(SWEEP)
        point = SWEEP[(k // len(FIXTURES)) % len(SWEEP)]
        x = self.pool[f][(k // cycle) % self.pool_size]
        return self.originals[f], _config(derive_seed(self.seed, _JOB_OBF, k), point), x

    def op(self, k: int) -> float:
        original, config, x = self.job(k)
        t0 = clock()
        shipped = offline_job(original, config, x, obf_first=k % 2 == 0)
        t = clock() - t0
        self.obf_s += shipped.obf_s
        self.orig_s += shipped.orig_s
        if k % DETERMINISM_EVERY == 0:  # untimed and untraced
            with paused(self.tracer):
                again = obfuscate_to_bytes(original, config)
            check(again == (shipped.model_bytes, shipped.bundle_bytes,
                            shipped.plan_bytes),
                  "same seed gave different model, bundle or plan bytes")
        return t

    def footprint(self) -> tuple[int, float]:
        peak = 0
        sizes = []
        for f, g in enumerate(self.originals):
            config = _config(derive_seed(self.seed, _FOOTPRINT_OBF, f),
                             FOOTPRINT_POINT)
            x = self.pool[f][0]
            box = []
            peak = max(peak, peak_alloc_bytes(
                lambda: box.append(offline_job(g, config, x, obf_first=True))))
            sizes.append(box[-1].artifact_bytes)
        return peak, float(np.mean(sizes))


WORKLOADS = {w.name: w for w in (ServeB1, Batch256, Toolchain)}
