"""nnobf benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload serve-b1 --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, a closed loop with one caller.

``--trace 0`` runs operations for ``--seconds`` in slices, setting up once
before each slice (set-up time is the median of the set-ups), then takes the
untimed overhead, memory and artifact passes, and prints the end-to-end
metrics.  Every time it reports is scaled to reference host speed by a
calibration unit run next to it (see ``calibrate``); the unscaled figures
are in the ``env`` line.  ``--trace 1`` sets up
once with the layer tracer on, runs the same untraced window, then a fixed
number of traced operations, each next to an untraced twin, and prints the
per-layer metrics: totals over the traced set-up and the traced operations.  Spans are written to
``perfbench/out/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only if every check passed.  See RATIONALE.md for why
each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import traceback
import warnings
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

try:
    import numpy as np

    import nnobf
    import harness
    import tracing
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import nnobf from {ROOT / 'src'}: {exc}\n")
    sys.exit(2)
if Path(nnobf.__file__).resolve().parent.parent != ROOT / "src":
    sys.stderr.write(f"perfbench: nnobf comes from {nnobf.__file__}, "
                     f"not from this checkout's src/\n")
    sys.exit(2)

DEFAULT_SEED = 0
# Times are reported at reference host speed: scaled by CAL_REFERENCE_S over
# what a calibration unit (see calibrate) takes next to them.  The reference
# is about what a unit took on the VM the benchmark was defined on.
CAL_STEPS = 10
CAL_UNITS = 6
CAL_EVERY_S = 0.01  # calibrate once this much time has passed since the last
CAL_REFERENCE_S = 8e-5
_CAL_X = np.random.default_rng(0).random((64, 64), dtype=np.float32)
DIGESTS = HERE / "digests.json"
SHORTCUT_WARNING = "no free shortcut pair"

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "obf_overhead_ratio": "ratio",
    "peak_alloc_kib": "KiB",
    "artifact_bytes": "bytes",
    "success_frac": "fraction",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for kind in tracing.KERNEL_KINDS:
        units.update({f"kernels.{kind}.ms": "ms", f"kernels.{kind}.calls": "count",
                      f"kernels.{kind}.mflop": "MFLOP_shape",
                      f"kernels.{kind}.mbytes": "MB_shape"})
    units.update({
        "interpreter.run.ms": "ms",
        "interpreter.self_ms": "ms",
        "interpreter.self_us_per_op": "us",
        "interpreter.kernel_share": "fraction",
        "interpreter.decode_options.ms": "ms",
        "interpreter.decode_options.calls": "count",
        "interpreter.decoy_ops": "count",
        "interpreter.peak_live_bytes": "bytes",
        "model_format.serialize_model.ms": "ms",
        "model_format.parse_model.ms": "ms",
        "model_format.validate.ms": "ms",
        "bundle.serialize_bundle.ms": "ms",
        "bundle.load_bundle.ms": "ms",
    })
    units.update({f"obfuscator.{fn}.ms": "ms" for fn in tracing.OBFUSCATOR_FNS})
    units.update({
        "obfuscator.shortcuts_achieved_ratio": "ratio",
        "obfuscator.extra_layers_achieved_ratio": "ratio",
        "obfuscator.shortcut_warnings": "count",
        "similarity.to_labeled_graph.ms": "ms",
        "similarity.propagation_kernel.ms": "ms",
        "similarity.nodes": "count",
        "extractor.parse_in_buffer.ms": "ms",
        "extractor.convert.ms": "ms",
        "trace.overhead_ms": "ms",
    })
    return units


PER_LAYER = per_layer_units()


class Tally:
    """Checked operations attempted and failed; prints the first failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, fn, *args):
        """Call ``fn(*args)``; any exception counts as one failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # the loop must go on; the failure is reported
            if not self.failed:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None


def git_rev(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def digest_key() -> str:
    """Reference digests hold for one NumPy build and SIMD level: softmax's
    float32 exp may round differently elsewhere."""
    try:
        from numpy._core import _multiarray_umath as umath
        enabled = [d for d in umath.__cpu_dispatch__ if umath.__cpu_features__.get(d)]
        simd = enabled[-1] if enabled else "baseline"
    except (ImportError, AttributeError):
        simd = "unknown"
    return f"numpy-{np.__version__}/{platform.machine()}/{simd}"


def reference_digests(workload: harness.Workload, tally: Tally) -> str:
    """Compare the default seed's serving outputs with the stored digest."""
    outputs = workload.reference_outputs()
    if outputs is None or workload.seed != DEFAULT_SEED:
        return "not applicable"
    stored = json.loads(DIGESTS.read_text()).get(digest_key(), {})
    if workload.name not in stored:
        return f"no reference for {digest_key()}; skipped"
    tally.record(lambda: harness.check(
        harness.outputs_digest(outputs) == stored[workload.name],
        f"{workload.name} output digest differs from {DIGESTS.name}"))
    return "checked"


def record_digests() -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = {}
    for cls in (harness.ServeB1, harness.Batch256):
        w = cls(DEFAULT_SEED)
        w.setup()
        entry[w.name] = harness.outputs_digest(w.reference_outputs())
    table[digest_key()] = entry
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(json.dumps({digest_key(): entry}))


def calibrate() -> float:
    """Seconds that one calibration unit takes now.

    The unit is fixed work of the kind nnobf's interpreter does: small NumPy
    operations under Python dispatch.  It uses no nnobf code, so a change to
    the program does not move it; only the host's speed does.  Right after a
    large operation the first units run slow, by an amount that depends on
    the operation (cold caches, among other things), so ``CAL_UNITS`` units
    run and the median of the second half is returned.  That tracks the
    workloads' own slowdowns as closely as the first unit does.
    """
    times = []
    for _ in range(CAL_UNITS):
        x = _CAL_X
        t0 = harness.clock()
        for _ in range(CAL_STEPS):
            x = np.maximum(x @ _CAL_X * np.float32(1 / 32), 0)
        times.append(harness.clock() - t0)
    return statistics.median(times[CAL_UNITS // 2:])


def host_scale(cal: list[float]) -> float:
    """Factor that takes a time measured next to ``cal`` to reference speed."""
    return CAL_REFERENCE_S / statistics.median(cal)


def measure(workload: harness.Workload, seconds: float, tally: Tally,
            samples: list[float], cal: list[float], k: int = 0) -> int:
    """Closed loop for ``seconds``, calibrating every ``CAL_EVERY_S``.

    Appends the latency of each passed operation to ``samples``, and to
    ``cal`` the latest calibration taken before it.  Returns the index of
    the next operation, so a window can be measured in slices.
    """
    gc.collect()
    gc.disable()
    try:
        deadline = harness.clock() + seconds
        last = -CAL_EVERY_S
        while (now := harness.clock()) < deadline:
            if now - last >= CAL_EVERY_S:
                host, last = calibrate(), now
            t = tally.record(workload.op, k)
            if t is not None:
                samples.append(t)
                cal.append(host)
            k += 1
    finally:
        gc.enable()
    return k


def at_reference_speed(samples: list[float], cal: list[float],
                       block: int) -> list[float]:
    """Each latency scaled by the host speed of its block of operations."""
    return [t * host_scale(cal[i:i + block])
            for i in range(0, len(samples), block)
            for t in samples[i:i + block]]


def percentiles_ms(samples: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(samples, n=10)
    return statistics.median(samples) * 1e3, deciles[8] * 1e3


def timed_run(cls, seed: int, seconds: float, tally: Tally, env: dict) -> dict:
    """Cut the window into ``cls.setups`` slices and set up before each; a
    slice measures the workload set up just before it.  Each serving set-up
    ships its own obfuscation of the fixtures, so a run's figures cover
    several obfuscations (and memory layouts), not one."""
    setup_s, raw_setup_s = [], []

    def set_up(draw: int) -> harness.Workload:
        fresh = cls(seed, draw=draw)
        gc.collect()
        before = calibrate()
        t0 = harness.clock()
        fresh.setup()
        t = harness.clock() - t0
        raw_setup_s.append(t)
        setup_s.append(t * host_scale([before, calibrate()]))
        return fresh

    workload = set_up(0)
    env["digest"] = reference_digests(workload, tally)
    samples: list[float] = []
    cal: list[float] = []
    k = 0
    for i in range(cls.setups):
        if i:
            fresh = set_up(i)
            fresh.carry(workload)
            workload = fresh
        k = measure(workload, seconds / cls.setups, tally, samples, cal, k)
        tally.record(workload.end_slice)
    ratio = tally.record(workload.overhead_ratio)
    footprint = tally.record(workload.footprint)
    env["setups"] = len(setup_s)
    env["samples"] = len(samples)
    env["raw_setup_s"] = statistics.median(raw_setup_s)
    values = {"setup_s": statistics.median(setup_s), "obf_overhead_ratio": ratio}
    if len(samples) >= 2:
        scaled = at_reference_speed(samples, cal, cls.block_ops)
        p50, p90 = percentiles_ms(scaled)
        env["samples_beyond_p90"] = sum(1 for t in scaled if t * 1e3 > p90)
        env["host_speed"] = 1 / host_scale(cal)
        env["raw_latency_p50_ms"], env["raw_latency_p90_ms"] = percentiles_ms(samples)
        values.update({
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "throughput_per_s": cls.rows * len(scaled) / sum(scaled),
        })
    values.update({
        "peak_alloc_kib": footprint[0] / 1024 if footprint else None,
        "artifact_bytes": footprint[1] if footprint else None,
        "success_frac": 1.0 - tally.failed / tally.attempted,
    })
    return {k: v for k, v in values.items() if v is not None}


def _shortcut_warnings(caught: list) -> int:
    return sum(1 for w in caught if str(w.message).startswith(SHORTCUT_WARNING))


def traced_run(cls, seed: int, seconds: float, tally: Tally, env: dict,
               caught: list) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = cls(seed, tracer)
        tracer.active = True
        warned = len(caught)
        workload.setup()
        tracer.active = False
        setup_warnings = caught[warned:]
        env["digest"] = reference_digests(workload, tally)
        measure(workload, seconds, tally, [], [])
        shortcut_warnings = _shortcut_warnings(setup_warnings)
        traced, twins = [], []
        gc.collect()
        gc.disable()  # as in measure()
        try:
            for k in range(cls.traced_ops):
                # the overhead's baseline is an untraced twin of each traced
                # operation, run just before it on odd k and just after on even
                if k % 2:
                    twins.append(tally.record(workload.op, k))
                warned = len(caught)
                tracer.op_id = k
                tracer.active = True
                traced.append(tally.record(workload.op, k))
                tracer.active = False
                shortcut_warnings += _shortcut_warnings(caught[warned:])
                if not k % 2:
                    twins.append(tally.record(workload.op, k))
        finally:
            gc.enable()
    finally:
        tracer.uninstall()
    env["unpatched"] = tracer.unpatched
    env["traced_ops"] = cls.traced_ops
    tracer.write(HERE / "out" / f"spans-{cls.name}-seed{seed}.jsonl", env)
    values = tracing.layer_metrics(tracer.spans)
    values["obfuscator.shortcut_warnings"] = shortcut_warnings
    if None not in traced + twins:
        values["trace.overhead_ms"] = (statistics.median(traced)
                                       - statistics.median(twins)) * 1e3
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the default seed's serving-output digests "
                             "for this NumPy build and exit")
    args = parser.parse_args(argv)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cls = harness.WORKLOADS[args.workload]
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count(), "git_rev": git_rev(ROOT),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": bool(args.trace)}
    tally = Tally()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # count every warning, hide none
        if args.trace:
            values = traced_run(cls, args.seed, args.seconds, tally, env, caught)
            units = PER_LAYER
            print(json.dumps({"note": "kernels.*.mflop and kernels.*.mbytes are "
                              "computed from tensor shapes, not measured"}))
        else:
            values = timed_run(cls, args.seed, args.seconds, tally, env)
            units = END_TO_END
        env["warnings"] = len(caught)
    absent = [name for name in units if name not in values]
    if absent:
        env["absent"] = absent
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if tally.failed == 0 and not absent else 1


if __name__ == "__main__":
    sys.exit(main())
