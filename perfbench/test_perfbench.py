"""Self-tests of the benchmark itself.

    python -m pytest perfbench -q

They run every workload briefly in-process, so they take about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it puts the checkout's src/ on the path)
import harness  # noqa: E402
import tracing  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
SEED = 5
DETERMINISTIC = (".calls", ".mflop", ".mbytes", "decoy_ops", "peak_live_bytes",
                 "similarity.nodes", "achieved_ratio", "shortcut_warnings",
                 "artifact_bytes", "peak_alloc_kib")


def _run(workload: str, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", "0.3", "--trace", str(trace)])
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """Two runs of every workload, traced and untraced, with one seed."""
    return {(w, t, rep): _run(w, t)
            for w in WORKLOADS for t in (0, 1) for rep in (0, 1)}


def test_declared_workloads_exist():
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_printed_metrics_match_declaration(results, workload, trace):
    code, res = results[(workload, trace, 0)]
    assert code == 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_deterministic_metrics_repeat(results, workload):
    for trace in (0, 1):
        first = results[(workload, trace, 0)][1]["metrics"]
        second = results[(workload, trace, 1)][1]["metrics"]
        names = [n for n in first if n.endswith(DETERMINISTIC)]
        assert names
        assert {n: first[n]["value"] for n in names} == \
            {n: second[n]["value"] for n in names}


def test_same_outputs_is_bit_exact():
    a = np.linspace(0, 1, 12, dtype=np.float32).reshape(3, 4)
    b = a.copy()
    assert harness.same_outputs([a], [b])
    b.flat[5] = np.nextafter(b.flat[5], np.float32(np.inf))
    assert not harness.same_outputs([a], [b])
    assert not harness.same_outputs([a], [a.astype(np.float64)])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_ulp_output_is_a_failure(workload, monkeypatch):
    """Nudge every obfuscated-model output by one ULP: each op must fail."""
    w = harness.WORKLOADS[workload](SEED)
    w.setup()
    real_run = harness.interpreter.run

    def nudged(graph, bundle, inputs, *args, **kwargs):
        outs, trace = real_run(graph, bundle, inputs, *args, **kwargs)
        if bundle is not None:
            outs = [o.copy() for o in outs]
            outs[0].flat[0] = np.nextafter(outs[0].flat[0], np.float32(np.inf))
        return outs, trace

    monkeypatch.setattr(harness.interpreter, "run", nudged)
    tally = run.Tally()
    for k in range(3):
        tally.record(w.op, k)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_scaling_takes_out_host_speed():
    """A block run at half speed, as its calibration shows, reads as fast
    as a block at reference speed; the program's own times are kept."""
    ref = run.CAL_REFERENCE_S
    samples = [1.0, 3.0, 2.0, 6.0]
    cal = [ref, ref, 2 * ref, 2 * ref]
    assert run.at_reference_speed(samples, cal, 2) == [1.0, 3.0, 1.0, 3.0]


def test_absent_span_is_not_zero():
    spans = [tracing.Span("model_format.parse_model", 0, 1000, -1, 0)]
    metrics = tracing.layer_metrics(spans)
    assert metrics == {"model_format.parse_model.ms": 0.001}


def test_fails_without_the_program(tmp_path):
    """Outside a source checkout the command fails and prints no result."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *DECLARED["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
