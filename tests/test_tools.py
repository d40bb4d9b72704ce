"""The repository's measurement tools, on synthetic input."""

import importlib.util
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary_entry(parent, change, bound, won=10):
    """One metric of a ``bench_pairs`` summary over 10 pairs: each side's
    median and quartiles as ``(q1, median, q3)``."""
    def side(q):
        return {"q1": q[0], "median": q[1], "q3": q[2], "runs": []}

    return {"parent": side(parent), "change": side(change),
            "rel_change": (change[1] - parent[1]) / parent[1],
            "change_won_pairs": won, "bound": bound}


def test_gains_need_more_than_a_zero_spread_gap():
    gains = load_tool("bench_pairs").gains
    metrics = {
        # 44.5 -> 44.4375 KiB (-0.14%) against no spread: not a gain
        "peak_alloc_kib": summary_entry((44.5,) * 3, (44.4375,) * 3, 0.05),
        # -12% against no spread, beyond the 5% bound: a gain
        "artifact_bytes": summary_entry((1000.0,) * 3, (880.0,) * 3, 0.05),
        # with spread the interquartile rule holds as before: +4.9% is a gain
        # inside the bound, and a gap inside the spread is none
        "throughput_per_s": summary_entry((2800.0, 2861.0, 2900.0),
                                          (2950.0, 3000.0, 3050.0), 0.25),
        "latency_p50_ms": summary_entry((0.30, 0.313, 0.34), (0.29, 0.30, 0.31), 0.25),
        # nine wins in ten still count, eight do not
        "setup_s": summary_entry((2.0,) * 3, (1.0,) * 3, 0.25, won=9),
        "latency_p90_ms": summary_entry((2.0,) * 3, (1.0,) * 3, 0.25, won=8),
    }
    found = gains({"serve-b1": {"pairs": 10, "metrics": metrics}})
    assert [line.split(":")[0] for line in found] == [
        "serve-b1 artifact_bytes", "serve-b1 throughput_per_s", "serve-b1 setup_s"]


def test_compile_cost_prints_medians(capsys):
    assert load_tool("compile_cost").main(["--fixtures", "mlp", "--rounds", "2"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["fixture", "load_us", "compile_us"]
    assert [row[0] for row in rows] == ["mlp", "all"]
    assert all(float(row[1]) > 0 and float(row[2]) > 0 for row in rows)
    assert len(rows[0]) == 3 and rows[1][3:] == ["(8", "pairs)"]


def test_line_coverage_lists_lines_never_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_coverage.py"),
         str(ROOT / "tests" / "test_bundle.py"), "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()
    missed, total = map(int, re.fullmatch(
        r"total (\d+) of (\d+) executable lines never ran", rows[-1]).groups())
    assert 0 < missed < total
    listed = {row.split()[0]: int(row.split()[1]) for row in rows
              if row.startswith("src/nnobf/")}
    # the bundle tests never touch the CLI, and run most of the bundle codec
    cli = ROOT / "src" / "nnobf" / "cli.py"
    assert listed["src/nnobf/cli.py"] == len(
        load_tool("line_coverage").executable_lines(cli))
    assert listed.get("src/nnobf/bundle.py", 0) < 10
    assert sum(listed.values()) == missed


def test_artifact_bytes_match_the_recorded_digests():
    # every fixture (weight seed 0), obfuscation seeds 0 and 1, n1 = n2 in
    # (0, 20), each ShapeStrategy: the digests are the same since the artifact
    # formats last moved; a change that moves artifact bytes on purpose
    # updates them and says so
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # saturated shortcuts
        found = load_tool("artifact_digest").digests((0,), (0, 1), (0, 20))
    assert found["combined"] == \
        "9a0b88af873f3528cf2f6f55f4e49e9b1f08a394aa10a37a8da672d21f824bf3"
    assert found["dump"] == \
        "72ce826937e1b98cb590b2c9be2cda1c1b08f7ae5cc5116856e72b7662dbfa1b"


def test_op_peaks_prints_rows(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_tool("op_peaks").main(["--fixtures", "mlp"]) == 0
    assert caught == []  # the tool silences mlp's saturated shortcuts
    lines = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("mlp ")]
    assert [lines[i].split(":")[0] for i in headers] == [
        "mlp obfuscated batch 1", "mlp original batch 1"]
    for i in headers:
        figures = [float(f) for f in re.findall(r"(-?[\d.]+) KiB", lines[i])]
        assert len(figures) == 3 and min(figures) >= 0
        rows = [line.split() for line in lines[i + 2:i + 6]]
        assert [row[0] for row in rows] == ["DENSE"] * 3 + ["SOFTMAX"]
        assert all(float(row[1]) >= 0 and float(row[2]) >= 0 for row in rows)
    assert len(lines) == 2 * 6
