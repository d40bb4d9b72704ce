"""The repository's measurement tools, on synthetic input."""

import importlib.util
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
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["mlp", "all"]
    assert all(float(row[1]) > 0 and row[2] == "us" for row in rows)
    assert rows[1][3:] == ["(8", "compiles)"]
