"""Paired perfbench runs of a parent commit and the working tree, as JSON.

    python3 tools/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 30 \\
        --out BENCH_7.json

For each workload, pair k runs ``perfbench/run.py --workload W --seconds S``
once from each side, back to back, parent first when k is even.  The parent
runs from a ``git archive`` of ``--parent`` unpacked in a temporary
directory, which leaves nothing behind in ``.git``; the change runs from
this checkout.  The output holds, per workload and end-to-end metric, both
sides' runs, medians and quartiles, the relative change of the medians, the
number of pairs the change won, and whether the change stays within the
metric's ``BENCHMARK.json`` bound; per workload, the failed operations; the
``env`` line of each side's first run, with ``git_rev`` set to the side's
commit (``+uncommitted`` when the working tree differs from it) and
``src_lines`` to the line count of the side's ``src/`` Python files; and, as
``claim``, every metric on which the change won at least nine pairs in ten
and moved its median by more than the parent's interquartile range (by
more than the metric's bound, relative, when that range is 0).

A metric is ``unresolved`` when the parent's interquartile range, relative
to its median, is wider than the metric's bound, unless every change run is
better than every parent run: within that spread, a median inside the bound
does not show the metric unchanged.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True)


def src_lines(checkout: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src").rglob("*.py"))


def run_once(checkout: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """One perfbench run; returns its result and env lines as one dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if not lines or "metrics" not in lines[-1]:
        raise SystemExit(f"{checkout}: perfbench {workload} printed no result "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = lines[-1]
    result["env"] = next((line["env"] for line in lines if "env" in line), {})
    return result


def summarize(runs: dict[str, list[dict]], spec: dict) -> dict:
    """Per-metric medians, quartiles and pair wins of both sides."""
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, med, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"median": med, "q1": q1, "q3": q3,
                           "runs": sorted(values[side])}
        base = entry["parent"]["median"]
        rel = (entry["change"]["median"] - base) / base if base else 0.0
        worse = rel if lower else -rel
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        spread = (entry["parent"]["q3"] - entry["parent"]["q1"]) / abs(base) if base else 0.0
        beats_all = (max(values["change"]) < min(values["parent"]) if lower
                     else min(values["change"]) > max(values["parent"]))
        entry.update({"rel_change": rel, "change_won_pairs": wins,
                      "bound": m["bound"], "within_bound": worse <= m["bound"],
                      "unresolved": spread > m["bound"] and not beats_all})
        metrics[name] = entry
    return metrics


def gains(workloads: dict) -> list[str]:
    """Metrics the change won on at least 90% of the pairs, with a median
    gap wider than the parent's interquartile range.  Where that range is 0,
    the relative change must exceed the metric's bound instead: against no
    spread, any nonzero gap would count."""
    found = []
    for workload, w in workloads.items():
        for name, e in w["metrics"].items():
            p, c = e["parent"], e["change"]
            gap, spread = abs(c["median"] - p["median"]), p["q3"] - p["q1"]
            wide = gap > spread if spread else abs(e["rel_change"]) > e["bound"]
            if e["change_won_pairs"] >= math.ceil(0.9 * w["pairs"]) and wide:
                found.append(
                    f"{workload} {name}: parent median {p['median']:.4g} "
                    f"[q1 {p['q1']:.4g}, q3 {p['q3']:.4g}] -> change {c['median']:.4g} "
                    f"({100 * e['rel_change']:+.1f}%); the change won "
                    f"{e['change_won_pairs']} of {w['pairs']} pairs and the gap of "
                    f"the medians ({gap:.4g}) exceeds the parent's interquartile "
                    f"range ({spread:.4g})")
    return found


def bench(parent: Path, args, spec: dict) -> dict:
    checkouts = {"parent": parent, "change": ROOT}
    out = {"env": {}, "workloads": {}}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        order = []
        for k in range(args.pairs):
            sides = SIDES if k % 2 == 0 else SIDES[::-1]
            order.append(sides[0])
            for side in sides:
                result = run_once(checkouts[side], workload, args.seconds, args.seed)
                runs[side].append(result)
                print(f"{workload} pair {k} {side}: "
                      + json.dumps({m: v["value"] for m, v in result["metrics"].items()}),
                      file=sys.stderr, flush=True)
        for side in SIDES:
            out["env"].setdefault(side, runs[side][0]["env"])
        out["workloads"][workload] = {
            "pairs": args.pairs,
            "first_side": order,
            "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
            "metrics": summarize(runs, spec),
        }
    for side in SIDES:
        out["env"][side]["src_lines"] = src_lines(checkouts[side])
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="commit to compare against")
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, help="perfbench seed (its default if unset)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    if rev.returncode:
        raise SystemExit(f"not a commit: {args.parent}")
    revs = {"parent": rev.stdout.decode().strip(),
            "change": git("rev-parse", "HEAD").stdout.decode().strip()}
    if git("diff", "--quiet", "HEAD").returncode:
        revs["change"] += "+uncommitted"
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], check=True,
                       input=git("archive", revs["parent"]).stdout)
        result = bench(Path(tmp), args, spec)
    for side in SIDES:
        result["env"][side]["git_rev"] = revs[side]
    found = gains(result["workloads"])
    doc = {"description": f"perfbench end-to-end metrics, parent {revs['parent']} "
                          f"vs change {revs['change']}; `python3 perfbench/run.py "
                          f"--workload W --seconds {args.seconds:g}`, pairs back to "
                          f"back, first side alternating (even pairs parent first); "
                          f"written by tools/bench_pairs.py",
           "claim": "; ".join(found) or "none: no metric won 90% of the pairs "
                                         "beyond the parent's interquartile range",
           "unresolved": [f"{workload} {name}"
                          for workload, w in result["workloads"].items()
                          for name, e in w["metrics"].items() if e["unresolved"]],
           "env_note": "perfbench's env line from each side's first run of the first "
                       "workload, git_rev set to the side's commit, src_lines to "
                       "the line count of the side's src/*.py",
           **result}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
