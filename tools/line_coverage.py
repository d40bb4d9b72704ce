"""Line coverage of ``src/nnobf`` under a pytest run: the lines that never ran.

    PYTHONPATH=src python3 tools/line_coverage.py [pytest args]

It installs a ``sys.settrace`` line collector (and ``threading.settrace``
for threads started later) that traces only frames of files under
``src/nnobf``, runs ``pytest.main`` in-process with the given arguments,
then prints one row per module that has executable lines that never ran:
the module, their count and the lines themselves, as ranges.  A last row
gives the totals.  A line is executable when a compiled code object of its
module names it in its line table (``co_lines``), so blank lines, comments,
docstrings and ``else:`` lines never count.  Modules are imported under the
collector, so their top-level lines count as run; code that only runs in a
subprocess (the CLI tests, the demos) reads as never run.  Tracing makes the
run about twice as slow.  The exit status is pytest's.  Standard library
plus pytest.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nnobf"


def executable_lines(path: Path) -> set[int]:
    """Every line a code object compiled from ``path`` attributes code to."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo += (c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def collect(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``argv`` under the collector: its exit status and the
    lines run, per absolute path of a module under ``src/nnobf``."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, set[int]] = {}
    keep: dict[str, set[int] | None] = {}  # co_filename -> its hits, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in keep:
            path = os.path.realpath(name)
            keep[name] = (hits.setdefault(path, set())
                          if path.startswith(prefix) else None)
        seen = keep[name]
        if seen is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line
        seen.add(frame.f_lineno)
        return line

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def ranges(lines: list[int]) -> str:
    """``[3, 4, 5, 9]`` -> ``"3-5,9"``."""
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(f"{start}-{n}" if n != start else f"{n}")
            start = None
    return ",".join(out)


def main(argv: list[str] | None = None) -> int:
    status, hits = collect(sys.argv[1:] if argv is None else argv)
    missed_total = lines_total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        lines_total += len(lines)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)} {len(missed)} {ranges(missed)}")
    print(f"total {missed_total} of {lines_total} executable lines never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
