import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# 05_overhead.py is left out: it times what acceptance criterion 6 times
@pytest.mark.parametrize("demo", ["01_obfuscate_and_inspect.py",
                                  "02_bit_exact_equivalence.py",
                                  "03_structure_similarity.py",
                                  "04_attack_resilience.py"])
def test_demo_exits_0(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
