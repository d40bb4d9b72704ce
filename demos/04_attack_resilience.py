"""Replay the three parsing-attack classes against each strategy subset.

Rows are obfuscation subsets (injection rows include their rename and
encapsulation prerequisites); columns count, over the five fixtures, how
often each attack still succeeds:

* convert      - map every operator into a neutral interchange format
* buffer-parse - read layer types, shapes, and weights straight off the file
* surrogate    - pick the true original out of a 15-model zoo by combined
                 structure and weight-statistics matching
"""

from nnobf import build_fixture
from nnobf.extractor import attack_matrix, build_default_zoo
from nnobf.fixtures import FIXTURE_NAMES

models = [(f"{name}#11", build_fixture(name, 11)) for name in FIXTURE_NAMES]
zoo = build_default_zoo()

print(f"{'strategies':26s} {'convert':>8s} {'buffer':>8s} {'surrogate':>10s}")
for row in attack_matrix(models, zoo, seed=3):
    print(f"{row.label:26s} {row.convert_successes:5d}/{row.total}"
          f" {row.buffer_successes:5d}/{row.total}"
          f" {row.surrogate_successes:7d}/{row.total}")

print("\nanything custom-coded defeats conversion outright; removing the")
print("weights is what breaks surrogate identification, because structure")
print("alone cannot tell same-architecture zoo entries apart.")
