"""SHA-256 over every artifact the obfuscator writes, across a fixed sweep.

    PYTHONPATH=src python3 tools/artifact_digest.py

For each fixture (in ``FIXTURE_NAMES`` order), weight seed 0 and 1,
obfuscation seed 0-11, n1 = n2 in (0, 1, 3, 10, 20, 30, 60) and each
``ShapeStrategy`` (in declaration order), the digest takes
``serialize_model(public)``, ``emit_bundle(plan)`` and the UTF-8 bytes of
``plan_to_json(plan)``, in that order, loops nested as listed.  A change
that keeps this digest writes the same bytes for all 1,680 obfuscations.
Standard library plus nnobf.
"""

from __future__ import annotations

import hashlib
import warnings

from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.model_format import serialize_model
from nnobf.obfuscator import (
    ObfuscationConfig,
    ShapeStrategy,
    emit_bundle,
    obfuscate,
    plan_to_json,
)

COUNTS = (0, 1, 3, 10, 20, 30, 60)


def digest() -> str:
    h = hashlib.sha256()
    for name in FIXTURE_NAMES:
        for weight_seed in (0, 1):
            graph = build_fixture(name, weight_seed)
            for seed in range(12):
                for n in COUNTS:
                    for strategy in ShapeStrategy:
                        public, _, plan = obfuscate(
                            graph, ObfuscationConfig(seed, n, n, strategy))
                        h.update(serialize_model(public))
                        h.update(emit_bundle(plan))
                        h.update(plan_to_json(plan).encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    # saturated shortcut and shared-constant warnings are expected here
    warnings.simplefilter("ignore")
    print(digest())
