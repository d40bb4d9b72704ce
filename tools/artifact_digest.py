"""SHA-256 over every artifact the obfuscator writes, across a fixed sweep.

    PYTHONPATH=src python3 tools/artifact_digest.py

For each fixture (in ``FIXTURE_NAMES`` order), weight seed 0 and 1,
obfuscation seed 0-11, n1 = n2 in (0, 1, 3, 10, 20, 30, 60) and each
``ShapeStrategy`` (in declaration order), the sweep takes
``serialize_model(public)``, ``emit_bundle(plan)`` and the UTF-8 bytes of
``plan_to_json(plan)``, loops nested as listed.  It prints one digest per
artifact kind, over that kind's bytes in sweep order, then the combined
digest over all three, taken in that order per obfuscation.  A change
that keeps the combined digest writes the same bytes for all 1,680
obfuscations; the per-kind digests show which artifact a change moved.
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


KINDS = ("model", "bundle", "plan")


def digests() -> dict[str, str]:
    """Hex SHA-256 per artifact kind, then ``combined`` over all three."""
    hashes = {kind: hashlib.sha256() for kind in (*KINDS, "combined")}
    for name in FIXTURE_NAMES:
        for weight_seed in (0, 1):
            graph = build_fixture(name, weight_seed)
            for seed in range(12):
                for n in COUNTS:
                    for strategy in ShapeStrategy:
                        public, _, plan = obfuscate(
                            graph, ObfuscationConfig(seed, n, n, strategy))
                        for kind, data in zip(KINDS, (
                                serialize_model(public), emit_bundle(plan),
                                plan_to_json(plan).encode("utf-8"))):
                            hashes[kind].update(data)
                            hashes["combined"].update(data)
    return {kind: h.hexdigest() for kind, h in hashes.items()}


if __name__ == "__main__":
    # saturated shortcut and shared-constant warnings are expected here
    warnings.simplefilter("ignore")
    for kind, hexdigest in digests().items():
        print(f"{kind:<8} {hexdigest}")
