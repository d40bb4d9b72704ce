"""SHA-256 over every artifact the obfuscator writes, across a fixed sweep.

    PYTHONPATH=src python3 tools/artifact_digest.py

For each fixture (in ``FIXTURE_NAMES`` order), weight seed 0 and 1,
obfuscation seed 0-11, n1 = n2 in (0, 1, 3, 10, 20, 30, 60) and each
``ShapeStrategy`` (in declaration order), the sweep takes
``serialize_model(public)``, ``serialize_bundle(bundle)`` and the UTF-8 bytes of
``plan_to_json(plan)``, loops nested as listed (``digests`` takes the
seeds and counts as parameters, with these as defaults).  It prints one
digest per artifact kind, over that kind's bytes in sweep order, then the
combined digest over all three, taken in that order per obfuscation.  A change
that keeps the combined digest writes the same bytes for all 1,680
obfuscations; the per-kind digests show which artifact a change moved.

The ``dump`` digest checks the read side: it covers the UTF-8 bytes of
``dump_json(parse_model(data))`` for each fixture's serialized bytes, then
for each public model in sweep order.  It moves when parsing builds
different rows or ``options_to_dict`` reads options differently, and it is
not part of ``combined``.  Standard library plus nnobf.
"""

from __future__ import annotations

import hashlib
import warnings

from nnobf.bundle import serialize_bundle
from nnobf.fixtures import FIXTURE_NAMES, build_fixture
from nnobf.model_format import dump_json, parse_model, serialize_model
from nnobf.obfuscator import (
    ObfuscationConfig,
    ShapeStrategy,
    obfuscate,
    plan_to_json,
)

COUNTS = (0, 1, 3, 10, 20, 30, 60)


KINDS = ("model", "bundle", "plan")


def _dump(data: bytes) -> bytes:
    return dump_json(parse_model(data)).encode("utf-8")


def digests(weight_seeds=(0, 1), seeds=range(12), counts=COUNTS) -> dict[str, str]:
    """Hex SHA-256 per artifact kind, ``combined`` over all three, then
    ``dump`` over the parsed fixtures and public models, for the sweep over
    the given weight seeds, obfuscation seeds and n1 = n2 counts."""
    hashes = {kind: hashlib.sha256() for kind in (*KINDS, "combined", "dump")}
    for name in FIXTURE_NAMES:
        for weight_seed in weight_seeds:
            graph = build_fixture(name, weight_seed)
            hashes["dump"].update(_dump(serialize_model(graph)))
            for seed in seeds:
                for n in counts:
                    for strategy in ShapeStrategy:
                        public, bundle, plan = obfuscate(
                            graph, ObfuscationConfig(seed, n, n, strategy))
                        for kind, data in zip(KINDS, (
                                serialize_model(public), serialize_bundle(bundle),
                                plan_to_json(plan).encode("utf-8"))):
                            hashes[kind].update(data)
                            hashes["combined"].update(data)
                            if kind == "model":
                                hashes["dump"].update(_dump(data))
    return {kind: h.hexdigest() for kind, h in hashes.items()}


if __name__ == "__main__":
    # saturated shortcut and shared-constant warnings are expected here
    warnings.simplefilter("ignore")
    for kind, hexdigest in digests().items():
        print(f"{kind:<8} {hexdigest}")
