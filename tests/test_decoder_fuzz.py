"""Seeded mutation fuzz over the three artifact decoders.

Each case changes 1-4 random bytes of a lenet (30, 30) artifact and decodes
the result.  Decoding may succeed (a mutated weight byte is still a weight)
or fail, but every failure must be an ``NnobfError``: never a bare
``ValueError``, ``UnicodeDecodeError``, ``IndexError`` or ``struct.error``.
"""

import random

import pytest

from nnobf.bundle import load_bundle, serialize_bundle
from nnobf.errors import NnobfError, TruncatedSection
from nnobf.fixtures import build_fixture
from nnobf.model_format import parse_model, serialize_model
from nnobf.obfuscator import (
    ObfuscationConfig,
    obfuscate,
    plan_from_json,
    plan_to_json,
)

CASES = 500


@pytest.fixture(scope="module")
def artifacts():
    public, bundle, plan = obfuscate(
        build_fixture("lenet", 0),
        ObfuscationConfig(seed=0, n_shortcuts=30, n_extra_layers=30))
    return {"model": serialize_model(public),
            "bundle": serialize_bundle(bundle),
            "plan": plan_to_json(plan).encode("ascii")}


DECODERS = {
    "model": parse_model,
    "bundle": load_bundle,
    # latin-1 maps every byte to one character, so a mutated plan still
    # reaches the JSON and base64 layers
    "plan": lambda data: plan_from_json(data.decode("latin-1")),
}


def mutate(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


@pytest.mark.parametrize("kind", DECODERS)
def test_mutated_artifacts_raise_only_nnobf_errors(artifacts, kind):
    decode, data = DECODERS[kind], artifacts[kind]
    decode(data)  # the unmutated artifact decodes
    rng = random.Random(f"fuzz-{kind}")
    escapes = []
    rejected = 0
    for case in range(CASES):
        try:
            decode(mutate(data, rng))
        except NnobfError:
            rejected += 1
        except Exception as e:  # noqa: BLE001 - the escapes are the finding
            escapes.append(f"case {case}: {type(e).__name__}: {e}")
    assert not escapes, "\n".join(escapes[:10])
    assert rejected > 0


@pytest.mark.parametrize("kind", ["model", "bundle"])
def test_every_strict_prefix_and_a_trailing_byte_are_truncations(artifacts,
                                                                 kind):
    decode, data = DECODERS[kind], artifacts[kind]
    for cut in range(len(data)):
        with pytest.raises(TruncatedSection):
            decode(data[:cut])
    with pytest.raises(TruncatedSection):
        decode(data + b"\x00")
