import dataclasses
import re
import struct

import numpy as np
import pytest

from nnobf.bundle import (
    BundleRecord,
    KernelBundle,
    decode_decoy_shape,
    encode_decoy_shape,
    load_bundle,
    serialize_bundle,
)
from nnobf.errors import InvariantViolation, MalformedPlan, TruncatedSection
from nnobf.model_format import DECOY_SENTINEL, BuiltinOp, DType, NP_DTYPE
from nnobf.obfuscator import (
    ObfuscationConfig,
    ObfuscationPlan,
    obfuscate,
    plan_from_json,
    plan_to_json,
)


def record_offsets(blob: bytes) -> list[dict]:
    """Walk a serialized bundle; per record, the offsets of its name, code,
    options length and each weight's dtype byte."""
    (count,) = struct.unpack_from("<I", blob, 8)
    pos = 12
    out = []
    for _ in range(count):
        rec = {"name": pos}
        pos += 4 + struct.unpack_from("<I", blob, pos)[0]
        rec["code"] = pos
        rec["options"] = pos + 2
        pos += 2 + 4 + struct.unpack_from("<I", blob, pos + 2)[0]
        pos += 4 + 4 * struct.unpack_from("<I", blob, pos)[0]
        (n_weights,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        rec["weights"] = []
        for _ in range(n_weights):
            rec["weights"].append(pos)
            pos += 1 + 4 + 4 * struct.unpack_from("<I", blob, pos + 1)[0]
            pos += 8 + struct.unpack_from("<Q", blob, pos)[0]
        out.append(rec)
    assert pos == len(blob)
    return out


def _first_weight(blob):
    return next(w for r in record_offsets(blob) for w in r["weights"])


def unknown_builtin_code(blob):
    at = record_offsets(blob)[0]["code"]
    return blob[:at] + struct.pack("<H", 200) + blob[at + 2:]


def bad_decoy_options(blob):
    at = next(r["options"] for r in record_offsets(blob)
              if struct.unpack_from("<H", blob, r["code"])[0] == DECOY_SENTINEL)
    rank = blob[at + 4]
    return blob[:at + 4] + bytes([rank + 1]) + blob[at + 5:]


def unknown_dtype(blob):
    at = _first_weight(blob)
    return blob[:at] + b"\x09" + blob[at + 1:]


def shape_too_big(blob):
    at = _first_weight(blob) + 5
    (dim,) = struct.unpack_from("<I", blob, at)
    return blob[:at] + struct.pack("<I", dim + 1) + blob[at + 4:]


def data_not_whole_elements(blob):
    at = _first_weight(blob)
    at += 5 + 4 * struct.unpack_from("<I", blob, at + 1)[0]
    (n,) = struct.unpack_from("<Q", blob, at)
    end = at + 8 + n
    return blob[:at] + struct.pack("<Q", n - 1) + blob[at + 8:end - 1] + blob[end:]


def name_not_utf8(blob):
    at = record_offsets(blob)[0]["name"] + 4
    return blob[:at] + b"\xff" + blob[at + 1:]


def truncated(blob):
    return blob[:-1]


def trailing_bytes(blob):
    return blob + b"\x00"


# corruption -> the error load_bundle raises for it
CORRUPTIONS = {
    unknown_builtin_code: InvariantViolation,
    bad_decoy_options: InvariantViolation,
    unknown_dtype: InvariantViolation,
    shape_too_big: InvariantViolation,
    data_not_whole_elements: InvariantViolation,
    name_not_utf8: InvariantViolation,
    truncated: TruncatedSection,
    trailing_bytes: TruncatedSection,
}


@pytest.fixture
def lenet_bundle(lenet):
    _, bundle, _ = obfuscate(
        lenet, ObfuscationConfig(seed=5, n_shortcuts=2, n_extra_layers=2))
    return serialize_bundle(bundle)


def test_record_walker_sees_every_record(lenet_bundle):
    offsets = record_offsets(lenet_bundle)
    assert len(offsets) == len(load_bundle(lenet_bundle).records)
    assert sum(len(r["weights"]) for r in offsets) == 4


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda f: f.__name__)
def test_corrupted_bundle_raises(lenet_bundle, corrupt):
    with pytest.raises(CORRUPTIONS[corrupt]):
        load_bundle(corrupt(lenet_bundle))


def _one_record_bundle(code, options):
    return serialize_bundle(KernelBundle(
        {"Abcdef": BundleRecord(code, options, (0,), ())}))


def test_one_record_bundle_golden_bytes():
    """The wire layout of the bundle docstring, written out by hand."""
    blob = _one_record_bundle(DECOY_SENTINEL, encode_decoy_shape((2, 3)))
    assert blob == bytes.fromhex(
        "4f424642" "01000000"                   # magic "OBFB", version 1
        "01000000"                              # 1 record:
        "06000000" "416263646566"               #   name "Abcdef"
        "feff"                                  #   code DECOY_SENTINEL
        "09000000" "02" "02000000" "03000000"   #   options: shape (2, 3)
        "01000000" "00000000"                   #   true inputs (0,)
        "00000000")                             #   0 weights


def test_weight_golden_bytes():
    record = BundleRecord(int(BuiltinOp.DENSE), b"\x00", (),
                          (np.array([[7], [-1]], dtype=np.int32),))
    blob = serialize_bundle(KernelBundle({"Abcdef": record}))
    assert blob[-33:] == bytes.fromhex(
        "01000000"                              # 1 weight:
        "01"                                    #   dtype I32
        "02000000" "02000000" "01000000"        #   dims (2, 1)
        "0800000000000000"                      #   u64 len 8
        "07000000" "ffffffff")                  #   data 7, -1


@pytest.mark.parametrize("options", [b"", b"\x05\x01", b"\x01" + bytes(5),
                                     encode_decoy_shape((2, 3)) + b"\x00"])
def test_decoy_options_must_encode_a_shape(options):
    problem = f"{len(options)} option bytes do not encode a shape$"
    with pytest.raises(InvariantViolation, match="^decoy record 'Abcdef': " + problem):
        load_bundle(_one_record_bundle(DECOY_SENTINEL, options))
    with pytest.raises(InvariantViolation, match="^decoy: " + problem):
        decode_decoy_shape(options)


@pytest.mark.parametrize("code", [0, 13, 0xFFFF])
def test_unknown_record_code_is_rejected(code):
    with pytest.raises(InvariantViolation):
        load_bundle(_one_record_bundle(code, b""))


@pytest.mark.parametrize("shape", [(257, 256), (65_537,), (1 << 16, 1 << 16),
                                   (2**32 - 1,) * 4])
def test_oversized_decoy_is_rejected(shape):
    record = BundleRecord(DECOY_SENTINEL, encode_decoy_shape(shape), (), ())
    message = re.escape(f"decoy record 'Abcdef': shape {shape} exceeds 65536 elements")
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        load_bundle(serialize_bundle(KernelBundle({"Abcdef": record})))
    plan = ObfuscationPlan(ObfuscationConfig(seed=3), records={"Abcdef": record})
    with pytest.raises(MalformedPlan, match="exceeds 65536 elements"):
        plan_from_json(plan_to_json(plan))


def test_decoy_and_builtin_records_load():
    for code, options in ((DECOY_SENTINEL, encode_decoy_shape((2, 3))),
                          (DECOY_SENTINEL, encode_decoy_shape(())),
                          (DECOY_SENTINEL, encode_decoy_shape((256, 256))),
                          (int(BuiltinOp.RELU), b"")):
        rec = load_bundle(_one_record_bundle(code, options)).records["Abcdef"]
        assert (rec.real_builtin_code, rec.real_options) == (code, options)


def test_every_dtype_round_trips_through_bundle_and_plan():
    weights = (np.arange(6, dtype=np.float32).reshape(2, 3) - np.float32(2.5),
               np.array([-7, 0, 2**31 - 1], dtype=np.int32),
               np.arange(250, 256, dtype=np.uint8).reshape(1, 2, 3))
    assert [w.dtype for w in weights] == [NP_DTYPE[d] for d in DType]
    record = BundleRecord(int(BuiltinOp.DENSE), b"\x00", (0,), weights)
    bundle = KernelBundle({"Abcdef": record})
    plan = ObfuscationPlan(ObfuscationConfig(seed=3), records={"Abcdef": record})
    for loaded in (load_bundle(serialize_bundle(bundle)).records["Abcdef"],
                   plan_from_json(plan_to_json(plan)).records["Abcdef"]):
        assert len(loaded.weights) == 3
        for got, want in zip(loaded.weights, weights):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_a_record_never_equals_another_type():
    rec = BundleRecord(int(BuiltinOp.RELU), b"", (0,), ())
    assert (rec == 5) is False
    assert rec == BundleRecord(int(BuiltinOp.RELU), b"", (0,), ())


def test_bundle_and_records_are_frozen(lenet_bundle):
    source = dict(load_bundle(lenet_bundle).records)
    bundle = KernelBundle(source)
    name, rec = next(iter(source.items()))
    with pytest.raises(TypeError):
        bundle.records[name] = rec
    with pytest.raises(TypeError):
        del bundle.records[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        bundle.records = {}
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.real_options = b""
    # the bundle keeps a private copy: editing the mapping given changes nothing
    del source[name]
    assert name in bundle.records and len(bundle.records) == len(source) + 1
    # a plan's records stay a plain dict, which the obfuscator's passes edit
    plan = plan_from_json(plan_to_json(ObfuscationPlan(
        ObfuscationConfig(seed=3), records=dict(bundle.records))))
    assert plan.records == bundle.records
    del plan.records[name]
