"""Kernel bundle: the shipped sidecar that resolves custom operator names.

Each record maps one random custom name to the real kernel it stands for:
builtin code, real option bytes, the positions of true activation inputs in
the public operator's declared input list, and any encapsulated weights.
Decoy records carry DECOY_SENTINEL and encode only their output shape.

Wire format "OBFB", little-endian:

    magic "OBFB" | version u32=1 | record count u32
    per record: custom_name u32 len + UTF-8
                real_builtin_code u16
                options u32 len + bytes
                true input positions: index list
                n_weights u32, per weight: dtype u8, dims: index list,
                                           data u64 len + bytes

An index list is ``n u32`` followed by ``n`` u32 values, the same layout the
model file uses for operator inputs and tensor shapes, so one packer and one
reader serve both formats.

:func:`load_bundle` rejects, with :class:`~nnobf.errors.InvariantViolation`,
any record the runtime could not execute: a name that is not UTF-8, a code
that is neither a ``BuiltinOp`` nor ``DECOY_SENTINEL``, decoy options whose
length disagrees with their rank byte, a decoy shape of more than 65,536
elements (the runtime counts its size), an unknown dtype byte, and weight
data that is not exactly ``itemsize * prod(dims)`` bytes.  Records hold wire
data only; the runtime keeps no state in them.  Short input raises
:class:`~nnobf.errors.TruncatedSection`, a bad header
:class:`~nnobf.errors.BadMagic`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, InvariantViolation, TruncatedSection
from .model_format import (
    DECOY_SENTINEL,
    DTYPE_OF,
    NP_DTYPE,
    BuiltinOp,
    _pack_indices,
    _pack_str,
    _Reader,
)

BUNDLE_MAGIC = b"OBFB"
BUNDLE_VERSION = 1
# Largest decoy output, in elements, that load_bundle accepts.  The runtime
# counts every decoy's output size in its memory figures; the obfuscator
# draws at most 8 x 8.
_MAX_DECOY_ELEMENTS = 65_536


@dataclass
class BundleRecord:
    real_builtin_code: int
    real_options: bytes
    true_input_positions: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def is_decoy(self) -> bool:
        return self.real_builtin_code == DECOY_SENTINEL

    def decoy_shape(self) -> tuple[int, ...]:
        return decode_decoy_shape(self.real_options)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BundleRecord):
            return NotImplemented
        return (self.real_builtin_code == other.real_builtin_code
                and self.real_options == other.real_options
                and self.true_input_positions == other.true_input_positions
                and len(self.weights) == len(other.weights)
                and all(a.dtype == b.dtype and np.array_equal(a, b)
                        for a, b in zip(self.weights, other.weights)))


def encode_decoy_shape(shape: tuple[int, ...]) -> bytes:
    return struct.pack("<B", len(shape)) + struct.pack(f"<{len(shape)}I", *shape)


def decode_decoy_shape(raw: bytes, what: str = "decoy") -> tuple[int, ...]:
    """The shape decoy options encode; :class:`InvariantViolation` if they do
    not encode one or it has more than 65,536 elements.  ``run`` decodes
    through here too, so bundles built in process meet the same rules."""
    if not raw or len(raw) != 1 + 4 * raw[0]:
        raise InvariantViolation(
            f"{what}: {len(raw)} option bytes do not encode a shape")
    shape = struct.unpack(f"<{raw[0]}I", raw[1:])
    if math.prod(shape) > _MAX_DECOY_ELEMENTS:
        raise InvariantViolation(
            f"{what}: shape {shape} exceeds {_MAX_DECOY_ELEMENTS} elements")
    return shape


@dataclass
class KernelBundle:
    records: dict[str, BundleRecord]
    version: int = BUNDLE_VERSION

    def __eq__(self, other) -> bool:
        if not isinstance(other, KernelBundle):
            return NotImplemented
        return self.version == other.version and self.records == other.records


def serialize_bundle(bundle: KernelBundle) -> bytes:
    out = [BUNDLE_MAGIC, struct.pack("<I", bundle.version),
           struct.pack("<I", len(bundle.records))]
    for name, rec in bundle.records.items():
        out.append(_pack_str(name))
        out.append(struct.pack("<HI", rec.real_builtin_code,
                               len(rec.real_options)))
        out.append(rec.real_options)
        out.append(_pack_indices(rec.true_input_positions))
        out.append(struct.pack("<I", len(rec.weights)))
        for w in rec.weights:
            data = np.ascontiguousarray(w).tobytes()
            out.append(struct.pack("<B", int(DTYPE_OF[w.dtype])))
            out.append(_pack_indices(w.shape))
            out.append(struct.pack("<Q", len(data)))
            out.append(data)
    return b"".join(out)


def load_bundle(data: bytes) -> KernelBundle:
    r = _Reader(data)
    if r.take(4) != BUNDLE_MAGIC:
        raise BadMagic(f"expected {BUNDLE_MAGIC!r} header")
    version = r.u32()
    if version != BUNDLE_VERSION:
        raise BadMagic(f"unsupported bundle version {version}")
    records: dict[str, BundleRecord] = {}
    for _ in range(r.u32()):
        name = r.string()
        code = r.u16()
        options = r.take(r.u32())
        if code == DECOY_SENTINEL:
            decode_decoy_shape(options, f"decoy record {name!r}")
        elif code not in BuiltinOp._value2member_map_:
            raise InvariantViolation(f"record {name!r}: unknown builtin {code}")
        positions = r.indices()
        weights = []
        for _ in range(r.u32()):
            dtype_raw = r.u8()
            if dtype_raw not in NP_DTYPE:
                raise InvariantViolation(
                    f"record {name!r}: unknown dtype {dtype_raw}")
            np_dtype = NP_DTYPE[dtype_raw]
            shape = r.indices()
            raw = r.take(r.u64())
            want = math.prod(shape) * np_dtype.itemsize
            if len(raw) != want:
                raise InvariantViolation(
                    f"record {name!r}: weight of shape {shape} holds "
                    f"{len(raw)} bytes, not {want}")
            weights.append(np.frombuffer(raw, dtype=np_dtype).reshape(shape))
        records[name] = BundleRecord(code, options, positions, tuple(weights))
    if r.pos != len(data):
        raise TruncatedSection(f"{len(data) - r.pos} trailing bytes in bundle")
    return KernelBundle(records, version)
