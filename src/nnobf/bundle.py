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

``_BUNDLE`` is the wire spec; the text above restates it.  An index list is
``n u32`` followed by ``n`` u32 values, as in the model file, whose layout
walker writes and reads both formats.

:func:`load_bundle` rejects, with :class:`~nnobf.errors.InvariantViolation`,
any record the runtime could not execute: a name that is not UTF-8, a code
that is neither a ``BuiltinOp`` nor ``DECOY_SENTINEL``, decoy options whose
length disagrees with their rank byte, a decoy shape of more than 65,536
elements (the runtime counts its size), an unknown dtype byte, and weight
data that is not exactly ``itemsize * prod(dims)`` bytes.  Records hold wire
data only; the runtime keeps no state in them.  Records and bundles are
frozen once built.  Short input and trailing bytes raise
:class:`~nnobf.errors.TruncatedSection`, a bad header
:class:`~nnobf.errors.BadMagic`.

Loading also derives, as it checks them, the facts a compile reads of each
record (:func:`_facts`), kept as :attr:`KernelBundle.table`; a bundle
built in process derives them, with the same errors, on its first compile.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InvariantViolation
from .model_format import (
    DECOY_SENTINEL,
    DTYPE_OF,
    NP_DTYPE,
    BuiltinOp,
    DType,
    _decode,
    _encode,
)

BUNDLE_MAGIC = b"OBFB"
BUNDLE_VERSION = 1
# Largest decoy output, in elements, that load_bundle accepts.  The runtime
# counts every decoy's output size in its memory figures; the obfuscator
# draws at most 8 x 8.
_MAX_DECOY_ELEMENTS = 65_536


@dataclass(frozen=True)
class BundleRecord:
    real_builtin_code: int
    real_options: bytes
    true_input_positions: tuple[int, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def is_decoy(self) -> bool:
        return self.real_builtin_code == DECOY_SENTINEL

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


def decode_decoy_shape(raw: bytes, record: str | None = None) -> tuple[int, ...]:
    """The shape decoy options encode; :class:`InvariantViolation`, naming the
    bundle ``record`` if given, if they do not encode one or it has more than
    65,536 elements.  A bundle built in process derives its table through
    here too, so it meets the same rules."""
    if not raw or len(raw) != 1 + 4 * raw[0]:
        problem = f"{len(raw)} option bytes do not encode a shape"
    elif math.prod(shape := struct.unpack(f"<{raw[0]}I", raw[1:])) > _MAX_DECOY_ELEMENTS:
        problem = f"shape {shape} exceeds {_MAX_DECOY_ELEMENTS} elements"
    else:
        return shape
    what = "decoy" if record is None else f"decoy record {record!r}"
    raise InvariantViolation(f"{what}: {problem}")


@dataclass(frozen=True)
class KernelBundle:
    """Immutable: ``records`` is a read-only view of a private dict copied
    from the mapping or ``(name, record)`` pairs given, so a bundle cannot
    change after the runtime has compiled it (``dataclasses.replace`` or a
    new ``KernelBundle`` makes a variant)."""
    records: Mapping[str, BundleRecord]

    def __post_init__(self):
        object.__setattr__(self, "records", MappingProxyType(dict(self.records)))

    @functools.cached_property
    def table(self) -> tuple[dict[str, tuple], int]:
        """Each record's :func:`_facts` by name, and all weights' bytes."""
        return _table((name, _facts(name, rec))
                      for name, rec in self.records.items())


def _facts(name: str, rec: BundleRecord) -> tuple:
    """What compiling reads of a record, checked: a decoy's ``(None, (shape,),
    float32 bytes)``, else ``(BuiltinOp, options, true positions, weights)``."""
    if rec.real_builtin_code == DECOY_SENTINEL:
        shape = decode_decoy_shape(rec.real_options, name)
        return None, (shape,), 4 * math.prod(shape)
    kind = BuiltinOp._value2member_map_.get(rec.real_builtin_code)
    if kind is None:
        raise InvariantViolation(f"record {name!r}: unknown builtin "
                                 f"{rec.real_builtin_code}")
    return kind, rec.real_options, rec.true_input_positions, rec.weights


def _table(named_facts) -> tuple[dict[str, tuple], int]:
    facts = dict(named_facts)
    return facts, sum([w.nbytes for f in facts.values() if f[0] is not None
                       for w in f[3]])


def _record(name, code, options, positions, weights) -> tuple:
    rec = BundleRecord(code, options, positions, weights)
    return name, rec, _facts(name, rec)


def _weight(dtype, shape, raw) -> np.ndarray:
    want = math.prod(shape) * NP_DTYPE[dtype].itemsize
    if len(raw) != want:
        raise InvariantViolation(f"weight of shape {shape} holds {len(raw)} "
                                 f"bytes, not {want}")
    return np.frombuffer(raw, dtype=NP_DTYPE[dtype]).reshape(shape)


# The wire layout, in the field kinds of model_format._MODEL.
_BUNDLE = ((_record, ("s", "H", "b", "i", (_weight, (DType, "i", "q")))),)


def serialize_bundle(bundle: KernelBundle) -> bytes:
    rows = [(name, rec.real_builtin_code, rec.real_options,
             rec.true_input_positions,
             [(DTYPE_OF[w.dtype], w.shape, np.ascontiguousarray(w).tobytes())
              for w in rec.weights])
            for name, rec in bundle.records.items()]
    return _encode(BUNDLE_MAGIC, BUNDLE_VERSION, _BUNDLE, (rows,))


def load_bundle(data: bytes) -> KernelBundle:
    (rows,) = _decode(BUNDLE_MAGIC, BUNDLE_VERSION, _BUNDLE, data)
    bundle = KernelBundle((name, rec) for name, rec, _ in rows)
    # stored past the frozen guard, where the cached property would store it
    object.__setattr__(bundle, "table", _table((n, f) for n, _, f in rows))
    return bundle
