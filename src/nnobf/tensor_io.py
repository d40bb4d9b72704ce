"""Raw tensor files ("NNT1") used by the CLI for inputs and outputs.

Layout, little-endian: magic "NNT1" | dtype u8 | rank u8 | pad u16 |
dims 4 x u32 (unused dims zero) | raw data.  Rank is limited to 4.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagic, InvariantViolation, TruncatedSection
from .model_format import DTYPE_OF, NP_DTYPE

TENSOR_MAGIC = b"NNT1"


def write_tensor(path: str | Path, array: np.ndarray) -> None:
    if array.dtype not in DTYPE_OF:
        raise InvariantViolation(f"unsupported tensor dtype {array.dtype}")
    if array.ndim > 4:
        raise InvariantViolation(f"tensor rank {array.ndim} exceeds 4")
    dims = list(array.shape) + [0] * (4 - array.ndim)
    header = TENSOR_MAGIC + struct.pack("<BBH", int(DTYPE_OF[array.dtype]),
                                        array.ndim, 0)
    header += struct.pack("<4I", *dims)
    Path(path).write_bytes(header + np.ascontiguousarray(array).tobytes())


def read_tensor(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != TENSOR_MAGIC:
        raise BadMagic(f"expected {TENSOR_MAGIC!r} header")
    if len(data) < 24:
        raise TruncatedSection("tensor header needs 24 bytes")
    dtype_raw, rank, _pad = struct.unpack("<BBH", data[4:8])
    dims = struct.unpack("<4I", data[8:24])
    if rank > 4:
        raise InvariantViolation(f"tensor rank {rank} exceeds 4")
    if dtype_raw not in NP_DTYPE:
        raise InvariantViolation(f"unknown tensor dtype {dtype_raw}")
    shape = dims[:rank]
    np_dtype = NP_DTYPE[dtype_raw]
    payload = data[24:]
    want = math.prod(shape) * np_dtype.itemsize
    if len(payload) != want:
        raise TruncatedSection(f"tensor payload is {len(payload)} bytes, "
                               f"header implies {want}")
    return np.frombuffer(payload, dtype=np_dtype).reshape(shape)
