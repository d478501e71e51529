"""Binary checkpoint container.

Every checkpoint, policy or detector, is one little-endian layout: the magic
``PKDG``, u16 version 2, u32 kind id plus three reserved u32, then named
records ``u32 name length | name | u8 tag | u64 count | payload`` with tag
0 = f32, 1 = i64, 2 = UTF-8 text.  ``load_blobs`` bounds-checks every
record and rejects non-finite f32 values; loaders read records through
``record``, which checks presence, tag and element count.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .domains import LABEL_CHARS, MAX_LABEL
from .errors import DataError, NumericError
from .policy import PolicyParams, params_from_tensors, tensor_shapes

MAGIC = b"PKDG"
VERSION = 2

POLICY_ID = 5  # the kind id of a policy; detectors.base holds the others

F32, I64, TEXT = 0, 1, 2
_DTYPES = {F32: np.dtype("<f4"), I64: np.dtype("<i8")}


def save_policy(path, params: PolicyParams, length: int) -> None:
    """Write the policy weights and the episode length they generate."""
    dims = [params.n_layers, params.d_e, params.d_h, params.d_y, length]
    save_blobs(path, POLICY_ID, {"dims": np.array(dims, dtype=np.int64),
                                 **params.tensors()})


def load_policy(path) -> tuple[PolicyParams, int]:
    """(params, episode length) of a policy checkpoint."""
    kind_id, blobs = load_blobs(path)
    if kind_id != POLICY_ID:
        raise DataError(f"{path}: expected a policy, got kind id {kind_id}")
    dims = [int(v) for v in record(blobs, "dims", I64, 5)]
    n_layers, d_e, d_h, d_y, length = dims
    # n_layers cannot exceed the records present, so shapes stay few; the
    # policy emits one token per label character
    if (min(dims) < 1 or length > MAX_LABEL or n_layers > len(blobs)
            or d_y != len(LABEL_CHARS)):
        raise DataError(f"{path}: bad policy dims {dims}")
    arrays = {name: record(blobs, name, F32, shape) for name, shape
              in tensor_shapes(n_layers, d_e, d_h, d_y).items()}
    return params_from_tensors(arrays, n_layers), length


def save_blobs(path, kind_id: int, blobs: dict) -> None:
    """Write named float/int arrays and text (bytes) as one container."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<H4I", VERSION, kind_id, 0, 0, 0))
        for name, value in blobs.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)) + raw)
            if isinstance(value, bytes):
                fh.write(struct.pack("<BQ", TEXT, len(value)))
                fh.write(value)
            else:
                arr = np.asarray(value)
                tag = I64 if arr.dtype.kind in "iub" else F32
                fh.write(struct.pack("<BQ", tag, arr.size))
                fh.write(np.ascontiguousarray(arr.ravel(),
                                              dtype=_DTYPES[tag]).tobytes())


def load_blobs(path) -> tuple[int, dict]:
    """(kind id, {name: f32 array | i64 array | bytes}) of a container."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC or len(blob) < 22:
        raise DataError(f"{path}: not a checkpoint (bad magic or short "
                        "header)")
    version, kind_id = struct.unpack_from("<HI", blob, 4)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version} "
                        f"(expected {VERSION}); retrain to rewrite it")
    off = 6 + 16

    def take(size):
        nonlocal off
        if off + size > len(blob):
            raise DataError(f"{path}: truncated record at byte {off}")
        start, off = off, off + size
        return start

    out = {}
    while off < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, take(4))
        name = blob[take(nlen):off].decode("utf-8", "replace")
        tag, count = struct.unpack_from("<BQ", blob, take(9))
        if tag == TEXT:
            out[name] = blob[take(count):off]
        elif tag in _DTYPES:
            dtype = _DTYPES[tag]
            out[name] = np.frombuffer(blob, dtype=dtype, count=count,
                                      offset=take(count * dtype.itemsize)
                                      ).copy()
            if tag == F32 and not np.isfinite(out[name]).all():
                raise NumericError(f"{path}: non-finite values in record "
                                   f"{name!r}")
        else:
            raise DataError(f"{path}: unknown record tag {tag}")
    return kind_id, out


def record(blobs: dict, name: str, tag: int, shape=None):
    """Record ``name`` as an f32/i64 array of ``shape`` (an int or a tuple;
    any size when None), or as a str for ``TEXT``; ``DataError`` when it is
    missing, of another tag or size, or not UTF-8."""
    value = blobs.get(name)
    if tag == TEXT:
        if not isinstance(value, bytes):
            raise DataError(f"checkpoint record {name!r} is missing or not "
                            "text")
        try:
            return value.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"checkpoint record {name!r} is not UTF-8") from None
    if (not isinstance(value, np.ndarray)
            or value.dtype.kind not in ("iub" if tag == I64 else "f")):
        raise DataError(f"checkpoint record {name!r} is missing or not "
                        f"{'i64' if tag == I64 else 'f32'}")
    value = value.astype(_DTYPES[tag], copy=False)
    if shape is None:
        return value
    size = shape if isinstance(shape, int) else math.prod(shape)
    if value.size != size:
        raise DataError(f"checkpoint record {name!r} holds {value.size} "
                        f"values, expected {size}")
    return value.reshape(shape)
