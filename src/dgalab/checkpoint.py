"""Binary checkpoint container.

All checkpoints share the magic ``PKDG`` and a little-endian layout:

* version 1 (policy): u16 version, header ``(N_l, d_e, d_h, d_y)`` as u32,
  then named tensors as ``u32 name length | name | row-major f32 data``.
  Tensor shapes are a closed form of the header dims, so no per-record shape
  is stored and round trips are byte exact.
* version 2 (detector): same magic, u32 kind id plus three reserved u32,
  then self-describing named blobs ``u32 name length | name | u8 tag |
  u64 count | payload`` with tag 0 = f32, 1 = i64, 2 = raw bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError
from .policy import PolicyParams, params_from_tensors, tensor_shapes

MAGIC = b"PKDG"

DETECTOR_KIND_IDS = {"statistics": 1, "fanci": 2, "wordgraph": 3, "neural": 4}
_KIND_NAMES = {v: k for k, v in DETECTOR_KIND_IDS.items()}

_F32 = np.dtype("<f4")
_I64 = np.dtype("<i8")


def save_policy(path, params: PolicyParams) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", 1))
        fh.write(struct.pack("<4I", params.n_layers, params.d_e,
                             params.d_h, params.d_y))
        for name, tensor in params.tensors().items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(np.ascontiguousarray(tensor, dtype=_F32).tobytes())


def load_policy(path) -> PolicyParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad magic")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != 1:
        raise DataError(f"{path}: expected policy checkpoint, got version {version}")
    n_layers, d_e, d_h, d_y = struct.unpack_from("<4I", blob, 6)
    off = 6 + 16
    arrays = {}
    shapes = tensor_shapes(n_layers, d_e, d_h, d_y)
    while off < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        if name not in shapes:
            raise DataError(f"{path}: unknown tensor {name!r}")
        shape = shapes[name]
        count = int(np.prod(shape))
        arr = np.frombuffer(blob, dtype=_F32, count=count, offset=off)
        off += count * 4
        arrays[name] = arr.reshape(shape).astype(np.float32)
    missing = set(shapes) - set(arrays)
    if missing:
        raise DataError(f"{path}: missing tensors {sorted(missing)}")
    return params_from_tensors(arrays, n_layers)


def save_blobs(path, kind: str, blobs: dict) -> None:
    """Write a version-2 container of named float/int/bytes blobs."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", 2))
        fh.write(struct.pack("<4I", DETECTOR_KIND_IDS[kind], 0, 0, 0))
        for name, value in blobs.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            if isinstance(value, bytes):
                fh.write(struct.pack("<BQ", 2, len(value)))
                fh.write(value)
            else:
                arr = np.asarray(value)
                if arr.dtype.kind in "iub":
                    fh.write(struct.pack("<BQ", 1, arr.size))
                    fh.write(np.ascontiguousarray(arr.ravel(), dtype=_I64).tobytes())
                else:
                    fh.write(struct.pack("<BQ", 0, arr.size))
                    fh.write(np.ascontiguousarray(arr.ravel(), dtype=_F32).tobytes())


def load_blobs(path) -> tuple[str, dict]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: bad magic")
    if len(blob) < 22:
        raise DataError(f"{path}: truncated header")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != 2:
        raise DataError(f"{path}: expected detector checkpoint, got version {version}")
    (kind_id,) = struct.unpack_from("<I", blob, 6)
    if kind_id not in _KIND_NAMES:
        raise DataError(f"{path}: unknown detector kind id {kind_id}")
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
        if tag == 2:
            out[name] = blob[take(count):off]
        elif tag == 1:
            out[name] = np.frombuffer(blob, dtype=_I64, count=count,
                                      offset=take(count * 8)).copy()
        elif tag == 0:
            out[name] = np.frombuffer(blob, dtype=_F32, count=count,
                                      offset=take(count * 4)).copy()
        else:
            raise DataError(f"{path}: unknown record tag {tag}")
    return _KIND_NAMES[kind_id], out
