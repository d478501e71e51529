"""Deterministic counter-based random streams.

Every stochastic component in the package draws from a Philox generator
keyed by a stable hash of (master seed, purpose label, indices...).  Streams
are therefore independent of execution order and thread scheduling, which is
what makes full runs bitwise reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _flatten(parts):
    for part in parts:
        if isinstance(part, tuple):
            yield b"("
            yield from _flatten(part)
            yield b")"
        else:
            yield part


def _key_bytes(parts) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in _flatten(parts):
        if isinstance(part, bytes):
            h.update(b"b" + part)
        elif isinstance(part, str):
            h.update(b"s" + part.encode("utf-8"))
        elif isinstance(part, (int, np.integer)):
            h.update(b"i" + int(part).to_bytes(16, "little", signed=True))
        else:
            raise TypeError(f"unhashable stream key part: {part!r}")
        h.update(b"\x00")
    return h.digest()


def stream_key(*parts) -> int:
    """Stable 128-bit integer key for a (label, indices...) tuple."""
    return int.from_bytes(_key_bytes(parts), "little")


def stream(*parts) -> np.random.Generator:
    """Independent Philox stream identified by the given key parts."""
    return np.random.Generator(np.random.Philox(key=stream_key(*parts)))
