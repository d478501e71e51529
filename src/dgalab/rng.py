"""Deterministic counter-based random streams.

Every stochastic component in the package draws from a Philox generator
keyed by a stable hash of (master seed, purpose label, indices...).  Streams
are therefore independent of execution order and thread scheduling, which is
what makes full runs bitwise reproducible.
"""

from __future__ import annotations

import hashlib
import threading

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
            value = int(part)
            try:
                h.update(b"i" + value.to_bytes(16, "little", signed=True))
            except OverflowError:   # outside [-2**127, 2**127): its own tag
                raw = value.to_bytes(value.bit_length() // 8 + 1, "little",
                                     signed=True)
                h.update(b"I" + len(raw).to_bytes(8, "little") + raw)
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


# ``uniforms`` rekeys this one generator on every call instead of building a
# fresh one (about 7 against 24 us); it is never handed out, and the lock
# keeps a draw from seeing another thread's key
_GEN = np.random.Generator(np.random.Philox())
_LOCK = threading.Lock()
_ZEROS = np.zeros(4, dtype=np.uint64)


def uniforms(shape, *parts) -> np.ndarray:
    """``stream(*parts).random(shape)``, bit for bit: the generator is set to
    the key, counter 0 and an empty buffer, the state a new one starts in."""
    state = {"bit_generator": "Philox",
             "state": {"counter": _ZEROS,
                       "key": np.frombuffer(_key_bytes(parts), "<u8")},
             "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    with _LOCK:
        _GEN.bit_generator.state = state
        return _GEN.random(shape)
