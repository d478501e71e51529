"""Deterministic counter-based random streams.

Every stochastic component in the package draws from a Philox4x64-10
stream (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3",
SC 2011) keyed by a stable hash of (master seed, purpose label,
indices...).  Streams are therefore independent of execution order and
thread scheduling, which is what makes full runs bitwise reproducible.

The generator is written here in vectorised numpy, so no command loads
``numpy.random``.  It follows numpy's ``Philox`` counter convention (block
n, counting from 1, encrypts the counter value n), and its three draws
equal those of ``numpy.random.Generator(numpy.random.Philox(key))`` bit for
bit: ``random`` (53-bit doubles), ``integers`` (Lemire's method on 32-bit
draws, the upper half-word kept for the next 32-bit draw) and
``permutation`` (Fisher-Yates with masked rejection).  The tests hold the
draws to numpy's; the algorithms are pinned here because NEP 19 promises
stable bit generators but not stable ``Generator`` methods.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_M32 = 0xFFFFFFFF
_UNIT = 2.0 ** -53          # a word's top 53 bits times this: [0, 1)
# the Philox4x64 round multipliers and Weyl key increments
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], np.uint64)
_MUL_LO = _MUL & np.uint64(_M32)
_MUL_HI = _MUL >> np.uint64(32)
_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], np.uint64)
# 0-d arrays: a ufunc takes them faster than numpy scalars
_SHIFT = np.array(32, np.uint64)
_LOW = np.array(_M32, np.uint64)
# blocks per pass: its seven (2, PASS) uint64 arrays take 112 KB
_PASS = 1024
# the fewest blocks a stream's pass makes; past them, a pass makes as many
# blocks as the stream has made so far, up to ``_PASS``
_REFILL = 64


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


def _key_words(parts) -> np.ndarray:
    """The key of ``parts`` as Philox's two words, low word first."""
    return np.frombuffer(_key_bytes(parts), "<u8").astype(np.uint64)


def _philox(counters, keys) -> np.ndarray:
    """Philox4x64-10 of each counter value (the counter's upper three words
    are zero) under ``keys``, shape (2, 1) or one column per counter: the
    (blocks, 4) words, in block order."""
    # lanes 0 and 2 of a block are multiplied, lanes 1 and 3 xored in
    mul = np.zeros((2, len(counters)), np.uint64)
    mul[0] = counters
    xor = np.zeros_like(mul)
    spare = np.empty_like(mul)
    lo, hi, t, u = (np.empty_like(mul) for _ in range(4))
    key = keys.copy()
    for r in range(10):
        if r:
            key += _BUMP
        # the 128-bit products mul * _MUL, as (hi, spare) 64-bit halves
        np.multiply(mul, _MUL, out=spare)
        np.bitwise_and(mul, _LOW, out=lo)
        np.right_shift(mul, _SHIFT, out=hi)
        np.multiply(lo, _MUL_LO, out=t)
        t >>= _SHIFT
        np.multiply(hi, _MUL_LO, out=u)
        u += t
        lo *= _MUL_HI
        np.bitwise_and(u, _LOW, out=t)
        lo += t
        u >>= _SHIFT
        lo >>= _SHIFT
        hi *= _MUL_HI
        hi += u
        hi += lo
        # (x0, x1, x2, x3) <- (hi(2) ^ x1 ^ k0, lo(2), hi(0) ^ x3 ^ k1, lo(0))
        mul, hi = hi[::-1], mul
        mul ^= xor
        mul ^= key
        xor, spare = spare[::-1], xor
    out = np.empty((len(counters), 4), np.uint64)
    out[:, 0::2] = mul.T
    out[:, 1::2] = xor.T
    return out


def _blocks(counters, keys) -> np.ndarray:
    """The words of the blocks at ``counters`` under ``keys``, shape (2, 1)
    or one column per counter, in order, in passes of at most ``_PASS``
    blocks."""
    out = np.empty((len(counters), 4), np.uint64)
    for lo in range(0, len(counters), _PASS):
        hi = lo + _PASS
        out[lo:hi] = _philox(counters[lo:hi],
                             keys if keys.shape[1] == 1 else keys[:, lo:hi])
    return out.reshape(-1)


def _doubles(words) -> np.ndarray:
    """numpy's 53-bit doubles in [0, 1) of 64-bit words."""
    return (words >> np.uint64(11)) * _UNIT


def _size(shape) -> tuple[int, ...]:
    return tuple(int(n) for n in (shape if isinstance(shape, tuple)
                                  else (shape,)))


class Stream:
    """One Philox stream: the words of its blocks in order, read from a
    buffer that keeps the unread words of the last pass and the words of
    the last draw, plus the upper half of the last word split for 32-bit
    draws, kept for the next one."""

    __slots__ = ("_key", "_next_block", "_buf", "_pos", "_half")

    def __init__(self, key_words: np.ndarray):
        self._key = key_words.reshape(2, 1)
        self._next_block = 1
        self._buf = np.empty(0, np.uint64)
        self._pos = 0
        self._half: int | None = None

    def _words(self, n: int) -> np.ndarray:
        """The next ``n`` words, as a read-only view of the buffer.  A pass
        makes at least the blocks the stream has made so far, from
        ``_REFILL`` up to ``_PASS``, so small draws share passes."""
        pos = self._pos
        short = pos + n - len(self._buf)
        if short > 0:
            count = max(-(-short // 4),
                        min(max(self._next_block - 1, _REFILL), _PASS))
            first = self._next_block
            self._buf = np.concatenate([self._buf[pos:], _blocks(
                np.arange(first, first + count, dtype=np.uint64), self._key)])
            self._buf.flags.writeable = False
            self._next_block += count
            pos = 0
        self._pos = pos + n
        return self._buf[pos:pos + n]

    def _word(self) -> int:
        pos = self._pos
        if pos == len(self._buf):
            return self._words(1).item(0)
        self._pos = pos + 1
        return self._buf.item(pos)

    def _draw32(self, n: int) -> np.ndarray:
        """At least ``n`` 32-bit draws, as uint32; hand what goes unused
        back with ``_keep32``."""
        half = self._half
        halves = self._words(-(-(n - (half is not None)) // 2))
        halves = halves.astype("<u8", copy=False).view("<u4")
        if half is not None:
            halves = np.concatenate([np.array([half], np.uint32), halves])
            self._half = None
        return halves

    def _keep32(self, rest) -> None:
        """Return the unused tail of the last ``_draw32``: after an odd
        count the first is an upper half-word, the rest whole words that
        the buffer holds just before its read position."""
        if len(rest) % 2:
            self._half = int(rest[0])
        self._pos -= len(rest) // 2

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._word()
        self._half = word >> 32
        return word & _M32

    def random(self, size=None):
        """Doubles in [0, 1), one 64-bit word each: a float, or an array
        of shape ``size``."""
        if size is None:
            return (self._word() >> 11) * _UNIT
        shape = _size(size)
        return _doubles(self._words(math.prod(shape))).reshape(shape)

    def integers(self, low, high=None, size=None):
        """Integers in [low, high), or [0, low) without ``high``: an int,
        or an int64 array of shape ``size``.  The range may span at most
        2**32 values."""
        if high is None:
            low, high = 0, low
        low, span = int(low), int(high) - int(low)
        if span < 1:
            raise ValueError(f"low >= high ({low} >= {high})")
        if span > 1 << 32:
            raise ValueError("integers draws ranges of at most 2**32 values")
        floor = (1 << 32) % span        # a product's low half below: redraw
        if size is None:
            if span == 1:
                return low
            m = self._next32() * span
            while (m & _M32) < floor:
                m = self._next32() * span
            return low + (m >> 32)
        shape = _size(size)
        n = math.prod(shape)
        values = np.zeros(n, np.uint64)
        done = 0
        while done < n and span > 1:
            need = n - done
            draws = self._draw32(need + need * floor // ((1 << 32) - floor)
                                 + 8)
            m = draws.astype(np.uint64) * np.uint64(span)
            taken = np.flatnonzero((m & _LOW) >= floor)[:need]
            used = taken[-1] + 1 if len(taken) == need else len(draws)
            values[done:done + len(taken)] = m[taken] >> _SHIFT
            done += len(taken)
            self._keep32(draws[used:])
        return (values.astype(np.int64) + low).reshape(shape)

    def permutation(self, n) -> np.ndarray:
        """A random ordering of ``range(n)`` as int64: for i from n - 1
        down to 1, swap i with a draw from [0, i], each draw a 32-bit one
        masked to i's bit length and redrawn while above i."""
        n = int(n)
        perm = list(range(n))
        if n > 1:
            draws = self._draw32(n + n // 2 + 16).tolist()
            k, i = 0, n - 1
            while i:
                mask = (1 << i.bit_length()) - 1
                try:
                    for i in range(i, mask >> 1, -1):   # the mask's steps
                        j = draws[k] & mask
                        k += 1
                        while j > i:
                            j = draws[k] & mask
                            k += 1
                        perm[i], perm[j] = perm[j], perm[i]
                    i = mask >> 1
                except IndexError:          # step i resumes from draw k
                    draws += self._draw32(i // 2 + 16).tolist()
            self._keep32(draws[k:])
        return np.array(perm, dtype=np.int64)


def stream(*parts) -> Stream:
    """Independent Philox stream identified by the given key parts."""
    return Stream(_key_words(parts))


def uniforms(shape, keys) -> np.ndarray:
    """Row r is ``stream(*keys[r]).random(shape)``, bit for bit, all drawn
    in passes of at most ``_PASS`` blocks, whatever the number of keys."""
    shape = _size(shape)
    n = math.prod(shape)
    per_key = -(-n // 4)
    words = np.empty(0, np.uint64)
    if keys and per_key:
        key_words = np.stack([_key_words(parts) for parts in keys], axis=1)
        words = _blocks(np.tile(np.arange(1, per_key + 1, dtype=np.uint64),
                                len(keys)),
                        np.repeat(key_words, per_key, axis=1))
    rows = words.reshape(len(keys), 4 * per_key)[:, :n]
    return _doubles(rows).reshape(len(keys), *shape)
