"""String-distribution distances used by the statistics detector, and the
packed n-gram ids the FANCI features and the word graph share.

The batched kernels work on ``(B, L)`` uint8 arrays of character codes
(indices into ``LABEL_CHARS``; positions past a string's end hold ``PAD``)
plus the true lengths, and give the same float64 values as a per-string
computation, bit for bit.  ``edit_distance`` is the scalar Levenshtein
distance the bit-vector kernel is checked against.
"""

from __future__ import annotations

import numpy as np

from ..domains import LABEL_CHARS
from ..errors import DataError

N_CHARS = len(LABEL_CHARS)
PAD = N_CHARS
NO_BIGRAM = N_CHARS * N_CHARS
_CODES = np.full(256, 255, dtype=np.uint8)
_CODES[np.frombuffer(LABEL_CHARS.encode("ascii"), dtype=np.uint8)] = \
    np.arange(N_CHARS)

# Packed n-gram ids: base-ID_BASE numerals over character ranks 1..N_CHARS,
# taken in str order ('-' < digits < letters), so ids of equal-length
# strings sort as the strings do.  Rank 0 is left to PAD: no id has a
# leading zero digit, so ids of different lengths never collide, and an
# n-gram running into the padding holds a zero digit and equals no real id.
ID_BASE = N_CHARS + 1
MAX_PACKED = 10  # ID_BASE ** 10 * 256 < 2 ** 63, so a chunk row fits too
_SORTED_CHARS = "".join(sorted(LABEL_CHARS))
_RANKS = np.zeros(N_CHARS + 1, dtype=np.int64)
_RANKS[:N_CHARS] = [_SORTED_CHARS.index(c) + 1 for c in LABEL_CHARS]


def encode(strings) -> tuple[np.ndarray, np.ndarray]:
    """(B, L) uint8 codes padded with ``PAD``, and the (B,) lengths."""
    lengths = np.fromiter(map(len, strings), dtype=np.int64,
                          count=len(strings))
    raw = "".join(strings).encode("ascii", "replace")
    flat = _CODES[np.frombuffer(raw, dtype=np.uint8)]
    if flat.size and flat.max() >= N_CHARS:
        raise DataError("string holds a character outside LABEL_CHARS")
    width = int(lengths.max(initial=0))
    codes = np.full((len(strings), width), PAD, dtype=np.uint8)
    codes[np.arange(width) < lengths[:, None]] = flat
    return codes, lengths


def ngram_ids(codes, lengths, max_k: int) -> np.ndarray:
    """(max_k, B, L) int64 packed ids of each row's k-grams for
    k = 1..max_k (at most ``MAX_PACKED``): [k - 1, b, i] is the id of the
    k-gram of row b starting at position i, -1 where it runs past the row's
    end."""
    rank = _RANKS[codes]
    out = np.full((max_k, *codes.shape), -1, dtype=np.int64)
    raw = rank
    for k in range(1, max_k + 1):
        if k > 1:
            raw = raw[:, :-1] * ID_BASE + rank[:, k - 1:]
        inside = np.arange(raw.shape[1]) <= lengths[:, None] - k
        out[k - 1, :, :raw.shape[1]] = np.where(inside, raw, -1)
    return out


def string_ids(strings) -> np.ndarray:
    """The packed id of each whole string of 1..``MAX_PACKED`` characters."""
    codes, lengths = encode(strings)
    ids = np.zeros(len(strings), dtype=np.int64)
    for j, col in enumerate(_RANKS[codes].T):
        ids = np.where(j < lengths, ids * ID_BASE + col, ids)
    return ids


_POWERS = ID_BASE ** np.arange(MAX_PACKED + 1)


def id_lengths(ids) -> np.ndarray:
    """The string length behind each packed id: k-character ids lie in
    [ID_BASE ** (k - 1), ID_BASE ** k)."""
    return np.searchsorted(_POWERS, ids, side="right")


_RANK_BYTES = np.frombuffer(b"\0" + _SORTED_CHARS.encode("ascii"),
                            dtype=np.uint8)


def id_strings(ids) -> list:
    """The strings behind packed ids; the inverse of ``string_ids``."""
    rest = np.asarray(ids, dtype=np.int64)
    digits = np.empty((len(rest), MAX_PACKED), dtype=np.int64)
    for j in range(MAX_PACKED):  # least significant digit first
        rest, digits[:, j] = np.divmod(rest, ID_BASE)
    # each row spells its string backwards, the leading zero digits as
    # trailing NULs, which the bytes view drops
    spelled = _RANK_BYTES[digits].view(f"S{MAX_PACKED}").ravel()
    return [s[::-1].decode("ascii") for s in spelled.tolist()]


def add_one_smooth(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    smoothed = counts + 1.0
    return smoothed / smoothed.sum()


def char_counts(codes) -> np.ndarray:
    """(B, N_CHARS) float64 character counts per row."""
    B = len(codes)
    keys = np.arange(B)[:, None] * (N_CHARS + 1) + codes
    counts = np.bincount(keys.ravel(), minlength=B * (N_CHARS + 1))
    return counts.reshape(B, N_CHARS + 1)[:, :N_CHARS].astype(np.float64)


def kl_rows(counts, q) -> np.ndarray:
    """KL(p_b || q) with p_b = counts[b] / counts[b].sum(), per row.

    ``q`` must be strictly positive.  Terms with p_i == 0 contribute nothing.
    Each row's nonzero terms are summed as one contiguous row, the same
    reduction ``np.sum`` applies to them alone (a sum over padded rows would
    round differently).
    """
    p = counts / counts.sum(axis=1, keepdims=True)
    mask = p > 0
    vals = p[mask]
    terms = vals * np.log(vals / np.broadcast_to(q, p.shape)[mask])
    k = mask.sum(axis=1)
    packed = np.zeros(p.shape)
    packed[np.arange(p.shape[1]) < k[:, None]] = terms
    out = np.empty(len(p))
    for n in np.flatnonzero(np.bincount(k)):
        rows = k == n
        out[rows] = packed[rows, :n].sum(axis=1)
    return out


def bigram_ids(codes, lengths) -> np.ndarray:
    """(B, L - 1) ids c0 * N_CHARS + c1 of each row's distinct bigrams in
    ascending order, then ``NO_BIGRAM`` for repeats and the row's end."""
    L = codes.shape[1]
    ids = codes[:, :-1].astype(np.intp) * N_CHARS + codes[:, 1:]
    ids[np.arange(1, L) >= lengths[:, None]] = NO_BIGRAM
    ids.sort(axis=1)
    ids[:, 1:][ids[:, 1:] == ids[:, :-1]] = NO_BIGRAM
    ids.sort(axis=1)
    return ids


def bigram_bitsets(strings) -> np.ndarray:
    """(N_CHARS**2 + 1, R) uint8 bitsets: [g, r] is 1 when bigram g occurs in
    strings[r]; the ``NO_BIGRAM`` row stays 0."""
    ids = bigram_ids(*encode(strings))
    bits = np.zeros((NO_BIGRAM + 1, len(strings)), dtype=np.uint8)
    bits[ids, np.arange(len(strings))[:, None]] = 1
    bits[NO_BIGRAM] = 0
    return bits


def max_jaccard(codes, lengths, ref_bits) -> np.ndarray:
    """Per row, the largest bigram-set Jaccard index against the references
    of ``bigram_bitsets``; 0 for rows shorter than two characters.

    The intersections are the row's bigram indicator times ``ref_bits``,
    taken as a sum of the reference rows of its distinct bigrams, so no
    dense (B, N_CHARS**2) indicator is built.  They count in bytes (a label
    has at most 62 bigrams), and no (B, R) float64 quotient is built.
    """
    ids = bigram_ids(codes, lengths)
    size = (ids != NO_BIGRAM).sum(axis=1)
    inter = np.zeros((len(codes), ref_bits.shape[1]), dtype=np.uint8)
    for col in ids.T[:size.max(initial=0)]:
        inter += ref_bits[col]
    best = np.zeros(len(codes))
    for r, ref_size in enumerate(ref_bits.sum(axis=0, dtype=np.int64)):
        # the floor keeps a row without bigrams at 0, not at 0 / 0
        union = size + ref_size - inter[:, r]
        np.maximum(best, inter[:, r] / np.maximum(union, 1), out=best)
    return best


def match_masks(refs) -> np.ndarray:
    """(N_CHARS + 1, R) uint64: bit i of [c, r] is set when refs[r][i] has
    code c.  The ``PAD`` row stays empty; refs hold at most 64 chars."""
    codes, lengths = encode(refs)
    masks = np.zeros((N_CHARS + 1, len(refs)), dtype=np.uint64)
    for r, (row, m) in enumerate(zip(codes, lengths)):
        for i in range(m):
            masks[row[i], r] |= np.uint64(1 << i)
    return masks


def edit_distances(codes, lengths, masks, ref_lengths) -> np.ndarray:
    """(B, R) Levenshtein distances between the first ``lengths[b]`` codes
    of each row and each nonempty reference.

    Myers' bit-vector algorithm (JACM 1999) in Hyyrö's global-distance form:
    each reference is the pattern, one uint64 word of vertical deltas per
    (row, reference) pair, and one column per text character.  The score
    tracks D[m][j]; a row stops counting once past its length.
    """
    B, R = len(codes), masks.shape[1]
    one = np.uint64(1)
    top = one << (np.asarray(ref_lengths, dtype=np.uint64) - one)
    pv = np.full((B, R), ~np.uint64(0))
    mv = np.zeros((B, R), dtype=np.uint64)
    dist = np.tile(np.asarray(ref_lengths, dtype=np.int64), (B, 1))
    for j in range(codes.shape[1]):
        eq = masks[codes[:, j]]
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        live = (j < lengths)[:, None]
        dist += live & ((ph & top) != 0)
        dist -= live & ((mh & top) != 0)
        ph = (ph << one) | one
        mh <<= one
        pv = mh | ~(xv | ph)
        mv = ph & xv
    return dist


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance with unit insert/delete/substitute costs."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1,
                           cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]
