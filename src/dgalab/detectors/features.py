"""The 21-feature vector behind the random-forest detector.

Structural, linguistic, and statistical features of the registrable core
label.  Reference n-gram frequencies and the word dictionary come from the
bundled wordlists, so extraction is a pure deterministic function of the
domain string.

``extract_many`` computes the features of ``CHUNK`` names at a time from
the ``(B, L)`` character codes of ``distances.encode`` and their packed
n-gram ids.  Every value is bit-equal to the per-name computation kept in
``tests/scalar_oracles.py``: counts come from per-code tables, entropies
subtract tabulated terms in first-occurrence order, and n-gram frequency
means reduce each row as one contiguous array.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..corpora import bundled_tlds, bundled_words
from ..domains import LABEL_CHARS, MAX_LABEL, checked_names
from ..errors import DataError
from .distances import (ID_BASE, MAX_PACKED, N_CHARS, char_counts, encode,
                        id_lengths, ngram_ids, string_ids)

FEATURE_NAMES = (
    "length", "subdomain_count", "digit_ratio", "vowel_ratio",
    "consonant_ratio", "hyphen_count", "max_digit_run", "max_consonant_run",
    "unique_char_count", "char_entropy", "bigram_entropy", "trigram_entropy",
    "benign_bigram_freq", "benign_trigram_freq", "repeated_char_ratio",
    "hex_char_ratio", "dict_word_coverage", "longest_dict_word_ratio",
    "alphabet_switch_count", "first_char_digit", "tld_in_allowlist",
)

CHUNK = 256  # names per kernel pass; bounds memory for any batch size

_DIGITS = "0123456789"
_VOWELS = "aeiou"
_CONSONANTS = "bcdfghjklmnpqrstvwxyz"
_HEX = "0123456789abcdef"


def _code_table(*charsets) -> np.ndarray:
    """(N_CHARS + 1, len(charsets)) int64: [c, j] is 1 when code c is in
    charsets[j]; the ``PAD`` row stays 0."""
    table = np.zeros((N_CHARS + 1, len(charsets)), dtype=np.int64)
    for j, chars in enumerate(charsets):
        table[[LABEL_CHARS.index(c) for c in chars], j] = 1
    return table


_CLASS_COUNTS = _code_table(_DIGITS, _VOWELS, _CONSONANTS, "-", _HEX)
_RUN_FLAGS = _code_table(_DIGITS, _CONSONANTS).astype(bool)
# letter, digit or hyphen for alphabet switches; PAD gets a class of its own
_SWITCH_CLASS = np.array([0 if c.isalpha() else 1 if c in _DIGITS else 2
                          for c in LABEL_CHARS] + [3])


class _Reference(NamedTuple):
    words: np.ndarray        # sorted packed ids of the words of 3+ chars
    starts_word: np.ndarray  # [trigram id]: some word starts with it; the
    max_word: int            # extra last entry answers for id -1
    bigram_freq: np.ndarray  # [packed id]
    trigram_freq: np.ndarray
    tlds: frozenset
    terms: np.ndarray        # [c, t] = (c/t) * log2(c/t); row 0 is 0


@lru_cache(maxsize=1)
def _reference() -> _Reference:
    first, second = bundled_words()
    words = first.words + second.words
    # each n-gram's share of all the words' n-grams, by packed id
    grams = ngram_ids(*encode(words), 3)
    freqs = [np.bincount(ids, minlength=ID_BASE ** k) / len(ids)
             for k, ids in ((2, grams[1][grams[1] >= 0]),
                            (3, grams[2][grams[2] >= 0]))]

    wordset = sorted({w for w in words if len(w) >= 3})
    max_word = max(map(len, wordset))
    if max_word > MAX_PACKED:
        raise DataError(f"dictionary words must be at most {MAX_PACKED} "
                        "characters")
    starts_word = np.zeros(ID_BASE ** 3 + 1, dtype=bool)
    starts_word[string_ids([w[:3] for w in wordset])] = True

    # the summands as the per-name sum takes them, with math.log2
    terms = np.zeros((MAX_LABEL + 1, MAX_LABEL + 1))
    for t in range(1, MAX_LABEL + 1):
        for c in range(1, t + 1):
            terms[c, t] = (c / t) * math.log2(c / t)
    return _Reference(np.sort(string_ids(wordset)), starts_word, max_word,
                      freqs[0], freqs[1], frozenset(bundled_tlds()), terms)


def split_core(domain: str) -> tuple[str, int, str | None]:
    """Return (registrable core label, subdomain count, tld or None)."""
    labels = domain.split(".")
    if len(labels) == 1:
        return labels[0], 0, None
    return labels[-2], len(labels) - 2, labels[-1]


def _first_counts(grams) -> np.ndarray:
    """For packed ids (K, B, P) of lengths 1..K, -1 past each row's end:
    at the first position of each distinct id of a row, how often it occurs
    in the row; 0 at every other position."""
    K, B, P = grams.shape
    span = ID_BASE ** K  # above every id, so ids of all K lengths share it
    # one sort of (row, id, position) keys lines up each row's equal ids,
    # the first position first
    keys = ((np.arange(B)[:, None] * span + grams) * 64
            + np.arange(P))[grams >= 0]
    keys.sort()
    found = keys // 64
    starts = np.flatnonzero(np.diff(found, prepend=-1))
    rows, ids = np.divmod(found[starts], span)
    out = np.zeros_like(grams)
    out[id_lengths(ids) - 1, rows, keys[starts] % 64] = \
        np.diff(starts, append=len(keys))
    return out


def _mean_freqs(ref, grams, n) -> np.ndarray:
    """(2, B): per row, ``np.mean`` of the bigram and of the trigram
    frequencies, 0.0 for a row without any.  Rows of one length are summed
    as contiguous rows, the reduction ``np.mean`` applies to one row alone.
    """
    order = np.argsort(n, kind="stable")
    bounds = np.flatnonzero(np.diff(n[order], append=-1)) + 1
    freqs = np.stack([ref.bigram_freq[grams[1, order]],
                      ref.trigram_freq[grams[2, order]]])
    sums = np.zeros((2, len(n)))
    counts = np.maximum(n[order] - [[1], [2]], 0)
    for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
        for k in (0, 1):
            sums[k, lo:hi] = np.add.reduce(
                freqs[k, lo:hi, :counts[k, lo]], axis=1)
    out = np.empty_like(sums)
    out[:, order] = sums / np.maximum(counts, 1)
    return out


def _dict_coverage(ref, grams, n) -> tuple:
    """Share of each core covered by a greedy longest-first walk over
    dictionary words, and the longest word's share."""
    _, B, L = grams.shape
    # the longest word at each position, looked up only where the trigram
    # there begins some word
    longest_at = np.zeros((B, L), dtype=np.int64)
    start = ref.starts_word[grams[2]]
    cand = grams[2:ref.max_word, start]
    at = np.minimum(np.searchsorted(ref.words, cand), len(ref.words) - 1)
    longest_at[start] = ((ref.words[at] == cand)
                         * np.arange(3, ref.max_word + 1)[:, None]).max(axis=0)
    # the walk steps a word's length, else one character; pointer doubling
    # sums it over up to 2**t steps at once, position L absorbing
    gain = np.concatenate([longest_at, np.zeros((B, 1), np.int64)], axis=1)
    step = np.minimum(np.arange(L + 1) + np.maximum(gain, 1), L)
    rows = np.arange(B)[:, None]
    for _ in range(max(L - 1, 0).bit_length()):
        gain = gain + gain[rows, step]
        step = step[rows, step]
    return gain[:, 0] / n, longest_at.max(axis=1) / n


def _chunk_features(domains) -> np.ndarray:
    ref = _reference()
    parts = [split_core(d) for d in domains]
    codes, n = encode([core for core, _, _ in parts])
    grams = ngram_ids(codes, n, ref.max_word)

    counts = char_counts(codes)
    digits, vowels, consonants, hyphens, hexes = \
        (counts @ _CLASS_COUNTS[:N_CHARS]).T
    unique = (counts > 0).sum(axis=1)
    pos = np.arange(codes.shape[1])[:, None, None]
    last_break = np.maximum.accumulate(
        np.where(_RUN_FLAGS[codes.T], -1, pos), axis=0)
    digit_run, consonant_run = (pos - last_break).max(axis=0).T
    switch = _SWITCH_CLASS[codes]
    switches = ((switch[:, 1:] != switch[:, :-1])
                & (np.arange(1, codes.shape[1]) < n[:, None])).sum(axis=1)
    # ent -= term, one first occurrence after the other, as a left fold
    totals = np.maximum(n - np.arange(3)[:, None], 0)
    entropies = np.subtract.reduce(
        ref.terms[_first_counts(grams[:3]), totals[:, :, None]], axis=2,
        initial=0.0)
    coverage, longest = _dict_coverage(ref, grams, n)

    return np.column_stack([
        n, [subs for _, subs, _ in parts],
        digits / n, vowels / n, consonants / n,
        hyphens, digit_run, consonant_run, unique,
        *entropies,
        *_mean_freqs(ref, grams, n),
        1.0 - unique / n,
        hexes / n,
        coverage, longest,
        switches,
        _CLASS_COUNTS[codes[:, 0], 0],
        [tld in ref.tlds for _, _, tld in parts],
    ])


def extract_many(domains) -> np.ndarray:
    """(N, 21) float64 features; see FEATURE_NAMES for the column order."""
    domains = checked_names(domains)
    out = np.empty((len(domains), len(FEATURE_NAMES)))
    for lo in range(0, len(domains), CHUNK):
        out[lo:lo + CHUNK] = _chunk_features(domains[lo:lo + CHUNK])
    return out
