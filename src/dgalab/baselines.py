"""Zero-knowledge baseline generators.

All three families drive their choices from the same classic linear
congruential recurrence (glibc constants), so every output list is an exact
function of the integer seed:

    x_{k+1} = (1103515245 * x_k + 12345) mod 2^31,   x_0 = seed mod 2^31

* kraken: random characters, length drawn from a range.
* gozi: 2-4 words from one wordlist, concatenated.
* suppobox: one word from each of two wordlists.
"""

from __future__ import annotations

import numpy as np

from .corpora import WordDict, bundled_words
from .domains import MAX_LABEL
from .errors import ContractError

_MULTIPLIER, _INCREMENT, _MODULUS = 1103515245, 12345, 2 ** 31

# Lengths come from their own LCG instance: the glibc recurrence alternates
# parity every step, so interleaving length draws with character draws would
# skew the letter frequencies away from the family's near-uniform profile.
_LENGTH_STREAM_OFFSET = 0x5851


def _lcg_states(seed: int, n: int) -> np.ndarray:
    """The states x_1 .. x_n after ``x_0 = seed mod 2^31``, by jump-ahead
    doubling (Brown, "Random Number Generation with Arbitrary Strides",
    1994): the states so far, advanced by their own count, are the next as
    many.  Exact in uint64, as every product stays below 2^62."""
    states = np.array([(_MULTIPLIER * (seed % _MODULUS) + _INCREMENT)
                       % _MODULUS], dtype=np.uint64)
    mult, inc = _MULTIPLIER, _INCREMENT     # advance len(states) steps
    while len(states) < n:
        states = np.concatenate([states, (mult * states + inc) % _MODULUS])
        mult, inc = mult * mult % _MODULUS, (mult * inc + inc) % _MODULUS
    return states[:n]


def kraken_generate(seed: int, count: int) -> list[str]:
    """``count`` cores: each takes a length of 7-12, ``7 + (x >> 16) % 6``,
    from the length stream, then that many letters, ``x % 26``, from the
    character stream."""
    if count < 1:
        raise ContractError("count must be at least 1")
    # high-bit decimation: the low bits of a power-of-two-modulus LCG have
    # short periods (bit 0 strictly alternates), so small even bounds would
    # otherwise collapse to a two-value cycle
    lengths = 7 + (_lcg_states(seed + _LENGTH_STREAM_OFFSET, count)
                   >> 16) % 6
    ends = np.cumsum(lengths).tolist()
    letters = _lcg_states(seed, ends[-1]) % 26 + ord("a")
    text = letters.astype(np.uint8).tobytes().decode("ascii")
    return [text[end - length:end]
            for end, length in zip(ends, lengths.tolist())]


def gozi_generate(words: WordDict, seed: int, count: int,
                  words_per_name: tuple[int, int] = (2, 4)) -> list[str]:
    if count < 1:
        raise ContractError("count must be at least 1")
    lo, hi = words_per_name
    if not 1 <= lo <= hi:
        raise ContractError("bad words-per-name range")
    # a name reads one state for its word count and one per word; words
    # have a letter at least, so the word after MAX_LABEL never fits
    draws = iter(_lcg_states(seed, count * (1 + min(hi, MAX_LABEL + 1)))
                 .tolist())
    out = []
    for _ in range(count):
        name = ""
        for _ in range(lo + next(draws) % (hi - lo + 1)):
            w = words.words[next(draws) % len(words)]
            if len(name) + len(w) > MAX_LABEL:
                break  # stay a legal label; at least one word always fits
            name += w
        out.append(name)
    return out


def suppobox_generate(first: WordDict, second: WordDict, seed: int,
                      count: int) -> list[str]:
    if count < 1:
        raise ContractError("count must be at least 1")
    high = _lcg_states(seed, 2 * count) >> 16    # high bits, as in kraken
    return [(first.words[i] + second.words[j])[:MAX_LABEL]
            for i, j in zip((high[0::2] % len(first)).tolist(),
                            (high[1::2] % len(second)).tolist())]


# family -> generate(seed, count) -> cores, over the bundled wordlists; each
# entry looks its generator up by module-level name at call time, so a
# wrapper installed there sees each call
FAMILIES = {
    "kraken": lambda seed, count: kraken_generate(seed, count),
    "gozi": lambda seed, count: gozi_generate(bundled_words()[0], seed, count),
    "suppobox": lambda seed, count: suppobox_generate(*bundled_words(), seed,
                                                      count),
}
