"""Zero-knowledge baseline generators.

All three families drive their choices from the same classic linear
congruential recurrence (glibc constants), so every output list is an exact
function of the integer seed:

    x_{k+1} = (1103515245 * x_k + 12345) mod 2^31

* kraken: random characters, length drawn from a range.
* gozi: 2-4 words from one wordlist, concatenated.
* suppobox: one word from each of two wordlists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpora import WordDict, bundled_words
from .domains import MAX_LABEL
from .errors import ContractError

_MULTIPLIER, _INCREMENT, _MODULUS = 1103515245, 12345, 2 ** 31


@dataclass
class Lcg:
    state: int

    def __post_init__(self):
        self.state %= _MODULUS

    def step(self) -> int:
        self.state = (_MULTIPLIER * self.state + _INCREMENT) % _MODULUS
        return self.state

    def below(self, bound: int) -> int:
        return self.step() % bound

    def below_mixed(self, bound: int) -> int:
        # high-bit decimation: the low bits of a power-of-two-modulus LCG
        # have short periods (bit 0 strictly alternates), so small even
        # bounds would otherwise collapse to a two-value cycle
        return (self.step() >> 16) % bound


# Lengths come from their own LCG instance: the glibc recurrence alternates
# parity every step, so interleaving length draws with character draws would
# skew the letter frequencies away from the family's near-uniform profile.
_LENGTH_STREAM_OFFSET = 0x5851


def _lcg_states(seed: int, n: int) -> np.ndarray:
    """The first ``n`` states ``Lcg(seed).step()`` returns, by jump-ahead
    doubling: the states so far, advanced by their own count, are the next
    as many.  Exact in uint64, as every product stays below 2^62."""
    states = np.array([Lcg(seed).step()], dtype=np.uint64)
    mult, inc = _MULTIPLIER, _INCREMENT     # advance len(states) steps
    while len(states) < n:
        states = np.concatenate([states, (mult * states + inc) % _MODULUS])
        mult, inc = mult * mult % _MODULUS, (mult * inc + inc) % _MODULUS
    return states[:n]


def kraken_generate(seed: int, count: int) -> list[str]:
    """``count`` cores: each takes a length of 7-12 from the length stream's
    ``below_mixed(6)``, then that many letters from the character stream's
    ``below(26)``."""
    if count < 1:
        raise ContractError("count must be at least 1")
    lengths = 7 + (_lcg_states(seed + _LENGTH_STREAM_OFFSET, count)
                   >> 16) % 6
    ends = np.cumsum(lengths).tolist()
    letters = _lcg_states(seed, ends[-1]) % 26 + ord("a")
    text = letters.astype(np.uint8).tobytes().decode("ascii")
    return [text[end - length:end]
            for end, length in zip(ends, lengths.tolist())]


def gozi_generate(words: WordDict, seed: int, count: int,
                  words_per_name: tuple[int, int] = (2, 4)) -> list[str]:
    lo, hi = words_per_name
    if not 1 <= lo <= hi:
        raise ContractError("bad words-per-name range")
    lcg = Lcg(seed)
    out = []
    for _ in range(count):
        k = lo + lcg.below(hi - lo + 1)
        parts = []
        total = 0
        for _ in range(k):
            w = words.words[lcg.below(len(words))]
            if total + len(w) > MAX_LABEL:
                break  # stay a legal label; at least one word always fits
            parts.append(w)
            total += len(w)
        out.append("".join(parts))
    return out


def suppobox_generate(first: WordDict, second: WordDict, seed: int,
                      count: int) -> list[str]:
    lcg = Lcg(seed)
    out = []
    for _ in range(count):
        out.append((first.words[lcg.below_mixed(len(first))]
                    + second.words[lcg.below_mixed(len(second))])[:MAX_LABEL])
    return out


# family -> generate(seed, count) -> cores, over the bundled wordlists; each
# entry looks its generator up by module-level name at call time, so a
# wrapper installed there sees each call
FAMILIES = {
    "kraken": lambda seed, count: kraken_generate(seed, count),
    "gozi": lambda seed, count: gozi_generate(bundled_words()[0], seed, count),
    "suppobox": lambda seed, count: suppobox_generate(*bundled_words(), seed,
                                                      count),
}
