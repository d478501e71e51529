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

import re
from dataclasses import dataclass

from .domains import MAX_LABEL
from .errors import ContractError

_WORD_RE = re.compile(f"[a-z0-9]{{1,{MAX_LABEL}}}")
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


@dataclass(frozen=True)
class WordDict:
    """Ordered list of lowercase alphanumeric label fragments, each short
    enough to be a label on its own."""

    words: tuple[str, ...]

    def __post_init__(self):
        if not self.words:
            raise ContractError("word dictionary is empty")
        for w in self.words:
            if not _WORD_RE.fullmatch(w):
                raise ContractError(f"word {w!r} is not 1-{MAX_LABEL} "
                                    "characters of a-z and 0-9")

    def __len__(self):
        return len(self.words)

    def pick(self, lcg: Lcg) -> str:
        return self.words[lcg.below(len(self.words))]

    def pick_mixed(self, lcg: Lcg) -> str:
        return self.words[lcg.below_mixed(len(self.words))]


# Lengths come from their own LCG instance: the glibc recurrence alternates
# parity every step, so interleaving length draws with character draws would
# skew the letter frequencies away from the family's near-uniform profile.
_LENGTH_STREAM_OFFSET = 0x5851


def kraken_generate(seed: int, count: int) -> list[str]:
    if count < 1:
        raise ContractError("count must be at least 1")
    chars = Lcg(seed)
    lengths = Lcg(seed + _LENGTH_STREAM_OFFSET)
    out = []
    for _ in range(count):
        length = 7 + lengths.below_mixed(6)        # 7-12 letters
        core = "".join(chr(ord("a") + chars.below(26)) for _ in range(length))
        out.append(core)
    return out


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
            w = words.pick(lcg)
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
        core = (first.pick_mixed(lcg) + second.pick_mixed(lcg))[:MAX_LABEL]
        out.append(core)
    return out
