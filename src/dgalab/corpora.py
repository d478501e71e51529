"""Corpus files, bundled word/TLD resources, and the synthetic benign pool.

Corpus files are newline-delimited UTF-8, one lowercase FQDN per line, with
``#`` starting a comment.  The benign pool (``bundled_benign``) is a
deterministic synthetic stand-in for a popular-domains ranking: word-derived,
brandable names with a realistic mix of lengths, digits, and hyphens.
"""

from __future__ import annotations

import importlib.resources as _resources
import re
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import content_lines, read_text
from .domains import MAX_LABEL, CheckedNames, validate_domain
from .errors import ContractError, DataError
from .rng import stream

_TLD_WEIGHTS = [("com", 50), ("net", 10), ("org", 10), ("io", 7), ("co", 5),
                ("info", 4), ("biz", 3), ("us", 3), ("uk", 3), ("app", 3),
                ("dev", 2)]
_SUFFIXES = ["ify", "ly", "hub", "lab", "box", "kit", "zone", "spot", "base",
             "mart", "works", "ware", "ster", "union"]
_PREFIXES = ["my", "the", "go", "get", "top", "best", "pro", "all"]
_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_WORD_RE = re.compile(f"[a-z0-9]{{1,{MAX_LABEL}}}")


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


def _data_text(name: str) -> str:
    return (_resources.files("dgalab") / "data" / name).read_text("utf-8")


def load_wordlist(bundled: str = "words_a.txt") -> WordDict:
    return WordDict(tuple(w for _, w in content_lines(_data_text(bundled))))


@lru_cache(maxsize=1)
def bundled_words() -> tuple[WordDict, WordDict]:
    """The bundled wordlists words_a and words_b, loaded once per process."""
    return load_wordlist("words_a.txt"), load_wordlist("words_b.txt")


def bundled_tlds() -> tuple[str, ...]:
    return tuple(_data_text("tlds.txt").split())


def bundled_benign(count: int | None = None) -> list[str]:
    """The 50k-name popular-domain stand-in (optionally truncated), a fresh
    list each call: ``synthesize_benign(50_000, rng_seed=20160801)``, built
    once per process."""
    return _benign_pool()[:count]


@lru_cache(maxsize=1)
def _benign_pool() -> list[str]:
    return synthesize_benign(50_000, rng_seed=20160801)


def load_domains(path) -> CheckedNames:
    """One checked FQDN per line; malformed entries raise DataError."""
    out = CheckedNames()
    for ln, line in content_lines(read_text(path)):
        if not validate_domain(line):
            raise DataError(f"{path}:{ln}: invalid domain {line!r}")
        out.append(line)
    if not out:
        raise DataError(f"{path}: no domains found")
    return out


def save_domains(path, domains) -> None:
    Path(path).write_text("\n".join(domains) + "\n", "utf-8")


@dataclass(frozen=True)
class LabeledCorpus:
    """Benign and AGD name sequences, both nonempty for any training use."""

    benign: Sequence[str]
    agd: Sequence[str]

    def require_both(self):
        if not self.benign or not self.agd:
            raise DataError("corpus must contain both classes")
        return self


def synthesize_benign(count: int, rng_seed: int = 20160801) -> list[str]:
    """Deterministic popular-domain stand-ins (full names with TLDs)."""
    first, second = bundled_words()
    words = first.words + second.words
    rng = stream("benign-pool", rng_seed, count)
    tld_names = [t for t, _ in _TLD_WEIGHTS]
    tld_cum = np.cumsum([w for _, w in _TLD_WEIGHTS])
    tld_cum = (tld_cum / tld_cum[-1]).tolist()

    def word():
        return words[rng.integers(len(words))]

    def coinage():
        # pronounceable brand-style coinage, CV alternating
        n = int(rng.integers(5, 9))
        chars = []
        for i in range(n):
            pool = _CONSONANTS if i % 2 == 0 else _VOWELS
            chars.append(pool[rng.integers(len(pool))])
        return "".join(chars)

    makers = [
        (30, word),
        (26, lambda: word() + word()),
        (12, lambda: word() + _SUFFIXES[rng.integers(len(_SUFFIXES))]),
        (8, lambda: _PREFIXES[rng.integers(len(_PREFIXES))] + word()),
        (6, lambda: word() + str(rng.integers(1, 100))),
        (6, lambda: word() + "-" + word()),
        (8, coinage),
        (4, lambda: "".join(word()[0] for _ in range(3)) + word()),
    ]
    total_w = sum(w for w, _ in makers)
    bounds = []
    acc = 0.0
    for w, fn in makers:
        acc += w / total_w
        bounds.append((acc, fn))

    seen = set()
    out = []
    while len(out) < count:
        u = rng.random()
        for bound, fn in bounds:
            if u <= bound:
                core = fn()[:24]
                break
        # bisect_left counts the cumulative weights below the draw
        tld = tld_names[bisect_left(tld_cum, rng.random())]
        name = f"{core}.{tld}"
        if name not in seen and validate_domain(name):
            seen.add(name)
            out.append(name)
    return out
