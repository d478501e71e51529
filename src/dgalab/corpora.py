"""Corpus files, bundled word/TLD resources, and the synthetic benign pool.

Corpus files are newline-delimited UTF-8, one lowercase FQDN per line, with
``#`` starting a comment.  The bundled benign list is a deterministic
synthetic stand-in for a popular-domains ranking: word-derived, brandable
names with a realistic mix of lengths, digits, and hyphens.
"""

from __future__ import annotations

import importlib.resources as _resources
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines import WordDict
from .domains import validate_domain
from .errors import DataError
from .rng import stream

_TLD_WEIGHTS = [("com", 50), ("net", 10), ("org", 10), ("io", 7), ("co", 5),
                ("info", 4), ("biz", 3), ("us", 3), ("uk", 3), ("app", 3),
                ("dev", 2)]
_SUFFIXES = ["ify", "ly", "hub", "lab", "box", "kit", "zone", "spot", "base",
             "mart", "works", "ware", "ster", "union"]
_PREFIXES = ["my", "the", "go", "get", "top", "best", "pro", "all"]
_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"


def _data_text(name: str) -> str:
    return (_resources.files("dgalab") / "data" / name).read_text("utf-8")


def load_wordlist(path=None, bundled: str = "words_a.txt") -> WordDict:
    text = Path(path).read_text("utf-8") if path else _data_text(bundled)
    words = tuple(w for w in (line.strip() for line in text.splitlines())
                  if w and not w.startswith("#"))
    return WordDict(words)


def bundled_tlds() -> tuple[str, ...]:
    return tuple(_data_text("tlds.txt").split())


def bundled_benign(count: int | None = None) -> list[str]:
    """The bundled 50k-name popular-domain stand-in (optionally truncated).

    Generated by ``synthesize_benign(50_000, rng_seed=20160801)``.
    """
    names = _data_text("benign_50k.txt").split()
    return names if count is None else names[:count]


def load_domains(path) -> list[str]:
    """Read one FQDN per line; malformed entries raise DataError."""
    out = []
    for ln, raw in enumerate(Path(path).read_text("utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
    """Benign and AGD name lists, both nonempty for any training use."""

    benign: tuple[str, ...]
    agd: tuple[str, ...]

    def require_both(self):
        if not self.benign or not self.agd:
            raise DataError("corpus must contain both classes")
        return self

    @property
    def size(self) -> int:
        return len(self.benign) + len(self.agd)


def synthesize_benign(count: int, rng_seed: int = 20160801) -> list[str]:
    """Deterministic popular-domain stand-ins (full names with TLDs)."""
    words = load_wordlist(bundled="words_a.txt").words + \
        load_wordlist(bundled="words_b.txt").words
    rng = stream("benign-pool", rng_seed, count)
    tld_names = [t for t, _ in _TLD_WEIGHTS]
    tld_cum = np.cumsum([w for _, w in _TLD_WEIGHTS])
    tld_cum = tld_cum / tld_cum[-1]

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
        tld = tld_names[int((tld_cum < rng.random()).sum())]
        name = f"{core}.{tld}"
        if name not in seen and validate_domain(name):
            seen.add(name)
            out.append(name)
    return out
