"""The 21-feature vector behind the random-forest detector.

Structural, linguistic, and statistical features of the registrable core
label.  Reference n-gram frequencies and the word dictionary come from the
bundled wordlists, so extraction is a pure deterministic function of the
domain string.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ..corpora import bundled_tlds, load_wordlist
from ..domains import validate_domain
from ..errors import ScoringError

FEATURE_NAMES = (
    "length", "subdomain_count", "digit_ratio", "vowel_ratio",
    "consonant_ratio", "hyphen_count", "max_digit_run", "max_consonant_run",
    "unique_char_count", "char_entropy", "bigram_entropy", "trigram_entropy",
    "benign_bigram_freq", "benign_trigram_freq", "repeated_char_ratio",
    "hex_char_ratio", "dict_word_coverage", "longest_dict_word_ratio",
    "alphabet_switch_count", "first_char_digit", "tld_in_allowlist",
)

_VOWELS = set("aeiou")
_HEX = set("0123456789abcdef")
_DIGITS = set("0123456789")


@lru_cache(maxsize=1)
def _reference():
    words = (load_wordlist(bundled="words_a.txt").words
             + load_wordlist(bundled="words_b.txt").words)
    wordset = frozenset(w for w in words if len(w) >= 3)
    bigrams, trigrams = {}, {}
    for w in words:
        for i in range(len(w) - 1):
            bigrams[w[i:i + 2]] = bigrams.get(w[i:i + 2], 0) + 1
        for i in range(len(w) - 2):
            trigrams[w[i:i + 3]] = trigrams.get(w[i:i + 3], 0) + 1
    btot = sum(bigrams.values())
    ttot = sum(trigrams.values())
    bfreq = {k: v / btot for k, v in bigrams.items()}
    tfreq = {k: v / ttot for k, v in trigrams.items()}
    max_len = max(len(w) for w in wordset)
    return wordset, bfreq, tfreq, max_len, frozenset(bundled_tlds())


def split_core(domain: str) -> tuple[str, int, str | None]:
    """Return (registrable core label, subdomain count, tld or None)."""
    labels = domain.split(".")
    if len(labels) == 1:
        return labels[0], 0, None
    return labels[-2], len(labels) - 2, labels[-1]


def _entropy(counts) -> float:
    total = sum(counts)
    if total == 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def _ngram_counts(s: str, k: int) -> list[int]:
    seen = {}
    for i in range(len(s) - k + 1):
        g = s[i:i + k]
        seen[g] = seen.get(g, 0) + 1
    return list(seen.values())


def _max_run(s: str, charset) -> int:
    best = run = 0
    for ch in s:
        run = run + 1 if ch in charset else 0
        best = max(best, run)
    return best


def _dict_coverage(core: str) -> tuple[float, float]:
    wordset, _, _, max_len, _ = _reference()
    n = len(core)
    covered = 0
    i = 0
    while i < n:
        match = 0
        for length in range(min(max_len, n - i), 2, -1):
            if core[i:i + length] in wordset:
                match = length
                break
        if match:
            covered += match
            i += match
        else:
            i += 1
    longest = 0
    for i in range(n):
        for length in range(min(max_len, n - i), longest, -1):
            if core[i:i + length] in wordset:
                longest = max(longest, length)
                break
    return covered / n, longest / n


def extract_features(domain: str) -> np.ndarray:
    """21 deterministic features; see FEATURE_NAMES for the column order."""
    if not validate_domain(domain):
        raise ScoringError(f"cannot featurize invalid domain {domain!r}")
    wordset, bfreq, tfreq, _, tlds = _reference()
    core, sub_count, tld = split_core(domain)
    n = len(core)
    digits = sum(c in _DIGITS for c in core)
    vowels = sum(c in _VOWELS for c in core)
    letters = sum(c.isalpha() for c in core)
    consonants = letters - vowels
    unique = len(set(core))

    bigrams = [core[i:i + 2] for i in range(n - 1)]
    trigrams = [core[i:i + 3] for i in range(n - 2)]
    bscore = float(np.mean([bfreq.get(g, 0.0) for g in bigrams])) if bigrams else 0.0
    tscore = float(np.mean([tfreq.get(g, 0.0) for g in trigrams])) if trigrams else 0.0

    def char_class(c):
        return 0 if c.isalpha() else (1 if c in _DIGITS else 2)

    switches = sum(char_class(core[i]) != char_class(core[i + 1])
                   for i in range(n - 1))
    coverage, longest_ratio = _dict_coverage(core)

    values = (
        float(n),
        float(sub_count),
        digits / n,
        vowels / n,
        consonants / n,
        float(core.count("-")),
        float(_max_run(core, _DIGITS)),
        float(_max_run(core, set("bcdfghjklmnpqrstvwxyz"))),
        float(unique),
        _entropy(_ngram_counts(core, 1)),
        _entropy(_ngram_counts(core, 2)),
        _entropy(_ngram_counts(core, 3)),
        bscore,
        tscore,
        1.0 - unique / n,
        sum(c in _HEX for c in core) / n,
        coverage,
        longest_ratio,
        float(switches),
        1.0 if core[0] in _DIGITS else 0.0,
        1.0 if tld in tlds else 0.0,
    )
    return np.array(values, dtype=np.float64)


def extract_many(domains) -> np.ndarray:
    return np.stack([extract_features(d) for d in domains])


def features_csv(domains) -> str:
    """CSV export with the fixed 21-column header (plus the domain)."""
    lines = [",".join(("domain",) + FEATURE_NAMES)]
    for domain in domains:
        values = extract_features(domain)
        lines.append(domain + "," + ",".join(f"{v:.6g}" for v in values))
    return "\n".join(lines) + "\n"
