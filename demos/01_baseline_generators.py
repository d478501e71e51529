"""Baseline generator families and why character-level ones get caught.

Generates names from the three zero-knowledge families, shows their
determinism, and measures the letter-frequency flatness that statistical
detectors exploit against character-level generation.
"""

from collections import Counter

from dgalab import gozi_generate, kraken_generate, suppobox_generate
from dgalab.corpora import load_wordlist

words_a = load_wordlist(bundled="words_a.txt")
words_b = load_wordlist(bundled="words_b.txt")

print("== five names per family (seed 2024) ==")
for name, batch in [
    ("kraken", kraken_generate(2024, 5)),
    ("gozi", gozi_generate(words_a, 2024, 5)),
    ("suppobox", suppobox_generate(words_a, words_b, 2024, 5)),
]:
    print(f"{name:9s}", ", ".join(batch))

print("\n== determinism: same seed, same names ==")
again = kraken_generate(2024, 5)
assert again == kraken_generate(2024, 5)
print("kraken(2024) x2 ->", again[:3], "... identical")

print("\n== letter frequency: kraken is flat, suppobox is English-shaped ==")
for name, batch in [
    ("kraken", kraken_generate(7, 3000)),
    ("suppobox", suppobox_generate(words_a, words_b, 7, 3000)),
]:
    chars = "".join(batch)
    counts = Counter(c for c in chars if c.isalpha())
    top = counts.most_common(5)
    ratio = top[0][1] / max(1, counts.most_common()[-1][1])
    print(f"{name:9s} top letters {[c for c, _ in top]}, "
          f"max/min frequency ratio {ratio:.1f}")
print("\na flat profile is exactly what distance-based detectors key on")
