"""Distance-profile detector: a domain is benign-like when its character
distribution, bigram sets, and edit distances sit close to a benign profile.

Three distances are computed against the benign training profile and fused
by a logistic layer fit on the training corpus:

* KL divergence of the core's character distribution from the (smoothed)
  benign character profile;
* maximum bigram Jaccard similarity against a fixed reference sample;
* minimum normalized edit distance against a second reference sample.

Training entries are deduplicated first, so repeated corpus rows cannot
shift the profile.  Scoring and training run the batched kernels of
``distances`` on ``CHUNK`` names at a time.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..checkpoint import F32, TEXT, record
from ..domains import LABEL_CHARS, MAX_LABEL
from ..errors import DataError
from ..rng import stream
from .base import DetectorModel, Logistic, fit_logistic
from .features import split_core
from .distances import (N_CHARS, add_one_smooth, bigram_bitsets, char_counts,
                        edit_distances, encode, kl_rows, match_masks,
                        max_jaccard)

_EDIT_CAP = 24  # cores are compared on their first 24 characters
CHUNK = 64      # names per kernel pass; bounds memory for any batch size


def _checked_refs(kind: str, refs, cap: int) -> tuple[str, ...]:
    """Nonempty refs of at most ``cap`` chars; ``encode`` rejects the ones
    with a character outside LABEL_CHARS."""
    refs = tuple(refs)
    if not refs or not all(refs):
        raise DataError(f"statistics {kind} refs must be nonempty strings")
    for ref in refs:
        if len(ref) > cap:
            raise DataError(f"statistics {kind} ref {ref!r} is longer than "
                            f"{cap} characters")
    return refs


class StatisticsDetector(DetectorModel):
    kind = "statistics"

    def __init__(self, profile, jaccard_refs, edit_refs,
                 logistic: Logistic | None = None, threshold=0.5):
        # logistic is None only for a probe that measures distances
        super().__init__(threshold)
        self.profile = np.asarray(profile, dtype=np.float64)
        if self.profile.shape != (N_CHARS,) or not np.all(self.profile > 0):
            raise DataError(f"statistics profile must hold {N_CHARS} "
                            "positive masses")
        self.jaccard_refs = _checked_refs("jaccard", jaccard_refs, MAX_LABEL)
        self.edit_refs = _checked_refs("edit", edit_refs, _EDIT_CAP)
        self._ref_bigrams = bigram_bitsets(self.jaccard_refs)
        self._edit_masks = match_masks(self.edit_refs)
        self._edit_lengths = np.array([len(r) for r in self.edit_refs])
        self.logistic = logistic

    # -- distances ---------------------------------------------------------
    def distances_many(self, domains) -> np.ndarray:
        """(N, 3) float64 rows of (KL, max Jaccard, min normalized edit)."""
        out = np.empty((len(domains), 3))
        for lo in range(0, len(domains), CHUNK):
            out[lo:lo + CHUNK] = self._chunk_distances(domains[lo:lo + CHUNK])
        return out

    def _chunk_distances(self, domains) -> np.ndarray:
        codes, lengths = encode([split_core(d)[0] for d in domains])
        kl = kl_rows(char_counts(codes), self.profile)
        jac = max_jaccard(codes, lengths, self._ref_bigrams)
        short = np.minimum(lengths, _EDIT_CAP)
        edit = edit_distances(codes[:, :_EDIT_CAP], short, self._edit_masks,
                              self._edit_lengths)
        edit = (edit / np.maximum(short[:, None], self._edit_lengths)).min(1)
        return np.column_stack([kl, jac, edit])

    def _score_many(self, domains) -> np.ndarray:
        return self.logistic.score(self.distances_many(domains))

    # -- training ----------------------------------------------------------
    @classmethod
    def train(cls, corpus, hp, rng_seed):
        benign = list(dict.fromkeys(corpus.benign))
        agd = list(dict.fromkeys(corpus.agd))
        cores = [split_core(d)[0] for d in benign]

        counts = Counter("".join(cores))
        profile = add_one_smooth([counts[c] for c in LABEL_CHARS])

        rng = stream("statistics-refs", rng_seed)
        usable = [c for c in cores if len(c) >= 2] or cores
        jac_refs = [usable[i] for i in
                    rng.integers(0, len(usable), size=hp["jaccard_refs"])]
        edit_refs = [cores[i][:_EDIT_CAP] for i in
                     rng.integers(0, len(cores), size=hp["edit_refs"])]

        probe = cls(profile, jac_refs, edit_refs)
        feats = probe.distances_many(benign + agd)
        labels = np.array([1.0] * len(benign) + [0.0] * len(agd))
        return cls(profile, jac_refs, edit_refs, fit_logistic(feats, labels))

    # -- serialization -----------------------------------------------------
    def to_blobs(self) -> dict:
        return {
            "profile": self.profile.astype(np.float32),
            "jaccard_refs": "\n".join(self.jaccard_refs).encode("utf-8"),
            "edit_refs": "\n".join(self.edit_refs).encode("utf-8"),
            **self.logistic.to_blobs(),
            "threshold": np.array([self.threshold], dtype=np.float32),
        }

    @classmethod
    def from_blobs(cls, blobs) -> "StatisticsDetector":
        logistic = Logistic.from_blobs(blobs, 3)
        return cls(record(blobs, "profile", F32, N_CHARS),
                   record(blobs, "jaccard_refs", TEXT).split("\n"),
                   record(blobs, "edit_refs", TEXT).split("\n"), logistic,
                   float(record(blobs, "threshold", F32, 1)[0]))
