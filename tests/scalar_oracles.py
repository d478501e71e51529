"""Per-name reference implementations of the statistics detector's
distances: Python sets, strings and a 1-D ``np.sum``.  The batched kernels
in ``dgalab.detectors.distances`` must match them bit for bit."""

import numpy as np

from dgalab.detectors.distances import edit_distance
from dgalab.detectors.features import split_core
from dgalab.domains import LABEL_CHARS
from dgalab.errors import ContractError

_CHAR_INDEX = {c: i for i, c in enumerate(LABEL_CHARS)}
EDIT_CAP = 24


def kl_divergence(p, q) -> float:
    """sum(p * ln(p/q)) over p_i > 0; ``q`` strictly positive."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ContractError("distributions must share a support")
    if np.any(q <= 0):
        raise ContractError("q must be smoothed to strictly positive mass")
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def bigram_set(s: str) -> set[str]:
    return {s[i:i + 2] for i in range(len(s) - 1)}


def jaccard_bigrams(a: str, b: str) -> float:
    """Jaccard index of the two strings' character-bigram sets."""
    if len(a) < 2 or len(b) < 2:
        raise ContractError("jaccard_bigrams needs strings of length >= 2")
    sa, sb = bigram_set(a), bigram_set(b)
    return len(sa & sb) / len(sa | sb)


def statistics_distances(model, domain: str) -> np.ndarray:
    """(KL, max Jaccard, min normalized edit) of one name under ``model``."""
    core = split_core(domain)[0]
    counts = np.zeros(len(LABEL_CHARS))
    for c in core:
        counts[_CHAR_INDEX[c]] += 1
    kl = kl_divergence(counts / counts.sum(), model.profile)
    if len(core) >= 2:
        bg = bigram_set(core)
        jac = max(len(bg & rb) / len(bg | rb)
                  for rb in map(bigram_set, model.jaccard_refs))
    else:
        jac = 0.0
    short = core[:EDIT_CAP]
    edit = min(edit_distance(short, r) / max(len(short), len(r))
               for r in model.edit_refs)
    return np.array([kl, jac, edit])
