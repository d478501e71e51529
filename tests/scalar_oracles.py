"""Reference implementations the batched code must match exactly.

The statistics detector's distances (Python sets, strings and a 1-D
``np.sum``) against ``dgalab.detectors.distances``; per-row name assembly
against ``TokenDict.fqdns``; the per-character neural ``encode``; and the
recurrent step with one sigmoid per gate."""

import numpy as np

from dgalab.detectors.distances import edit_distance
from dgalab.detectors.features import split_core
from dgalab.detectors.neural import PAD, VOCAB
from dgalab.domains import LABEL_CHARS, assemble_fqdn
from dgalab.errors import ContractError
from dgalab.recurrent import sigmoid

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


def token_fqdns(dct, tokens, tld) -> list[str]:
    """One ``detokenize`` and one validated ``assemble_fqdn`` per row."""
    return [assemble_fqdn(dct.detokenize(row), tld) for row in tokens]


_VOCAB_INDEX = {c: i for i, c in enumerate(VOCAB)}


def neural_encode(domains, max_len: int):
    """(B, L) VOCAB indices, PAD-filled, plus lengths; names cut at max_len."""
    lengths = np.array([min(len(d), max_len) for d in domains], dtype=np.int64)
    idx = np.full((len(domains), int(lengths.max())), PAD, dtype=np.int64)
    for row, d in enumerate(domains):
        for col, ch in enumerate(d[:max_len]):
            idx[row, col] = _VOCAB_INDEX[ch]
    return idx, lengths


def stack_step(w_x, w_h, b, x, hidden):
    """One step of the stacked cell, a separate sigmoid per gate; returns
    (top h, new hidden, per-layer caches)."""
    d_h = w_h[0].shape[0]
    new_hidden, caches = [], []
    inp = x
    for layer, (h_prev, c_prev) in enumerate(hidden):
        z = inp @ w_x[layer] + h_prev @ w_h[layer] + b[layer]
        i = sigmoid(z[:, :d_h])
        f = sigmoid(z[:, d_h:2 * d_h])
        o = sigmoid(z[:, 2 * d_h:3 * d_h])
        g = np.tanh(z[:, 3 * d_h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        new_hidden.append((h, c))
        caches.append((inp, h_prev, c_prev, i, f, o, g, tc))
        inp = h
    return inp, new_hidden, caches
