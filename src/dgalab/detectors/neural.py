"""Character-level recurrent detector.

Embedding -> recurrent layer(s) (optionally bidirectional) -> mean pool over
valid positions -> affine -> sigmoid P(benign).  Trained by mini-batch
gradient descent on cross-entropy; supports incremental updates, which makes
it usable in the game-based defense loop.  The recurrent cell implementation
is shared with the sequence policy.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .. import recurrent
from ..checkpoint import F32, I64, record
from ..domains import LABEL_CHARS
from ..errors import DataError, NumericError
from ..rng import stream
from .base import DetectorModel, checked_names

VOCAB = LABEL_CHARS + "."
PAD = len(VOCAB)
CHUNK = 1024                   # names per scoring pass
# byte -> VOCAB index; NUL pads rows, other bytes fall off the embedding
_BYTE_TO_IDX = np.full(256, PAD + 1, dtype=np.int64)
_BYTE_TO_IDX[0] = PAD
_BYTE_TO_IDX[np.frombuffer(VOCAB.encode(), np.uint8)] = np.arange(PAD)


def _name_bytes(domains, max_len: int):
    """(B, L) NUL-padded bytes of the names cut at max_len, plus lengths."""
    lengths = np.array([min(len(d), max_len) for d in domains], dtype=np.int64)
    L = int(lengths.max(initial=0))
    rows = np.array(domains, dtype=f"S{L}").view(np.uint8)
    return rows.reshape(len(domains), L), lengths


def encode(domains, max_len: int):
    """(B, L) index matrix plus true lengths; long names are truncated."""
    rows, lengths = _name_bytes(domains, max_len)
    return _BYTE_TO_IDX[rows], lengths


@contextmanager
def _finite(what: str):
    """An overflow or invalid value raises ``NumericError``: a rate too large
    for the data leaves finite weights that score at chance."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"neural detector {what}: {exc}; lower "
                           "detector.neural.lr or game.incr_lr") from None


def _reverse_within_length(idx, lengths):
    """Per-row reversal of the valid prefix; padding stays trailing."""
    cols = np.arange(idx.shape[1])[None, :]
    src = lengths[:, None] - 1 - cols
    src = np.where(src >= 0, src, 0)
    rev = np.take_along_axis(idx, src, axis=1)
    rev[cols >= lengths[:, None]] = PAD
    return rev


class NeuralDetector(DetectorModel):
    kind = "neural"

    def __init__(self, embedding, stacks, w, b, max_len):
        self.embedding = embedding          # (len(VOCAB)+1, d_e)
        self.stacks = stacks                # [(w_x, w_h, bias)] x 1 or 2
        self.w = w                          # (d_h * len(stacks),)
        self.b = float(b)
        self.max_len = int(max_len)

    @property
    def bidirectional(self) -> bool:
        return len(self.stacks) == 2

    @property
    def d_h(self) -> int:
        return self.stacks[0][1][0].shape[0]

    # -- forward -----------------------------------------------------------
    def _pool(self, idx, lengths):
        """The padded forward pass the fit trains through: every row runs
        every step, in input order, with per-step caches."""
        mask = (np.arange(idx.shape[1])[None, :] < lengths[:, None])
        inv_len = (1.0 / lengths).astype(self.embedding.dtype)
        pools, caches, seqs = [], [], []
        for direction, (w_x, w_h, bias) in enumerate(self.stacks):
            seq = idx if direction == 0 else _reverse_within_length(idx, lengths)
            xs = self.embedding[seq].transpose(1, 0, 2)
            tops, _, cache = recurrent.stack_forward(w_x, w_h, bias, xs,
                                                     want_cache=True)
            tops = tops * mask.T[:, :, None]
            pools.append(tops.sum(axis=0) * inv_len[:, None])
            caches.append(cache)
            seqs.append(seq)
        pool = np.concatenate(pools, axis=1)
        logits = pool @ self.w + self.b
        probs = recurrent.sigmoid(logits)
        return probs, pool, mask, caches, seqs

    def _prefix_pool(self, idx, lengths):
        """The pooled features of ``_pool``, bit for bit, with the cell run
        once per distinct live prefix of the rows.

        Sorted rows that share a prefix are adjacent, so at step t each row
        that begins a new prefix of length t+1 carries that prefix's state
        and running sum, and a row that ends at step t reads its sum there.
        A product of two or more rows gives each row the bits of the padded
        batch product, but a one-row product takes another BLAS path; a step
        with one live prefix therefore runs it twice, unless the batch is
        one name, as the padded pass did."""
        batch = len(lengths)
        floor = min(2, batch)
        dtype = self.embedding.dtype
        pools = []
        for direction, (w_x, w_h, bias) in enumerate(self.stacks):
            seq = idx if direction == 0 else _reverse_within_length(idx, lengths)
            order = np.lexsort(seq.T[::-1])
            seq, ends = seq[order], lengths[order]
            starts = np.arange(seq.shape[1])[None, :] < ends[:, None]
            starts[1:] &= np.logical_or.accumulate(seq[1:] != seq[:-1], axis=1)
            prefix = np.cumsum(starts, axis=0) - 1   # row -> its prefix at t
            sums = np.empty((batch, self.d_h), dtype=dtype)
            for t in range(seq.shape[1]):
                rows = np.flatnonzero(starts[:, t])
                if len(rows) < floor:
                    rows = np.resize(rows, floor)
                if t:
                    parent = prefix[rows, t - 1]
                    hidden = [(h[parent], c[parent]) for h, c in hidden]
                else:
                    hidden = recurrent.zero_hidden(len(w_x), len(rows),
                                                   self.d_h, dtype)
                top, hidden, _ = recurrent.stack_step(
                    w_x, w_h, bias, self.embedding[seq[rows, t]], hidden)
                running = running[parent] + top if t else top
                done = np.flatnonzero(ends == t + 1)
                sums[done] = running[prefix[done, t]]
            pool = np.empty_like(sums)
            pool[order] = sums
            pools.append(pool)
        inv_len = (1.0 / lengths).astype(dtype)
        return np.concatenate(pools, axis=1) * inv_len[:, None]

    @_finite("scoring")
    def score_many(self, domains) -> np.ndarray:
        domains = checked_names(domains)
        out = np.empty(len(domains), dtype=np.float64)
        for lo in range(0, len(domains), CHUNK):
            chunk = domains[lo:lo + CHUNK]
            pool = self._prefix_pool(*encode(chunk, self.max_len))
            out[lo:lo + len(chunk)] = recurrent.sigmoid(pool @ self.w + self.b)
        return np.clip(out, 0.0, 1.0)

    # -- training ----------------------------------------------------------
    def _sgd_batch(self, idx, lengths, y, lr):
        """One SGD step on encoded rows; a row's input gradients past its end
        are exact zeros, which leave ``PAD``'s embedding row at +0."""
        probs, pool, mask, caches, seqs = self._pool(idx, lengths)
        dtype = self.embedding.dtype
        dlogit = ((probs - y) / len(lengths)).astype(dtype)
        dpool = np.outer(dlogit, self.w)
        g_emb = np.zeros_like(self.embedding)
        new_stacks = []
        # each (step, row) top's share of its row's mean pool
        share = mask.T * (1.0 / lengths).astype(dtype)[None, :]
        for direction, (w_x, w_h, bias) in enumerate(self.stacks):
            dp = dpool[:, direction * self.d_h:(direction + 1) * self.d_h]
            d_tops = dp[None, :, :] * share[:, :, None]
            gw_x, gw_h, gbias, dxs = recurrent.stack_backward(
                w_x, w_h, caches[direction], d_tops)
            recurrent.scatter_rows(g_emb, seqs[direction].T.reshape(-1),
                                   dxs.reshape(-1, self.embedding.shape[1]))
            new_stacks.append(tuple(
                [a - lr * g for a, g in zip(params, grads)] for params, grads
                in zip((w_x, w_h, bias), (gw_x, gw_h, gbias))))
        self.embedding = self.embedding - lr * g_emb
        self.stacks = new_stacks
        self.w = self.w - lr * (pool.T @ dlogit)
        self.b = float(self.b - lr * dlogit.sum())

    @_finite("training")
    def fit(self, domains, labels, epochs, batch, lr, rng_key):
        """SGD; the names become bytes once, each batch cut to its longest."""
        rows_bytes, lengths = _name_bytes(list(domains), self.max_len)
        labels = np.asarray(labels, dtype=np.float64)
        for epoch in range(epochs):
            order = stream("neural-train", rng_key, epoch).permutation(
                len(lengths))
            for lo in range(0, len(order), batch):
                rows = order[lo:lo + batch]
                idx = _BYTE_TO_IDX[rows_bytes[rows, :lengths[rows].max()]]
                self._sgd_batch(idx, lengths[rows], labels[rows], lr)
        return self

    @classmethod
    def train(cls, names, labels, hp, rng_seed):
        d_e, d_h, n_layers = hp["d_e"], hp["d_h"], hp["layers"]
        dtype = np.float32
        rng = stream("neural-init", rng_seed)

        def xavier(shape, fan_in, fan_out):
            # the 0.08-uniform policy convention starves plain SGD here;
            # fan-scaled init keeps pooled features and gradients usable
            lim = np.sqrt(6.0 / (fan_in + fan_out))
            return ((rng.random(shape) * 2 - 1) * lim).astype(dtype)

        embedding = xavier((len(VOCAB) + 1, d_e), len(VOCAB) + 1, d_e)
        stacks = []
        for _ in range(2 if hp["bidirectional"] else 1):
            w_x, w_h, bias = [], [], []
            for layer in range(n_layers):
                din = d_e if layer == 0 else d_h
                w_x.append(xavier((din, 4 * d_h), din, d_h))
                w_h.append(xavier((d_h, 4 * d_h), d_h, d_h))
                bias.append(np.zeros(4 * d_h, dtype=dtype))
            stacks.append((w_x, w_h, bias))
        w = xavier((d_h * len(stacks),), d_h * len(stacks), 1)
        model = cls(embedding, stacks, w, 0.0, hp["max_len"])
        model.fit(names, labels, epochs=hp["epochs"], batch=hp["batch"],
                  lr=hp["lr"], rng_key=rng_seed)
        return model

    def incremental_update(self, agd_domains, benign_domains, epochs, lr,
                           batch=64, rng_key=1):
        """Continue training on fresh adversarial names plus benign replay."""
        domains = list(benign_domains) + list(agd_domains)
        labels = [1.0] * len(benign_domains) + [0.0] * len(agd_domains)
        return self.fit(domains, labels, epochs, batch, lr,
                        rng_key=("incr", rng_key))

    # -- serialization -----------------------------------------------------
    def to_blobs(self) -> dict:
        n_layers = len(self.stacks[0][0])
        blobs = {
            "dims": np.array([self.embedding.shape[1], self.d_h, n_layers,
                              int(self.bidirectional), self.max_len],
                             dtype=np.int64),
            "embedding": self.embedding,
            "w": self.w,
            "b": np.array([self.b], dtype=np.float32),
            # here, not last where save appends it: keeps neural's bytes
            "threshold": np.array([self.threshold], dtype=np.float32),
        }
        for s, (w_x, w_h, bias) in enumerate(self.stacks):
            for layer in range(n_layers):
                blobs[f"s{s}.l{layer}.w_x"] = w_x[layer]
                blobs[f"s{s}.l{layer}.w_h"] = w_h[layer]
                blobs[f"s{s}.l{layer}.b"] = bias[layer]
        return blobs

    @classmethod
    def from_blobs(cls, blobs) -> "NeuralDetector":
        dims = [int(v) for v in record(blobs, "dims", I64, 5)]
        d_e, d_h, n_layers, bidir, max_len = dims
        if min(d_e, d_h, n_layers, max_len) < 1 or bidir not in (0, 1):
            raise DataError(f"neural checkpoint: bad dims {dims}")
        embedding = record(blobs, "embedding", F32, (len(VOCAB) + 1, d_e))
        stacks = []
        for s in range(1 + bidir):
            w_x, w_h, bias = [], [], []
            for layer in range(n_layers):
                din = d_e if layer == 0 else d_h
                key = f"s{s}.l{layer}"
                w_x.append(record(blobs, f"{key}.w_x", F32, (din, 4 * d_h)))
                w_h.append(record(blobs, f"{key}.w_h", F32, (d_h, 4 * d_h)))
                bias.append(record(blobs, f"{key}.b", F32, 4 * d_h))
            stacks.append((w_x, w_h, bias))
        return cls(embedding, stacks,
                   record(blobs, "w", F32, d_h * len(stacks)),
                   float(record(blobs, "b", F32, 1)[0]), max_len)
