"""Character-level recurrent detector.

Embedding -> recurrent layer(s) (optionally bidirectional) -> mean pool over
valid positions -> affine -> sigmoid P(benign).  Trained by mini-batch
gradient descent on cross-entropy; supports incremental updates, which makes
it usable in the game-based defense loop.  The recurrent cell implementation
is shared with the sequence policy.
"""

from __future__ import annotations

import numpy as np

from .. import recurrent
from ..checkpoint import F32, I64, record
from ..domains import LABEL_CHARS
from ..errors import DataError
from ..rng import stream
from .base import DetectorModel, checked_names

VOCAB = LABEL_CHARS + "."
PAD = len(VOCAB)
# byte -> VOCAB index; NUL pads rows, other bytes fall off the embedding
_BYTE_TO_IDX = np.full(256, PAD + 1, dtype=np.int64)
_BYTE_TO_IDX[0] = PAD
_BYTE_TO_IDX[np.frombuffer(VOCAB.encode(), np.uint8)] = np.arange(PAD)


def encode(domains, max_len: int):
    """(B, L) index matrix plus true lengths; long names are truncated."""
    lengths = np.array([min(len(d), max_len) for d in domains], dtype=np.int64)
    L = int(lengths.max())
    rows = np.array(domains, dtype=f"S{L}").view(np.uint8)
    return _BYTE_TO_IDX[rows.reshape(len(domains), L)], lengths


def _reverse_within_length(idx, lengths):
    """Per-row reversal of the valid prefix; padding stays trailing."""
    B, L = idx.shape
    cols = np.arange(L)[None, :]
    src = lengths[:, None] - 1 - cols
    src = np.where(src >= 0, src, 0)
    rev = np.take_along_axis(idx, src, axis=1)
    rev[cols >= lengths[:, None]] = PAD
    return rev


class NeuralDetector(DetectorModel):
    kind = "neural"

    def __init__(self, embedding, stacks, w, b, max_len=32, threshold=0.5):
        super().__init__(threshold)
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
    def _pool(self, idx, lengths, want_cache=False):
        mask = (np.arange(idx.shape[1])[None, :] < lengths[:, None])
        inv_len = (1.0 / lengths).astype(self.embedding.dtype)
        pools, caches, seqs = [], [], []
        for direction, (w_x, w_h, bias) in enumerate(self.stacks):
            seq = idx if direction == 0 else _reverse_within_length(idx, lengths)
            xs = self.embedding[seq].transpose(1, 0, 2)
            tops, _, cache = recurrent.stack_forward(w_x, w_h, bias, xs,
                                                     want_cache=want_cache)
            tops = tops * mask.T[:, :, None]
            pools.append(tops.sum(axis=0) * inv_len[:, None])
            caches.append(cache)
            seqs.append(seq)
        pool = np.concatenate(pools, axis=1)
        logits = pool @ self.w + self.b
        probs = recurrent.sigmoid(logits)
        return probs, pool, mask, caches, seqs

    def score_many(self, domains) -> np.ndarray:
        domains = checked_names(domains)
        out = np.empty(len(domains), dtype=np.float64)
        for lo in range(0, len(domains), 1024):
            chunk = domains[lo:lo + 1024]
            idx, lengths = encode(chunk, self.max_len)
            probs, *_ = self._pool(idx, lengths)
            out[lo:lo + len(chunk)] = probs
        return np.clip(out, 0.0, 1.0)

    # -- training ----------------------------------------------------------
    def _sgd_batch(self, domains, y, lr):
        idx, lengths = encode(domains, self.max_len)
        probs, pool, mask, caches, seqs = self._pool(idx, lengths,
                                                     want_cache=True)
        batch = len(domains)
        dtype = self.embedding.dtype
        dlogit = ((probs - y) / batch).astype(dtype)
        gw = pool.T @ dlogit
        gb = dlogit.sum()
        dpool = np.outer(dlogit, self.w).astype(dtype)
        g_emb = np.zeros_like(self.embedding)
        new_stacks = []
        d_h = self.d_h
        inv_len = (1.0 / lengths).astype(dtype)
        for direction, (w_x, w_h, bias) in enumerate(self.stacks):
            dp = dpool[:, direction * d_h:(direction + 1) * d_h]
            d_tops = (dp[None, :, :] * (mask.T * inv_len[None, :])[:, :, None]
                      ).astype(dtype)
            gw_x, gw_h, gbias, dxs = recurrent.stack_backward(
                w_x, w_h, caches[direction], d_tops)
            dxs = dxs * mask.T[:, :, None]
            np.add.at(g_emb, seqs[direction].T.reshape(-1),
                      dxs.reshape(-1, self.embedding.shape[1]))
            new_stacks.append((
                [a - lr * g for a, g in zip(w_x, gw_x)],
                [a - lr * g for a, g in zip(w_h, gw_h)],
                [a - lr * g for a, g in zip(bias, gbias)],
            ))
        self.embedding = self.embedding - lr * g_emb
        self.stacks = new_stacks
        self.w = self.w - lr * gw
        self.b = float(self.b - lr * gb)
        loss = -np.mean(y * np.log(np.clip(probs, 1e-9, 1))
                        + (1 - y) * np.log(np.clip(1 - probs, 1e-9, 1)))
        return float(loss)

    def fit(self, domains, labels, epochs, batch, lr, rng_key):
        domains = list(domains)
        labels = np.asarray(labels, dtype=np.float64)
        for epoch in range(epochs):
            order = stream("neural-train", rng_key, epoch).permutation(len(domains))
            for lo in range(0, len(order), batch):
                rows = order[lo:lo + batch]
                self._sgd_batch([domains[i] for i in rows], labels[rows], lr)
        return self

    @classmethod
    def train(cls, corpus, hp, rng_seed):
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
        domains = list(corpus.benign) + list(corpus.agd)
        labels = [1.0] * len(corpus.benign) + [0.0] * len(corpus.agd)
        model.fit(domains, labels, epochs=hp["epochs"], batch=hp["batch"],
                  lr=hp["lr"], rng_key=rng_seed)
        return model

    def incremental_update(self, agd_domains, benign_domains, epochs=3,
                           lr=0.2, batch=64, rng_key=1):
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
                   float(record(blobs, "b", F32, 1)[0]), max_len,
                   float(record(blobs, "threshold", F32, 1)[0]))
