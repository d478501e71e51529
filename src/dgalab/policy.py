"""The parameterized sequence policy: forward pass, sampling, and analytic
log-probability gradients.

The policy is a stacked recurrent network over the token alphabet.  Inputs
are embedded through an ``(n + 1, d_e)`` matrix whose extra row is the
internal start marker; the date-seed vector enters the first step as a dense
projection through the token rows plus that marker row.  The output head is
a linear projection of the top-layer hidden state followed by a softmax.

Generation applies one structural constraint on top of the raw softmax: the
hyphen token is masked at the first and last positions so every emitted core
is a registrable label.  The gradient reads the masked distributions the
sampling pass kept, so sampled log-probabilities and their gradients always
refer to the distribution that was actually used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import recurrent
from .domains import TokenDict
from .errors import ContractError, NumericError
from .rng import stream


@dataclass(frozen=True)
class PolicyParams:
    """All weights of the policy; arrays are never mutated in place."""

    embedding: np.ndarray          # (d_y + 1, d_e)
    w_x: tuple                     # per layer (d_in, 4*d_h)
    w_h: tuple                     # per layer (d_h, 4*d_h)
    b: tuple                       # per layer (4*d_h,)
    w_out: np.ndarray              # (d_h, d_y)

    @property
    def n_layers(self) -> int:
        return len(self.w_x)

    @property
    def d_e(self) -> int:
        return self.embedding.shape[1]

    @property
    def d_h(self) -> int:
        return self.w_h[0].shape[0]

    @property
    def d_y(self) -> int:
        return self.w_out.shape[1]

    @property
    def dtype(self):
        return self.embedding.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Named tensors in canonical checkpoint order."""
        out = {"embedding": self.embedding}
        for i in range(self.n_layers):
            out[f"layer{i}.w_x"] = self.w_x[i]
            out[f"layer{i}.w_h"] = self.w_h[i]
            out[f"layer{i}.b"] = self.b[i]
        out["w_out"] = self.w_out
        return out


def tensor_shapes(n_layers, d_e, d_h, d_y) -> dict[str, tuple]:
    """Closed-form shape of every named tensor, derivable from dims alone."""
    shapes = {"embedding": (d_y + 1, d_e)}
    for i in range(n_layers):
        d_in = d_e if i == 0 else d_h
        shapes[f"layer{i}.w_x"] = (d_in, 4 * d_h)
        shapes[f"layer{i}.w_h"] = (d_h, 4 * d_h)
        shapes[f"layer{i}.b"] = (4 * d_h,)
    shapes["w_out"] = (d_h, d_y)
    return shapes


def init_params(n_layers, d_e, d_h, d_y, rng_seed) -> PolicyParams:
    """Fresh weights, uniform in [-0.08, 0.08], from a counter-based stream."""
    if min(n_layers, d_e, d_h, d_y) < 1:
        raise ContractError("all dimensions must be positive")
    rng = stream("policy-init", rng_seed)
    arrays = {}
    for name, shape in tensor_shapes(n_layers, d_e, d_h, d_y).items():
        arrays[name] = ((rng.random(shape) * 2 - 1) * 0.08).astype(np.float32)
    return params_from_tensors(arrays, n_layers)


def params_from_tensors(arrays: dict, n_layers: int) -> PolicyParams:
    return PolicyParams(
        embedding=arrays["embedding"],
        w_x=tuple(arrays[f"layer{i}.w_x"] for i in range(n_layers)),
        w_h=tuple(arrays[f"layer{i}.w_h"] for i in range(n_layers)),
        b=tuple(arrays[f"layer{i}.b"] for i in range(n_layers)),
        w_out=arrays["w_out"],
    )


def check_finite(params: PolicyParams) -> None:
    for name, t in params.tensors().items():
        if not np.all(np.isfinite(t)):
            raise NumericError(f"non-finite values in {name}")


# ---------------------------------------------------------------------------
# embedding and distributions

def embed_tokens(params: PolicyParams, tokens) -> np.ndarray:
    tokens = np.asarray(tokens)
    if tokens.size and int(tokens.max()) > params.d_y:
        raise ContractError("token index exceeds embedding table")
    return params.embedding[tokens]

def embed_seed(params: PolicyParams, seed_vecs: np.ndarray) -> np.ndarray:
    """Dense projection of (B, n) seed vectors, offset by the marker row."""
    v = np.asarray(seed_vecs, dtype=params.dtype)
    if v.shape[-1] != params.d_y:
        raise ContractError("seed vector dimension must equal d_y")
    return v @ params.embedding[:params.d_y] + params.embedding[params.d_y]


def action_probs(params: PolicyParams, h_top: np.ndarray,
                 masked_index: int | None = None) -> np.ndarray:
    logits = h_top @ params.w_out
    if masked_index is not None:
        logits[..., masked_index] = -np.inf
    return recurrent.softmax(logits)


def masked_index_at(dct: TokenDict, pos: int, total: int) -> int | None:
    """Hyphen is not a legal first or last character of a label."""
    if dct.hyphen_index is not None and (pos == 0 or pos == total - 1):
        return dct.hyphen_index
    return None


# ---------------------------------------------------------------------------
# batched generation

@dataclass
class BatchRun:
    """Tokens of a batched generation pass; the rest only with want_cache."""

    tokens: np.ndarray                # (B, steps) int64
    dists: np.ndarray | None = None   # (steps, B, d_y)
    tops: np.ndarray | None = None    # (steps, B, d_h) top-layer h
    caches: list | None = None        # per step, stack_step's layer caches


def run_batch(params: PolicyParams, dct: TokenDict, total_len: int, *,
              seed_vecs=None, init_hidden=None, first_tokens=None,
              start_pos: int = 0, uniforms=None,
              want_cache=False) -> BatchRun:
    """Emit tokens for positions ``start_pos .. total_len-1``.

    Either start from scratch (``seed_vecs`` given, ``start_pos == 0``) or
    resume from a cached state (``init_hidden`` plus the ``first_tokens``
    consumed as the next input).  ``uniforms`` of shape (B, steps) selects
    sample mode; without it every step takes the argmax.  Step k's cache
    holds, per layer, the state ``(h_prev, c_prev)`` step k started from.
    """
    if params.d_y != dct.n:
        raise ContractError("params output dim does not match dictionary")
    steps = total_len - start_pos
    if steps <= 0:
        raise ContractError("nothing to generate")
    if seed_vecs is not None:
        x = embed_seed(params, seed_vecs)
        hidden = recurrent.zero_hidden(params.n_layers, x.shape[0],
                                       params.d_h, params.dtype)
    else:
        x = embed_tokens(params, np.asarray(first_tokens))
        hidden = init_hidden
    batch = x.shape[0]
    run = BatchRun(tokens=np.empty((batch, steps), dtype=np.int64))
    if want_cache:
        run.dists = np.empty((steps, batch, dct.n), dtype=params.dtype)
        run.tops = np.empty((steps, batch, params.d_h), dtype=params.dtype)
        run.caches = []
    for k in range(steps):
        pos = start_pos + k
        top, hidden, cache = recurrent.stack_step(
            params.w_x, params.w_h, params.b, x, hidden, want_cache)
        masked = masked_index_at(dct, pos, total_len)
        probs = action_probs(params, top, masked)
        if uniforms is None:
            chosen = np.argmax(probs, axis=1)
        else:
            # a float32 cumsum can end below u; fall back to the last token
            # that is legal here, never to a masked one
            last = dct.n - 2 if masked == dct.n - 1 else dct.n - 1
            cum = np.cumsum(probs, axis=1)
            chosen = np.minimum((cum <= uniforms[:, k:k + 1]).sum(axis=1),
                                last)
        run.tokens[:, k] = chosen
        if want_cache:
            run.dists[k] = probs
            run.tops[k] = top
            run.caches.append(cache)
        if k + 1 < steps:
            x = embed_tokens(params, chosen)
    return run


# ---------------------------------------------------------------------------
# gradients

def grad_from_coeffs(params: PolicyParams, seed_vecs, run: BatchRun,
                     coeffs: np.ndarray) -> dict:
    """Gradient of ``sum_t sum_b coeffs[t, b] * log pi(a_tb | s_tb)``.

    ``run`` is a ``run_batch(..., want_cache=True)`` pass from ``seed_vecs``
    and ``a_tb`` its tokens; ``coeffs`` (T, B) weights each taken token.
    Returns named gradient tensors of the same shapes as the parameters.
    """
    tokens, tops = run.tokens, run.tops
    batch, T = tokens.shape
    w = np.asarray(coeffs, dtype=params.dtype)
    # d log pi(a) / d logits = onehot(a) - pi
    dlogits = -run.dists * w[:, :, None]
    dlogits[np.arange(T)[:, None], np.arange(batch), tokens.T] += w
    gw_out = np.zeros_like(params.w_out)
    d_tops = np.empty_like(tops)
    for t in range(T):
        gw_out += tops[t].T @ dlogits[t]
        d_tops[t] = dlogits[t] @ params.w_out.T
    gw_x, gw_h, gb, dxs = recurrent.stack_backward(params.w_x, params.w_h,
                                                   run.caches, d_tops)
    g_emb = np.zeros_like(params.embedding)
    sv = np.asarray(seed_vecs, dtype=params.dtype)
    g_emb[:params.d_y] += sv.T @ dxs[0]
    g_emb[params.d_y] += dxs[0].sum(axis=0)
    if T > 1:
        np.add.at(g_emb, tokens[:, :-1].T.reshape(-1),
                  dxs[1:].reshape(-1, params.d_e))
    grads = {"embedding": g_emb, "w_out": gw_out}
    for i in range(params.n_layers):
        grads[f"layer{i}.w_x"] = gw_x[i]
        grads[f"layer{i}.w_h"] = gw_h[i]
        grads[f"layer{i}.b"] = gb[i]
    return grads


def apply_grads(params: PolicyParams, grads: dict, lr: float) -> PolicyParams:
    """Ascent step; returns ``params`` untouched when nothing would change."""
    if lr == 0.0 or all(not g.any() for g in grads.values()):
        return params
    arrays = {name: t + params.dtype.type(lr) * grads[name]
              for name, t in params.tensors().items()}
    return params_from_tensors(arrays, params.n_layers)

