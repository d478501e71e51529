"""Stacked gated recurrent cells: batched forward and backprop through time.

One canonical four-gate formulation (input/forget/output/cell, in that order
inside the fused weight matrices) is shared by the sequence policy and the
neural detector, so a single gradient check covers both users.

Shapes use batch-major conventions: inputs are ``(B, d_in)`` per step, hidden
state is a list of ``(h, c)`` pairs of shape ``(B, d_h)`` per layer.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    # tanh form is overflow-safe at float32
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def zero_hidden(n_layers, batch, d_h, dtype=np.float32):
    return [(np.zeros((batch, d_h), dtype), np.zeros((batch, d_h), dtype))
            for _ in range(n_layers)]


def stack_step(w_x, w_h, b, x, hidden, want_cache=False):
    """One time step through all layers.

    Returns (top-layer h, new hidden, cache); cache is None unless requested.
    """
    d_h = w_h[0].shape[0]
    new_hidden = []
    caches = [] if want_cache else None
    inp = x
    for layer, (h_prev, c_prev) in enumerate(hidden):
        z = inp @ w_x[layer] + h_prev @ w_h[layer] + b[layer]
        gates = sigmoid(z[:, :3 * d_h])
        i, f, o = gates[:, :d_h], gates[:, d_h:2 * d_h], gates[:, 2 * d_h:]
        g = np.tanh(z[:, 3 * d_h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h = o * tc
        new_hidden.append((h, c))
        if want_cache:
            caches.append((inp, h_prev, c_prev, i, f, o, g, tc))
        inp = h
    return inp, new_hidden, caches


def cache_state(cache):
    """The per-layer ``(h_prev, c_prev)`` a ``stack_step`` cache began at."""
    return [(h_prev, c_prev) for _, h_prev, c_prev, *_ in cache]


def stack_forward(w_x, w_h, b, xs, want_cache=False):
    """Run a whole (T, B, d_in) input sequence from a zero state; returns
    (T, B, d_h) top h, the final hidden state and the per-step caches."""
    T, batch = xs.shape[0], xs.shape[1]
    d_h = w_h[0].shape[0]
    hidden = zero_hidden(len(w_x), batch, d_h, xs.dtype)
    tops = np.empty((T, batch, d_h), dtype=xs.dtype)
    all_caches = [] if want_cache else None
    for t in range(T):
        top, hidden, cache = stack_step(w_x, w_h, b, xs[t], hidden, want_cache)
        tops[t] = top
        if want_cache:
            all_caches.append(cache)
    return tops, hidden, all_caches


def scatter_rows(table, ids, rows):
    """``np.add.at(table, ids, rows)`` for a C-contiguous 2-D ``table``,
    through the flat indices ``id * width + column``: numpy's fast 1-D
    form, which adds to each element in the same order, so the bits are
    equal."""
    width = table.shape[1]
    flat = (ids[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(table.reshape(-1, copy=False), flat, rows.reshape(-1))


def stack_backward(w_x, w_h, caches, d_tops):
    """BPTT given per-step caches and (T, B, d_h) grads on the top-layer h.

    Returns (grad w_x, grad w_h, grad b, (T, B, d_in) grads on layer-0 input).
    Gradients do not flow into the initial hidden state.
    """
    n_layers = len(w_x)
    T = len(caches)
    d_h = w_h[0].shape[0]
    dtype = d_tops.dtype
    gw_x = [np.zeros_like(w) for w in w_x]
    gw_h = [np.zeros_like(w) for w in w_h]
    gb = [np.zeros(w.shape[1], dtype=dtype) for w in w_x]
    batch = d_tops.shape[1]
    dh_next = [np.zeros((batch, d_h), dtype) for _ in range(n_layers)]
    dc_next = [np.zeros((batch, d_h), dtype) for _ in range(n_layers)]
    dxs = np.zeros((T, batch, w_x[0].shape[0]), dtype=dtype)
    for t in range(T - 1, -1, -1):
        d_above = d_tops[t]
        for layer in range(n_layers - 1, -1, -1):
            inp, h_prev, c_prev, i, f, o, g, tc = caches[t][layer]
            dh = d_above + dh_next[layer]
            do = dh * tc
            dc = dh * o * (1 - tc * tc) + dc_next[layer]
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dz = np.concatenate([di * i * (1 - i),
                                 df * f * (1 - f),
                                 do * o * (1 - o),
                                 dg * (1 - g * g)], axis=1)
            gw_x[layer] += inp.T @ dz
            gw_h[layer] += h_prev.T @ dz
            gb[layer] += dz.sum(axis=0)
            dh_next[layer] = dz @ w_h[layer].T
            dc_next[layer] = dc * f
            d_above = dz @ w_x[layer].T
        dxs[t] = d_above
    return gw_x, gw_h, gb, dxs
