"""Reference implementations the batched code must match exactly.

The statistics detector's distances (Python sets, strings and a 1-D
``np.sum``) against ``dgalab.detectors.distances``; the per-name FANCI
features and word-graph statistic (Python dicts, sets and string slices)
against ``features.extract_many`` and the word-graph detector; per-row name
assembly against ``TokenDict.fqdns``; the per-character neural ``encode``;
the padded neural scorer, every row through every step, against the
prefix-sharing ``NeuralDetector.score_many``; the neural fit that encodes
each batch from its names and masks the input gradients past each row's
end, against ``NeuralDetector.fit``, which reads its names into bytes once
(its shuffles, like the recursive CART grower's bootstrap and feature
draws, come from numpy's own Generator over the same Philox key, so the
package's draws are checked too);
the recurrent step with one sigmoid per gate; the teacher-forced policy
pass along fixed tokens, whose caches ``run_batch(want_cache=True)`` must
reproduce; the one-episode reward-weighted log-likelihood with its gradient,
the pair that finite differences check ``policy.grad_from_coeffs`` through;
the per-step reward estimate, one ``register_many`` per step and rollout
uniforms from numpy's Generator, against ``training._epoch_values``; the registry as a Python set, one name at a
time, against ``dnsenv.Registry``; the recursive CART grower against
``forest.fit_forest``; the item-by-item ROC sweep over sorted
(score, label) tuples against ``evaluation.roc_auc``; and the step-by-step
glibc LCG with the kraken,
gozi and suppobox generators it drives, against the jump-ahead state arrays
of ``baselines``."""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from dgalab.baselines import _LENGTH_STREAM_OFFSET
from dgalab.corpora import bundled_tlds, load_wordlist
from dgalab.detectors.distances import edit_distance
from dgalab.detectors.features import split_core
from dgalab.detectors.forest import Tree, _best_split
from dgalab.detectors.neural import CHUNK, PAD, VOCAB
from dgalab.domains import LABEL_CHARS, MAX_LABEL, assemble_fqdn
from dgalab.errors import ContractError, DataError, NumericError
from dgalab.evaluation import RocCurve
from dgalab.policy import (BatchRun, action_probs, embed_seed, embed_tokens,
                           grad_from_coeffs, masked_index_at, run_batch)
from dgalab.recurrent import (cache_state, sigmoid, stack_backward,
                              stack_forward)
from conftest import numpy_stream

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


def neural_padded_scores(model, domains) -> np.ndarray:
    """P(benign) per name from the padded pass the fit trains through
    (``NeuralDetector._pool``): each ``CHUNK``-name chunk padded to its
    longest name, every row run through every step in input order."""
    out = np.empty(len(domains), dtype=np.float64)
    for lo in range(0, len(domains), CHUNK):
        chunk = domains[lo:lo + CHUNK]
        idx, lengths = neural_encode(chunk, model.max_len)
        out[lo:lo + len(chunk)] = model._pool(idx, lengths)[0]
    return np.clip(out, 0.0, 1.0)


def neural_fit_oracle(model, domains, labels, epochs, batch, lr, rng_key):
    """``NeuralDetector.fit`` with each shuffled batch encoded from its
    names, the input gradients masked past each row's end and float32
    copies of the head and top gradients; updates ``model`` in place."""
    domains = list(domains)
    labels = np.asarray(labels, dtype=np.float64)
    for epoch in range(epochs):
        order = numpy_stream("neural-train", rng_key, epoch).permutation(
            len(domains))
        for lo in range(0, len(order), batch):
            rows = order[lo:lo + batch]
            _neural_sgd_batch(model, [domains[i] for i in rows], labels[rows],
                              lr)


def _neural_sgd_batch(model, domains, y, lr):
    idx, lengths = neural_encode(domains, model.max_len)
    probs, pool, mask, caches, seqs = model._pool(idx, lengths)
    dtype = model.embedding.dtype
    dlogit = ((probs - y) / len(domains)).astype(dtype)
    dpool = np.outer(dlogit, model.w).astype(dtype)
    g_emb = np.zeros_like(model.embedding)
    inv_len = (1.0 / lengths).astype(dtype)
    d_h = model.d_h
    new_stacks = []
    for direction, (w_x, w_h, bias) in enumerate(model.stacks):
        dp = dpool[:, direction * d_h:(direction + 1) * d_h]
        d_tops = (dp[None, :, :] * (mask.T * inv_len[None, :])[:, :, None]
                  ).astype(dtype)
        gw_x, gw_h, gbias, dxs = stack_backward(w_x, w_h, caches[direction],
                                                d_tops)
        dxs = dxs * mask.T[:, :, None]
        np.add.at(g_emb, seqs[direction].T.reshape(-1),
                  dxs.reshape(-1, model.embedding.shape[1]))
        new_stacks.append(tuple([a - lr * g for a, g in zip(arrays, grads)]
                                for arrays, grads in ((w_x, gw_x), (w_h, gw_h),
                                                      (bias, gbias))))
    model.embedding = model.embedding - lr * g_emb
    model.stacks = new_stacks
    model.w = model.w - lr * (pool.T @ dlogit)
    model.b = float(model.b - lr * dlogit.sum())


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


def teacher_forward(params, dct, seed_vecs, tokens: np.ndarray):
    """Re-run the policy along fixed token sequences, caching for BPTT."""
    batch, T = tokens.shape
    xs = np.empty((T, batch, params.d_e), dtype=params.dtype)
    xs[0] = embed_seed(params, seed_vecs)
    if T > 1:
        xs[1:] = embed_tokens(params, tokens[:, :-1].T)
    tops, _, caches = stack_forward(params.w_x, params.w_h, params.b, xs,
                                    want_cache=True)
    dists = np.empty((T, batch, dct.n), dtype=params.dtype)
    for t in range(T):
        dists[t] = action_probs(params, tops[t], masked_index_at(dct, t, T))
    return dists, tops, caches


def logprob_grad(params, dct, seed_vec, tokens, weights) -> dict:
    """Gradient of the reward-weighted log-likelihood of one episode.

    ``weights[t]`` multiplies the log-probability of the token taken at step
    t; this is the sampled likelihood-ratio estimator's per-episode term.
    """
    tokens = np.asarray(tokens, dtype=np.int64)[None, :]
    T = tokens.shape[1]
    weights = np.asarray(weights, dtype=params.dtype)
    if weights.shape != (T,):
        raise ContractError("need one weight per generated token")
    seed_vecs = np.asarray(seed_vec)[None, :]
    run = BatchRun(tokens, *teacher_forward(params, dct, seed_vecs, tokens))
    return grad_from_coeffs(params, seed_vecs, run, weights[:, None])


def weighted_logprob(params, dct, seed_vec, tokens, weights) -> float:
    """The scalar ``logprob_grad`` differentiates."""
    tokens = np.asarray(tokens, dtype=np.int64)[None, :]
    dists, _, _ = teacher_forward(params, dct, np.asarray(seed_vec)[None, :],
                                  tokens)
    T = tokens.shape[1]
    picked = dists[np.arange(T), 0, tokens[0]]
    return float(np.dot(np.asarray(weights, dtype=np.float64),
                        np.log(picked.astype(np.float64))))


def action_values(env, params, cfg, dct, prefix, hidden, actions, mc_u,
                  registered=None) -> np.ndarray:
    """Estimated reward Q(s_t, a) of one action per episode, shape (B,),
    with one ``register_many`` call.

    ``prefix`` (B, t) holds the tokens emitted before step t and ``hidden``
    the per-layer ``(h, c)`` state that produced step t's distribution
    (unused at the last step); ``actions`` (B,) are the actions valued and
    ``mc_u`` (B, m, T, T) the epoch's rollout uniforms.  Before the last
    step, m rollouts complete each [prefix, a] in one generation pass, using
    the uniforms of (i, j, t).  At the last step each name is registered
    once.  Names are registered episode-major, then rollout; accepted ones
    are appended to ``registered``.
    """
    B, t = prefix.shape
    T, m = cfg.length, cfg.mc
    heads = np.concatenate([prefix, actions.reshape(-1, 1)], axis=1)
    if t < T - 1:
        suffix = T - t - 1
        heads = np.repeat(heads, m, axis=0)
        u = mc_u[:, :, t, :suffix].reshape(-1, suffix)
        init = [(np.repeat(h, m, axis=0), np.repeat(c, m, axis=0))
                for h, c in hidden]
        ro = run_batch(params, dct, T, init_hidden=init,
                       first_tokens=heads[:, -1], start_pos=t + 1,
                       uniforms=u)
        heads = np.concatenate([heads, ro.tokens], axis=1)
    names = dct.fqdns(heads, cfg.tld)
    outcome = env.register_many(names).outcome
    if registered is not None:
        registered.extend(compress(names, outcome))
    return outcome.reshape(B, -1).mean(axis=1)


def epoch_values(env, params, cfg, dct, master_seed, epoch, run,
                 registered=None) -> np.ndarray:
    """(T, B) values of one epoch's taken tokens, one ``action_values`` call
    and so one registration per step; the env raises the budget error."""
    T, B = cfg.length, cfg.batch
    mc_u = np.stack([numpy_stream("mc-train", master_seed, epoch, i)
                     .random((cfg.mc, T, T)) for i in range(B)])
    taken = np.empty((T, B))
    for t in range(T):
        hidden = None if t == T - 1 else cache_state(run.caches[t + 1])
        taken[t] = action_values(env, params, cfg, dct, run.tokens[:, :t],
                                 hidden, run.tokens[:, t], mc_u, registered)
    return taken


class SetRegistry:
    """The registration registry as a Python set of ``str``, walked one name
    at a time: name k sees the set as names 0..k-1 left it."""

    def __init__(self, names=()):
        self._names = set(names)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def register(self, names, legit) -> np.ndarray:
        novelty = []
        for name, ok in zip(names, legit):
            novel = name not in self._names
            novelty.append(novel)
            if ok and novel:
                self._names.add(name)
        return np.array(novelty, bool)


# ---------------------------------------------------------------------------
# FANCI features, one name at a time

_VOWELS = set("aeiou")
_HEX = set("0123456789abcdef")
_DIGITS = set("0123456789")


@lru_cache(maxsize=1)
def _fanci_reference():
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
    """Counts of the k-grams of ``s`` in first-occurrence order."""
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
    wordset, _, _, max_len, _ = _fanci_reference()
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


def fanci_features(domain: str) -> np.ndarray:
    """The 21 FANCI features of one valid name, in FEATURE_NAMES order."""
    _, bfreq, tfreq, _, tlds = _fanci_reference()
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


# ---------------------------------------------------------------------------
# the word graph, with Python sets and dicts

WG_MIN_SUB, WG_MAX_SUB, WG_NODES_PER_DOMAIN = 3, 10, 12


def _substrings(core: str):
    seen = set()
    n = len(core)
    for length in range(WG_MIN_SUB, min(WG_MAX_SUB, n) + 1):
        for i in range(n - length + 1):
            seen.add(core[i:i + length])
    return seen


def _domain_nodes(core: str, degree_of) -> list[str]:
    hits = [s for s in _substrings(core) if s in degree_of]
    hits.sort(key=lambda s: (-len(s), s))
    return hits[:WG_NODES_PER_DOMAIN]


def wordgraph_graph(domains, repeat_threshold: int) -> tuple[dict, int]:
    """(degree per common substring, max degree) of the training names."""
    cores = [split_core(d)[0] for d in domains]
    counts: dict[str, int] = {}
    for core in cores:
        for s in _substrings(core):
            counts[s] = counts.get(s, 0) + 1
    common = {s for s, c in counts.items() if c > repeat_threshold}

    neighbors: dict[str, set] = {s: set() for s in common}
    for core in cores:
        hits = _domain_nodes(core, common)
        for i, u in enumerate(hits):
            for v in hits[i + 1:]:
                neighbors[u].add(v)
                neighbors[v].add(u)
    degrees = {s: len(nb) for s, nb in neighbors.items()}
    return degrees, max(degrees.values(), default=1)


def wordgraph_stat(degrees: dict, max_degree: int, domain: str) -> float:
    """Normalized mean degree of the domain's common-substring nodes."""
    if not degrees:
        return 0.0
    nodes = _domain_nodes(split_core(domain)[0], degrees)
    if not nodes:
        return 0.0
    mean_deg = sum(degrees[s] for s in nodes) / len(nodes)
    return min(1.0, mean_deg / max(1, max_degree))


def wordgraph_score(model, domain: str) -> float:
    """P(benign) of one name from the oracle statistic and the model's
    logistic layer."""
    stat = wordgraph_stat(model.degrees, model.max_degree, domain)
    return float(model.logistic.score([[stat]])[0])


# ---------------------------------------------------------------------------
# Random forest, one recursive call per node


def _grow_tree(X, y, rng, max_depth, min_leaf, n_sub):
    feature, threshold, left, right, prob = [], [], [], [], []

    def leaf(idx):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(float(y[idx].mean()))
        return len(feature) - 1

    def build(idx, depth):
        ys = y[idx]
        if depth >= max_depth or len(idx) < 2 * min_leaf or ys.min() == ys.max():
            return leaf(idx)
        candidates = rng.permutation(X.shape[1])[:n_sub]
        best = None
        for f in candidates:
            found = _best_split(X[idx, f], ys)
            if found and (best is None or found[0] < best[0]):
                best = (found[0], int(f), found[1])
        if best is None:
            return leaf(idx)
        _, f, thr = best
        mask = X[idx, f] <= thr
        if mask.all() or not mask.any():
            # midpoint of nearly-equal floats can round onto a value and
            # leave one side empty; treat the node as unsplittable instead
            return leaf(idx)
        node = leaf(idx)  # reserve slot; overwrite as interior below
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[mask], depth + 1)
        right[node] = build(idx[~mask], depth + 1)
        return node

    build(np.arange(len(y)), 0)
    return Tree(np.array(feature, dtype=np.int64),
                np.array(threshold, dtype=np.float32),
                np.array(left, dtype=np.int64),
                np.array(right, dtype=np.int64),
                np.array(prob, dtype=np.float32))


def forest_trees(X, y, rng_seed, n_trees, max_depth, min_leaf) -> list:
    """``fit_forest``'s trees, grown by the recursive grower."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, n_features = X.shape
    n_sub = max(1, int(round(math.sqrt(n_features))))
    trees = []
    for tree_idx in range(n_trees):
        rng = numpy_stream("forest", rng_seed, tree_idx)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[boot], y[boot], rng, max_depth, min_leaf,
                                n_sub))
    return trees


# ---------------------------------------------------------------------------
# the zero-knowledge families, one LCG step at a time


def roc_sweep(scored) -> RocCurve:
    """ROC over (score, label) pairs: the pairs sorted by falling score,
    then swept one item at a time, equal scores in one step."""
    items = sorted(scored, key=lambda sl: -sl[0])
    for score, _ in items:
        if not math.isfinite(score):
            raise NumericError(f"ROC score {score} is not finite")
    n_pos = sum(1 for _, label in items if label)
    n_neg = len(items) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j][0] == items[i][0]:
            tp += 1 if items[j][1] else 0
            fp += 0 if items[j][1] else 1
            j += 1
        points.append((fp / n_neg, tp / n_pos))
        i = j
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    fpr, tpr = zip(*points)
    return RocCurve(np.array(fpr), np.array(tpr), float(auc))


def roc_csv_text(curve: RocCurve) -> str:
    """``roc.csv`` as one string, a ``"\n".join`` of every point's line."""
    points = zip(curve.fpr.tolist(), curve.tpr.tolist())
    return ("fpr,tpr\n" + "\n".join(f"{fpr:.6f},{tpr:.6f}"
                                     for fpr, tpr in points) + "\n")


@dataclass
class Lcg:
    """x_{k+1} = (1103515245 * x_k + 12345) mod 2^31 from x_0 = state."""
    state: int

    def __post_init__(self):
        self.state %= 2 ** 31

    def step(self) -> int:
        self.state = (1103515245 * self.state + 12345) % 2 ** 31
        return self.state

    def below(self, bound: int) -> int:
        return self.step() % bound

    def below_mixed(self, bound: int) -> int:
        # the high bits: the low bits of this LCG have short periods
        return (self.step() >> 16) % bound


def kraken_cores(seed: int, count: int) -> list[str]:
    """Kraken cores one LCG step at a time: a length from the length
    stream, then that many letters from the character stream."""
    chars = Lcg(seed)
    lengths = Lcg(seed + _LENGTH_STREAM_OFFSET)
    out = []
    for _ in range(count):
        length = 7 + lengths.below_mixed(6)        # 7-12 letters
        out.append("".join(chr(ord("a") + chars.below(26))
                           for _ in range(length)))
    return out


def gozi_cores(words, seed: int, count: int,
               words_per_name=(2, 4)) -> list[str]:
    """Gozi cores one LCG step at a time: a word count, then one word per
    step until a word would overflow the label."""
    lo, hi = words_per_name
    lcg = Lcg(seed)
    out = []
    for _ in range(count):
        k = lo + lcg.below(hi - lo + 1)
        parts = []
        total = 0
        for _ in range(k):
            w = words.words[lcg.below(len(words))]
            if total + len(w) > MAX_LABEL:
                break
            parts.append(w)
            total += len(w)
        out.append("".join(parts))
    return out


def suppobox_cores(first, second, seed: int, count: int) -> list[str]:
    """Suppobox cores one LCG step at a time: a word from each list."""
    lcg = Lcg(seed)
    return [(first.words[lcg.below_mixed(len(first))]
             + second.words[lcg.below_mixed(len(second))])[:MAX_LABEL]
            for _ in range(count)]
