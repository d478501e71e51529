"""Random forest of CART trees: Gini impurity, bagging, sqrt-F feature
subsampling.  Each tree draws from its own stream keyed on (seed, tree
index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rng import stream


@dataclass
class Tree:
    feature: np.ndarray    # int64, -1 at leaves
    threshold: np.ndarray  # float32
    left: np.ndarray       # int64
    right: np.ndarray      # int64
    prob: np.ndarray       # float32 benign probability per node


def _best_split(x, y):
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    cuts = np.nonzero(xs[1:] > xs[:-1])[0]
    if cuts.size == 0:
        return None
    n = len(xs)
    pos = np.cumsum(ys)
    n_left = cuts + 1.0
    n_right = n - n_left
    p_left = pos[cuts]
    p_right = pos[-1] - p_left
    gini_l = 1.0 - (p_left / n_left) ** 2 - ((n_left - p_left) / n_left) ** 2
    gini_r = 1.0 - (p_right / n_right) ** 2 - ((n_right - p_right) / n_right) ** 2
    cost = (n_left * gini_l + n_right * gini_r) / n
    k = int(np.argmin(cost))
    threshold = (xs[cuts[k]] + xs[cuts[k] + 1]) / 2.0
    return float(cost[k]), threshold


def _grow_tree(X, y, rng, max_depth, min_leaf, n_sub):
    feature, threshold, left, right, prob = [], [], [], [], []
    # (rows, depth, parent, parent's child list); popping the left child
    # first numbers the nodes and draws the permutations in pre-order
    stack = [(np.arange(len(y)), 0, -1, left)]
    while stack:
        idx, depth, parent, side = stack.pop()
        node = len(feature)
        if parent >= 0:
            side[parent] = node
        ys = y[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(float(ys.mean()))
        if depth >= max_depth or len(idx) < 2 * min_leaf or ys.min() == ys.max():
            continue
        candidates = rng.permutation(X.shape[1])[:n_sub]
        best = None
        for f in candidates:
            found = _best_split(X[idx, f], ys)
            if found and (best is None or found[0] < best[0]):
                best = (found[0], int(f), found[1])
        if best is None:
            continue
        _, f, thr = best
        mask = X[idx, f] <= thr
        if mask.all() or not mask.any():
            # midpoint of nearly-equal floats can round onto a value and
            # leave one side empty; treat the node as unsplittable instead
            continue
        feature[node] = f
        threshold[node] = thr
        stack.append((idx[~mask], depth + 1, node, right))
        stack.append((idx[mask], depth + 1, node, left))
    return Tree(np.array(feature, dtype=np.int64),
                np.array(threshold, dtype=np.float32),
                np.array(left, dtype=np.int64),
                np.array(right, dtype=np.int64),
                np.array(prob, dtype=np.float32))


def tree_predict(tree: Tree, X) -> np.ndarray:
    idx = np.zeros(len(X), dtype=np.int64)
    rows = np.arange(len(X))
    while True:
        feat = tree.feature[idx]
        active = feat >= 0
        if not active.any():
            break
        r = rows[active]
        f = feat[active]
        go_left = X[r, f] <= tree.threshold[idx[active]]
        idx[r] = np.where(go_left, tree.left[idx[active]],
                          tree.right[idx[active]])
    return tree.prob[idx].astype(np.float64)


@dataclass
class RandomForest:
    trees: list[Tree]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(len(X))
        for tree in self.trees:
            acc += tree_predict(tree, X)
        return acc / len(self.trees)


def fit_forest(X, y, rng_seed, n_trees, max_depth, min_leaf) -> RandomForest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, n_features = X.shape
    n_sub = max(1, int(round(math.sqrt(n_features))))
    trees = []
    for tree_idx in range(n_trees):
        rng = stream("forest", rng_seed, tree_idx)
        boot = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[boot], y[boot], rng, max_depth, min_leaf,
                                n_sub))
    return RandomForest(trees)
