"""Feature-based detector: the 21-feature vector under a random forest."""

from __future__ import annotations

import numpy as np

from .base import DetectorModel
from .features import extract_many
from .forest import RandomForest, Tree, fit_forest


class FanciDetector(DetectorModel):
    kind = "fanci"

    def __init__(self, forest: RandomForest, threshold=0.5):
        super().__init__(threshold)
        self.forest = forest

    def score_many(self, domains) -> np.ndarray:
        return np.clip(self.forest.predict(extract_many(domains)), 0.0, 1.0)

    @classmethod
    def train(cls, corpus, hp, rng_seed):
        X = extract_many(list(corpus.benign) + list(corpus.agd))
        y = np.array([1.0] * len(corpus.benign) + [0.0] * len(corpus.agd))
        forest = fit_forest(X, y, rng_seed,
                            n_trees=int(hp.get("trees", 25)),
                            max_depth=int(hp.get("max_depth", 12)),
                            min_leaf=int(hp.get("min_leaf", 2)),
                            threads=int(hp.get("threads", 1)))
        return cls(forest)

    def to_blobs(self) -> dict:
        sizes = [len(t.feature) for t in self.forest.trees]
        return {
            "tree_sizes": np.array(sizes, dtype=np.int64),
            "feature": np.concatenate([t.feature for t in self.forest.trees]),
            "threshold_arr": np.concatenate([t.threshold for t in self.forest.trees]),
            "left": np.concatenate([t.left for t in self.forest.trees]),
            "right": np.concatenate([t.right for t in self.forest.trees]),
            "prob": np.concatenate([t.prob for t in self.forest.trees]),
            "threshold": np.array([self.threshold], dtype=np.float32),
        }

    @classmethod
    def from_blobs(cls, blobs) -> "FanciDetector":
        sizes = blobs["tree_sizes"]
        trees = []
        off = 0
        for size in sizes:
            size = int(size)
            sl = slice(off, off + size)
            trees.append(Tree(blobs["feature"][sl].astype(np.int64),
                              blobs["threshold_arr"][sl].astype(np.float32),
                              blobs["left"][sl].astype(np.int64),
                              blobs["right"][sl].astype(np.int64),
                              blobs["prob"][sl].astype(np.float32)))
            off += size
        return cls(RandomForest(trees), float(blobs["threshold"][0]))
