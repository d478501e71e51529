"""Feature-based detector: the 21-feature vector under a random forest."""

from __future__ import annotations

import numpy as np

from ..checkpoint import F32, I64, record
from ..errors import DataError
from .base import DetectorModel
from .features import FEATURE_NAMES, extract_many
from .forest import RandomForest, Tree, fit_forest


class FanciDetector(DetectorModel):
    kind = "fanci"

    def __init__(self, forest: RandomForest):
        self.forest = forest

    def score_many(self, domains) -> np.ndarray:
        return np.clip(self.forest.predict(extract_many(domains)), 0.0, 1.0)

    @classmethod
    def train(cls, names, labels, hp, rng_seed):
        forest = fit_forest(extract_many(names), labels, rng_seed,
                            n_trees=hp["trees"], max_depth=hp["max_depth"],
                            min_leaf=hp["min_leaf"])
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
        }

    @classmethod
    def from_blobs(cls, blobs) -> "FanciDetector":
        sizes = record(blobs, "tree_sizes", I64).tolist()
        if not sizes or min(sizes) < 1:
            raise DataError("fanci checkpoint: empty forest or tree")
        cols = [record(blobs, name, tag, sum(sizes)) for name, tag in (
            ("feature", I64), ("threshold_arr", F32), ("left", I64),
            ("right", I64), ("prob", F32))]
        if cols[0].min() < -1 or cols[0].max() >= len(FEATURE_NAMES):
            raise DataError("fanci checkpoint: feature index out of range")
        trees = []
        for end, size in zip(np.cumsum(sizes).tolist(), sizes):
            tree = Tree(*(col[end - size:end] for col in cols))
            # _grow_tree numbers both children after their parent, so a
            # valid tree cannot send prediction round a cycle
            inner = np.flatnonzero(tree.feature >= 0)
            for child in (tree.left[inner], tree.right[inner]):
                if np.any((child <= inner) | (child >= size)):
                    raise DataError("fanci checkpoint: tree child index "
                                    "out of order")
            trees.append(tree)
        return cls(RandomForest(trees))
