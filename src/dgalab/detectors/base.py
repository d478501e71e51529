"""Common detector interface and the training entry point.

Every detector scores a full domain name with P(benign) in [0, 1]; a domain
is ruled legitimate when the score reaches the decision threshold (0.5 by
default, calibrated into the score during training).
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

import numpy as np

from ..checkpoint import F32, load_blobs, record, save_blobs
from ..config import cast_value
from ..corpora import LabeledCorpus
from ..domains import validate_domain
from ..errors import DataError, ScoringError

# kind -> detector class, defined in the module named after the kind; the
# modules are imported on first use
_CLASS_NAMES = {"statistics": "StatisticsDetector", "fanci": "FanciDetector",
                "wordgraph": "WordGraphDetector", "neural": "NeuralDetector"}
KINDS = tuple(_CLASS_NAMES)
# kind -> the hyperparameters its ``train`` reads and their defaults; a
# config's detector.* keys must name one of them
HP_DEFAULTS = {
    "statistics": {"jaccard_refs": 64, "edit_refs": 8},
    "fanci": {"trees": 25, "max_depth": 12, "min_leaf": 2},
    "wordgraph": {"repeat_threshold": 3},
    "neural": {"d_e": 24, "d_h": 32, "layers": 1, "bidirectional": False,
               "max_len": 32, "epochs": 6, "batch": 64, "lr": 0.5},
}


def _detector_class(kind: str) -> type:
    if kind not in _CLASS_NAMES:
        raise DataError(f"{kind!r} is not a detector kind")
    module = importlib.import_module(f"{__package__}.{kind}")
    return getattr(module, _CLASS_NAMES[kind])


def checked_names(domains) -> list:
    """The batch as a list; ``ScoringError`` names its first invalid name."""
    domains = list(domains)
    for domain in domains:
        if not validate_domain(domain):
            raise ScoringError(f"invalid domain {domain!r}")
    return domains


class DetectorModel:
    kind: str = "?"

    def __init__(self, threshold: float = 0.5):
        self.threshold = float(threshold)

    def score(self, domain: str) -> float:
        """P(benign) of one name: ``score_many`` on a batch of one."""
        return float(self.score_many([domain])[0])

    def score_many(self, domains) -> np.ndarray:
        """P(benign) per name; deterministic, in [0, 1].

        Each name is validated once, then the kind's ``_score_many`` scores
        the whole batch.
        """
        return np.clip(self._score_many(checked_names(domains)), 0.0, 1.0)

    def _score_many(self, domains) -> np.ndarray:
        raise NotImplementedError

    def to_blobs(self) -> dict:
        raise NotImplementedError

    def save(self, path) -> None:
        save_blobs(path, self.kind, self.to_blobs())


def train_detector(kind: str, corpus: LabeledCorpus, hp: dict | None = None,
                   rng_seed: int = 0) -> DetectorModel:
    """Train one detector kind on a labeled corpus; deterministic per seed.

    The kind's ``train`` gets each of its ``HP_DEFAULTS`` keys: ``hp``'s
    value (text or Python) cast to the default's type, or the default.
    ``DataError`` names an invalid corpus name or a value that won't cast.
    """
    cls = _detector_class(kind)
    corpus.require_both()
    for name in (*corpus.benign, *corpus.agd):
        if not validate_domain(name):
            raise DataError(f"training corpus: invalid domain {name!r}")
    hp = hp or {}
    typed = {key: cast_value(f"detector hyperparameter {key}", hp[key],
                             type(default)) if key in hp else default
             for key, default in HP_DEFAULTS[kind].items()}
    return cls.train(corpus, typed, rng_seed)


def load_detector(path) -> DetectorModel:
    kind, blobs = load_blobs(path)
    return _detector_class(kind).from_blobs(blobs)


class Logistic(NamedTuple):
    """A logistic layer on standardized features: the P(benign) of a
    feature row x is sigmoid(((x - mean) / std) @ w + b)."""
    w: np.ndarray
    b: float
    mean: np.ndarray
    std: np.ndarray

    def score(self, x) -> np.ndarray:
        """P(benign) of each row of the (N, k) ``x``: one 1xk product per
        row, so that, unlike a gemv's, no score depends on its batch."""
        x = np.asarray(x, dtype=np.float64)[:, None, :]
        z = (x - self.mean) / self.std
        return 1.0 / (1.0 + np.exp(-(z @ self.w + self.b)))[:, 0]

    def to_blobs(self) -> dict:
        f32 = np.float32
        return {"logistic": np.append(self.w, self.b).astype(f32),
                "standardize": np.append(self.mean, self.std).astype(f32)}

    @classmethod
    def from_blobs(cls, blobs, k: int) -> "Logistic":
        """The layer over ``k`` features that ``to_blobs`` stored."""
        logi = record(blobs, "logistic", F32, k + 1).astype(np.float64)
        stand = record(blobs, "standardize", F32, 2 * k).astype(np.float64)
        return cls(logi[:-1], float(logi[-1]), stand[:k], stand[k:])


def fit_logistic(features, labels) -> Logistic:
    """Tiny deterministic logistic regression on standardized features.

    Calibrates the raw distances of the statistics and word-graph detectors
    into a benign probability with a 0.5 decision point.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    Z = (X - mean) / std
    w = np.zeros(Z.shape[1])
    b = 0.0
    for _ in range(800):
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        err = p - y
        w -= 0.5 * (Z.T @ err) / len(y)
        b -= 0.5 * err.mean()
    return Logistic(w, float(b), mean, std)
