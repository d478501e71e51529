"""Common detector interface and the training entry point.

Every detector scores a full domain name with P(benign) in [0, 1]; a domain
is ruled legitimate when the score reaches the decision threshold (0.5 by
default, calibrated into the score during training).
"""

from __future__ import annotations

import importlib

import numpy as np

from ..checkpoint import load_blobs, save_blobs
from ..config import parse_bool
from ..corpora import LabeledCorpus
from ..domains import validate_domain
from ..errors import DataError, ScoringError

# kind -> detector class, defined in the module named after the kind; the
# modules are imported on first use
_CLASS_NAMES = {"statistics": "StatisticsDetector", "fanci": "FanciDetector",
                "wordgraph": "WordGraphDetector", "neural": "NeuralDetector"}
KINDS = tuple(_CLASS_NAMES)
# kind -> the hyperparameter keys its ``train`` reads; a config's detector.*
# keys must name one of them
HP_KEYS = {"statistics": ("jaccard_refs", "edit_refs"),
           "fanci": ("trees", "max_depth", "min_leaf"),
           "wordgraph": ("repeat_threshold",),
           "neural": ("d_e", "d_h", "layers", "bidirectional", "max_len",
                      "epochs", "batch", "lr")}


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


def hp_value(hp: dict, key: str, default, cast):
    """``hp[key]`` as ``cast`` (int, float or bool), or ``default`` when the
    key is absent.  Values may be config text or Python values; an integer
    key takes only integral values.  ``DataError`` names the key and value.
    """
    if key not in hp:
        return default
    value = hp[key]
    try:
        if cast is bool:
            return value if isinstance(value, bool) else parse_bool(str(value))
        number = float(value)
        if cast is int and not number.is_integer():
            raise ValueError
        return cast(number)
    except (TypeError, ValueError):
        raise DataError(f"detector hyperparameter {key} = {value!r}: "
                        f"expected {cast.__name__}") from None


def train_detector(kind: str, corpus: LabeledCorpus, hp: dict | None = None,
                   rng_seed: int = 0) -> DetectorModel:
    """Train one detector kind on a labeled corpus; deterministic per seed.

    ``DataError`` names the corpus's first name that is not a valid domain.
    """
    corpus.require_both()
    for name in (*corpus.benign, *corpus.agd):
        if not validate_domain(name):
            raise DataError(f"training corpus: invalid domain {name!r}")
    return _detector_class(kind).train(corpus, dict(hp or {}), rng_seed)


def load_detector(path) -> DetectorModel:
    kind, blobs = load_blobs(path)
    return _detector_class(kind).from_blobs(blobs)


def fit_logistic(features, labels):
    """Tiny deterministic logistic regression on standardized features.

    Returns (weights, bias, mean, std); used by the statistics and word-graph
    detectors to calibrate raw distances into a benign probability with a
    0.5 decision point.
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
    return w, b, mean, std


def logistic_score(x, w, b, mean, std) -> np.ndarray:
    z = (np.asarray(x, dtype=np.float64) - mean) / std
    return 1.0 / (1.0 + np.exp(-(z @ w + b)))
