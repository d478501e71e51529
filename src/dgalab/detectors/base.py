"""Common detector interface and the training entry point.

Every detector scores a full domain name with P(benign) in [0, 1]; a domain
is ruled legitimate when the score reaches the decision threshold, which
``DetectorModel`` alone holds, saves and loads (0.5 by default, the point
training calibrates every kind's scores to).
"""

from __future__ import annotations

import importlib
from typing import NamedTuple

import numpy as np

from ..checkpoint import F32, load_blobs, record, save_blobs
from ..config import cast_value
from ..corpora import LabeledCorpus
from ..domains import CheckedNames, checked_names
from ..errors import ContractError, DataError, ScoringError

# kind -> its checkpoint kind id, the name of its class in the module named
# after the kind (imported on first use), and the hyperparameters its
# ``train`` reads with their defaults, each set by detector.<kind>.<key>
Kind = NamedTuple("Kind", [("id", int), ("class_name", str), ("hp", dict)])
KIND_TABLE = {
    "statistics": Kind(1, "StatisticsDetector",
                       {"jaccard_refs": 64, "edit_refs": 8}),
    "fanci": Kind(2, "FanciDetector",
                  {"trees": 25, "max_depth": 12, "min_leaf": 2}),
    "wordgraph": Kind(3, "WordGraphDetector", {"repeat_threshold": 3}),
    "neural": Kind(4, "NeuralDetector",
                   {"d_e": 24, "d_h": 32, "layers": 1, "bidirectional": False,
                    "max_len": 32, "epochs": 6, "batch": 64, "lr": 0.5}),
}
KINDS = tuple(KIND_TABLE)
# the least value of an integer hyperparameter where it is not 1; a float
# one must be positive
HP_FLOORS = {("wordgraph", "repeat_threshold"): 0}


def _detector_class(kind: str) -> type:
    if kind not in KIND_TABLE:
        raise DataError(f"{kind!r} is not a detector kind")
    module = importlib.import_module(f"{__package__}.{kind}")
    return getattr(module, KIND_TABLE[kind].class_name)


class DetectorModel:
    kind: str = "?"
    threshold: float = 0.5

    def score(self, domain: str) -> float:
        """P(benign) of one name: ``score_many`` on a batch of one."""
        return float(self.score_many([domain])[0])

    def score_many(self, domains) -> np.ndarray:
        """P(benign) per name; deterministic, in [0, 1].

        Each name is validated once (a ``CheckedNames`` batch already was),
        then the kind's ``_score_many`` scores the whole batch.
        """
        return np.clip(self._score_many(checked_names(domains)), 0.0, 1.0)

    def _score_many(self, domains) -> np.ndarray:
        raise NotImplementedError

    def to_blobs(self) -> dict:
        raise NotImplementedError

    def save(self, path) -> None:
        blobs = self.to_blobs()  # neural places its threshold record itself
        blobs.setdefault("threshold", np.array([self.threshold], np.float32))
        save_blobs(path, KIND_TABLE[self.kind].id, blobs)


def train_detector(kind: str, corpus: LabeledCorpus, hp: dict | None = None,
                   rng_seed: int = 0) -> DetectorModel:
    """Train one detector kind on a labeled corpus; deterministic per seed.

    Each class is checked once (a ``CheckedNames`` class already was), and
    the kind's ``train`` gets one batch, the benign names then the AGD
    names, their labels (1.0 benign, 0.0 AGD) and ``typed_hp(kind, hp)``.
    ``DataError`` names an invalid corpus name or a value that won't cast.
    """
    cls = _detector_class(kind)
    corpus.require_both()
    try:
        benign, agd = checked_names(corpus.benign), checked_names(corpus.agd)
    except ScoringError as exc:
        raise DataError(f"training corpus: {exc}") from None
    labels = np.repeat([1.0, 0.0], [len(benign), len(agd)])
    return cls.train(CheckedNames(benign + agd), labels, typed_hp(kind, hp),
                     rng_seed)


def typed_hp(kind: str, hp: dict | None = None) -> dict:
    """Each of ``kind``'s hyperparameter keys: ``hp``'s value (text or
    Python) cast to the default's type, or the default.  ``DataError``
    names a value that won't cast, ``ContractError`` one below its floor
    (``HP_FLOORS``)."""
    hp = hp or {}
    typed = {key: cast_value(f"detector hyperparameter {key}", hp[key],
                             type(default)) if key in hp else default
             for key, default in KIND_TABLE[kind].hp.items()}
    for key, value in typed.items():
        if isinstance(value, float) and not value > 0:
            raise ContractError(f"detector hyperparameter {key} = {value}: "
                                "must be positive")
        floor = HP_FLOORS.get((kind, key), 1)
        if type(value) is int and value < floor:
            raise ContractError(f"detector hyperparameter {key} = {value}: "
                                f"must be at least {floor}")
    return typed


def load_detector(path) -> DetectorModel:
    """The detector a checkpoint holds, with its threshold; ``DataError``
    names a threshold outside [0, 1], the range of every score."""
    kind_id, blobs = load_blobs(path)
    for kind, entry in KIND_TABLE.items():
        if entry.id == kind_id:
            model = _detector_class(kind).from_blobs(blobs)
            model.threshold = float(record(blobs, "threshold", F32, 1)[0])
            if not 0 <= model.threshold <= 1:
                raise DataError(f"{path}: threshold {model.threshold} "
                                "outside [0, 1]")
            return model
    raise DataError(f"{path}: kind id {kind_id} is not a detector kind")


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
