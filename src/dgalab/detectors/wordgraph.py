"""Word-graph detector for dictionary-built names.

Substrings (3+ chars) that recur in more than three distinct training
domains become graph nodes; nodes co-occurring inside one domain are
connected.  Dictionary-built names concentrate on few heavily reused
fragments, so the mean normalized degree of a domain's nodes is high for
them and low for organically varied names.  A 1-D logistic layer turns that
statistic into a benign probability.
"""

from __future__ import annotations

import numpy as np

from ..checkpoint import F32, I64, TEXT, record
from .base import DetectorModel, fit_logistic, logistic_score
from .features import split_core

MIN_SUB = 3
MAX_SUB = 10
NODES_PER_DOMAIN = 12
REPEAT_THRESHOLD = 3  # "common" means seen in more than this many domains


def _substrings(core: str):
    seen = set()
    n = len(core)
    for length in range(MIN_SUB, min(MAX_SUB, n) + 1):
        for i in range(n - length + 1):
            seen.add(core[i:i + length])
    return seen


def _domain_nodes(core: str, degree_of: dict) -> list[str]:
    hits = [s for s in _substrings(core) if s in degree_of]
    hits.sort(key=lambda s: (-len(s), s))
    return hits[:NODES_PER_DOMAIN]


class WordGraphDetector(DetectorModel):
    kind = "wordgraph"

    def __init__(self, degrees: dict, max_degree: int, w, b, mean, std,
                 threshold=0.5):
        super().__init__(threshold)
        self.degrees = degrees
        self.max_degree = max(1, int(max_degree))
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.std = np.asarray(std, dtype=np.float64)

    def graph_stat(self, domain: str) -> float:
        """Normalized mean degree of the domain's common-substring nodes."""
        if not self.degrees:
            return 0.0
        core = split_core(domain)[0]
        nodes = _domain_nodes(core, self.degrees)
        if not nodes:
            return 0.0
        mean_deg = sum(self.degrees[s] for s in nodes) / len(nodes)
        return min(1.0, mean_deg / self.max_degree)

    def _score_one(self, domain: str) -> float:
        stat = self.graph_stat(domain)
        return float(logistic_score([[stat]], self.w, self.b,
                                    self.mean, self.std)[0])

    @classmethod
    def train(cls, corpus, hp, rng_seed):
        repeat_threshold = int(hp.get("repeat_threshold", REPEAT_THRESHOLD))
        domains = list(corpus.benign) + list(corpus.agd)
        labels = np.array([1.0] * len(corpus.benign) + [0.0] * len(corpus.agd))
        cores = [split_core(d)[0] for d in domains]

        counts: dict[str, int] = {}
        for core in cores:
            for s in _substrings(core):
                counts[s] = counts.get(s, 0) + 1
        common = {s for s, c in counts.items() if c > repeat_threshold}

        neighbors: dict[str, set] = {s: set() for s in common}
        for core in cores:
            hits = [s for s in _substrings(core) if s in common]
            hits.sort(key=lambda s: (-len(s), s))
            hits = hits[:NODES_PER_DOMAIN]
            for i, u in enumerate(hits):
                for v in hits[i + 1:]:
                    neighbors[u].add(v)
                    neighbors[v].add(u)
        degrees = {s: len(nb) for s, nb in neighbors.items()}
        max_degree = max(degrees.values(), default=1)

        probe = cls(degrees, max_degree, np.zeros(1), 0.0, np.zeros(1),
                    np.ones(1))
        stats = np.array([[probe.graph_stat(d)] for d in domains])
        if stats.max() == stats.min():
            # degenerate graph: nothing separates, calibrate to a flat 0.5
            w, b = np.zeros(1), 0.0
            mean, std = stats.mean(axis=0), np.ones(1)
        else:
            w, b, mean, std = fit_logistic(stats, labels)
        return cls(degrees, max_degree, w, b, mean, std)

    def to_blobs(self) -> dict:
        nodes = sorted(self.degrees)
        return {
            "nodes": "\n".join(nodes).encode("utf-8"),
            "degrees": np.array([self.degrees[s] for s in nodes], dtype=np.int64),
            "max_degree": np.array([self.max_degree], dtype=np.int64),
            "logistic": np.concatenate([self.w, [self.b]]).astype(np.float32),
            "standardize": np.concatenate([self.mean, self.std]).astype(np.float32),
            "threshold": np.array([self.threshold], dtype=np.float32),
        }

    @classmethod
    def from_blobs(cls, blobs) -> "WordGraphDetector":
        nodes = record(blobs, "nodes", TEXT).split()  # "" -> no nodes
        degrees = record(blobs, "degrees", I64, len(nodes))
        logi = record(blobs, "logistic", F32, 2)
        stand = record(blobs, "standardize", F32, 2)
        return cls(dict(zip(nodes, degrees.tolist())),
                   int(record(blobs, "max_degree", I64, 1)[0]),
                   logi[:-1], logi[-1], stand[:1], stand[1:],
                   float(record(blobs, "threshold", F32, 1)[0]))
