"""Word-graph detector for dictionary-built names.

Substrings (3+ chars) that recur in more than three distinct training
domains become graph nodes; nodes co-occurring inside one domain are
connected.  Dictionary-built names concentrate on few heavily reused
fragments, so the mean normalized degree of a domain's nodes is high for
them and low for organically varied names.  A 1-D logistic layer turns that
statistic into a benign probability.

Substrings are handled as the packed ids of ``distances.ngram_ids``, whose
order among equal lengths is ``str`` order, and training and scoring run on
``CHUNK`` names at a time.
"""

from __future__ import annotations

import re

import numpy as np

from ..checkpoint import I64, TEXT, record
from ..domains import LABEL_CHARS
from ..errors import DataError
from .base import DetectorModel, Logistic, fit_logistic
from .distances import (ID_BASE, MAX_PACKED, encode, id_lengths, id_strings,
                        ngram_ids, string_ids)
from .features import split_core

MIN_SUB = 3
MAX_SUB = MAX_PACKED
NODES_PER_DOMAIN = 12
CHUNK = 256           # names per kernel pass; keeps row * _SPAN in int64
_SPAN = ID_BASE ** MAX_SUB  # above every packed id of up to MAX_SUB chars
_NODE = re.compile(f"[{re.escape(LABEL_CHARS)}]{{{MIN_SUB},{MAX_SUB}}}")


def _chunks(domains):
    """(codes, lengths) of the cores of ``CHUNK`` names at a time."""
    for lo in range(0, len(domains), CHUNK):
        yield encode([split_core(d)[0] for d in domains[lo:lo + CHUNK]])


def _distinct(keys) -> np.ndarray:
    """The distinct values of the nonnegative ``keys``, ascending."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def _row_substrings(codes, lengths, nodes=None) -> tuple:
    """Each row's distinct substrings of MIN_SUB..MAX_SUB characters as
    (rows, ids), ordered by row, then longest first, then in str order; only
    those in the sorted ids ``nodes`` when it is given."""
    grams = ngram_ids(codes, lengths, MAX_SUB)[MIN_SUB - 1:]
    inside = grams >= 0
    keys = (np.arange(len(codes))[:, None] * _SPAN + grams)[inside]
    if nodes is not None:
        ids = grams[inside]
        at = np.minimum(np.searchsorted(nodes, ids), len(nodes) - 1)
        keys = keys[nodes[at] == ids]
    rows, ids = np.divmod(_distinct(keys), _SPAN)
    # ascending ids put a row's shortest first; a stable sort on (row,
    # -length) keeps str order within each length
    order = np.argsort(rows * (MAX_SUB + 1) - id_lengths(ids), kind="stable")
    return rows[order], ids[order]


def _domain_nodes(codes, lengths, nodes) -> np.ndarray:
    """(B, NODES_PER_DOMAIN) int64: indices into the sorted ids ``nodes``
    of each row's first nodes in (longest, str) order, -1 after the last."""
    slots = np.full((len(codes), NODES_PER_DOMAIN), -1, dtype=np.int64)
    if len(nodes):
        rows, ids = _row_substrings(codes, lengths, nodes)
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        first = rank < NODES_PER_DOMAIN
        slots[rows[first], rank[first]] = np.searchsorted(nodes, ids[first])
    return slots


def _graph_stats(slots, degrees, max_degree: int) -> np.ndarray:
    """Mean degree of each row's nodes over ``max_degree``, at most 1; 0
    for a row without nodes."""
    count = (slots >= 0).sum(axis=1)
    total = np.append(degrees, 0)[slots].sum(axis=1)  # -1 reads the 0
    mean = np.where(count > 0, total / np.maximum(count, 1), 0.0)
    return np.minimum(1.0, mean / max_degree)


class WordGraphDetector(DetectorModel):
    kind = "wordgraph"

    def __init__(self, degrees: dict, max_degree: int, logistic: Logistic):
        self.degrees = degrees
        self.max_degree = max(1, int(max_degree))
        ids = string_ids(list(degrees))
        order = np.argsort(ids)
        self._nodes = ids[order]
        self._degrees = np.fromiter(degrees.values(), dtype=np.int64,
                                    count=len(degrees))[order]
        self.logistic = logistic

    def graph_stats(self, domains) -> np.ndarray:
        """Normalized mean degree of each domain's common-substring nodes."""
        return np.concatenate([np.zeros(0), *(
            _graph_stats(_domain_nodes(codes, lengths, self._nodes),
                         self._degrees, self.max_degree)
            for codes, lengths in _chunks(domains))])

    def _score_many(self, domains) -> np.ndarray:
        return self.logistic.score(self.graph_stats(domains)[:, None])

    @classmethod
    def train(cls, domains, labels, hp, rng_seed):
        # a substring is common when more than repeat_threshold domains
        # hold it; each row lists its distinct substrings once
        subs, per_domain = np.unique(np.concatenate(
            [_row_substrings(*chunk)[1] for chunk in _chunks(domains)]),
            return_counts=True)
        nodes = subs[per_domain > hp["repeat_threshold"]]
        del subs, per_domain

        # an edge joins every two of a domain's first nodes, each pair once
        u, v = np.triu_indices(NODES_PER_DOMAIN, 1)
        slots, edges = [], []
        for chunk in _chunks(domains):
            s = _domain_nodes(*chunk, nodes)
            pair = s[:, v] >= 0          # slots fill from the left
            a, b = s[:, u][pair], s[:, v][pair]
            edges.append(_distinct(np.minimum(a, b) * len(nodes)
                                   + np.maximum(a, b)))
            slots.append(s)
        ends = np.divmod(_distinct(np.concatenate(edges)), max(len(nodes), 1))
        degrees = np.bincount(np.concatenate(ends), minlength=len(nodes))
        max_degree = int(degrees.max(initial=1))

        stats = _graph_stats(np.concatenate(slots), degrees,
                             max_degree)[:, None]
        if stats.max() == stats.min():
            # degenerate graph: nothing separates, calibrate to a flat 0.5
            logistic = Logistic(np.zeros(1), 0.0, stats.mean(axis=0),
                                np.ones(1))
        else:
            logistic = fit_logistic(stats, labels)
        return cls(dict(zip(id_strings(nodes), degrees.tolist())),
                   max_degree, logistic)

    def to_blobs(self) -> dict:
        nodes = sorted(self.degrees)
        return {
            "nodes": "\n".join(nodes).encode("utf-8"),
            "degrees": np.array([self.degrees[s] for s in nodes], dtype=np.int64),
            "max_degree": np.array([self.max_degree], dtype=np.int64),
            **self.logistic.to_blobs(),
        }

    @classmethod
    def from_blobs(cls, blobs) -> "WordGraphDetector":
        nodes = record(blobs, "nodes", TEXT).split()  # "" -> no nodes
        degrees = record(blobs, "degrees", I64, len(nodes))
        for node in nodes:
            if not _NODE.fullmatch(node):
                raise DataError(f"wordgraph checkpoint: node {node!r} is not "
                                f"{MIN_SUB}-{MAX_SUB} label characters")
        if len(set(nodes)) < len(nodes):
            raise DataError("wordgraph checkpoint: duplicate node")
        if np.any(degrees < 0):
            raise DataError("wordgraph checkpoint: negative degree")
        # training stores the largest degree, at least 1; any other value
        # would rescale every statistic without a trace
        max_degree = int(record(blobs, "max_degree", I64, 1)[0])
        if max_degree != max(1, degrees.max(initial=0)):
            raise DataError("wordgraph checkpoint: max_degree is not the "
                            "largest degree")
        return cls(dict(zip(nodes, degrees.tolist())), max_degree,
                   Logistic.from_blobs(blobs, 1))
