"""Simulated registration environment.

The only things a generator can do here are ``register`` and ``resolve``.
Registration feedback is the product of two binary factors: the detector's
legitimacy verdict and novelty (the name is not already registered).  The
detector object itself is held in a name-mangled slot and no public member
exposes scores or internals, so training code is black-box by construction.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import numpy as np

from .domains import checked_names
from .errors import FluxingRoundError, QueryBudgetError


def feedback_records(d, n) -> np.recarray:
    """One batch of feedback: a record array, one row per name, with fields
    ``outcome``, ``d_factor`` and ``n_factor``; outcome = d * n."""
    d, n = np.asarray(d, np.int64), np.asarray(n, np.int64)
    return np.rec.fromarrays([d * n, d, n], names="outcome,d_factor,n_factor")


def _name_keys(names: list[str]):
    """The UTF-8 bytes of one or more ``names`` as one ``S`` array, and
    their byte lengths; a name is exactly its (bytes, length) pair, since
    the array pads with NULs."""
    joined = "".join(names)
    data = joined.encode("utf-8", "surrogatepass")
    lens = np.fromiter(map(len, names), np.intp, len(names))
    if len(data) == len(joined) and lens.min() == lens.max() > 0:
        # ASCII names of one length: a byte per character, no padding
        return np.frombuffer(data, f"S{lens[0]}"), lens
    raw = [name.encode("utf-8", "surrogatepass") for name in names]
    return np.array(raw, "S"), np.fromiter(map(len, raw), np.intp, len(raw))


class Registry:
    """An exact set of names held as bytes, not as ``str`` objects.

    Names are bucketed by UTF-8 byte length, and a bucket is one sorted
    ``S{L}`` array.
    """

    def __init__(self, seed_corpus=()):
        self._buckets: dict[int, np.ndarray] = {}
        # the lowercased seeds, in chunks, so that a large corpus never
        # holds all its names as bytes objects at once
        names = map(str.lower, seed_corpus)
        while chunk := list(islice(names, 1 << 16)):
            self.register(chunk, np.ones(len(chunk), bool))

    def __contains__(self, name: str) -> bool:
        return not self.register([name], [False])[0]

    def register(self, names: list[str], legit) -> np.ndarray:
        """Novelty of each of ``names``, inserting each one that is novel
        and ``legit``: name k sees the registry as names 0..k-1 left it.

        One stable sort by (length, bytes) brings each name's copies
        together, in call order, for both the search and the rule that a
        copy is not novel after a legitimate earlier one.
        """
        if not names:
            return np.zeros(0, bool)
        keys, lens = _name_keys(names)
        # byte columns, last to first, then the length: the last key is the
        # primary one, and each pass is a stable radix sort of small ints
        columns = keys.view(np.uint8).reshape(len(keys), -1).T
        order = np.lexsort((*columns[::-1], lens))
        keys, lens = keys[order], lens[order]
        legit = np.asarray(legit, bool)[order]
        first = np.ones(len(keys), bool)
        first[1:] = (keys[1:] != keys[:-1]) | (lens[1:] != lens[:-1])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        legit_before = np.cumsum(legit) - legit
        copied = legit_before > legit_before[starts][group]
        known = np.empty(len(starts), bool)
        inserts = np.logical_or.reduceat(legit, starts)
        cuts = np.flatnonzero(np.diff(lens[starts])) + 1
        for a, b in zip([0, *cuts], [*cuts, len(starts)]):
            length = int(lens[starts[a]])
            batch = keys[starts[a:b]].astype(f"S{max(length, 1)}",
                                             copy=False)
            bucket = self._buckets.get(length, batch[:0])
            at = np.searchsorted(bucket, batch)
            # an empty bucket holds nothing, and ``take`` refuses it
            known[a:b] = len(bucket) and bucket.take(at, mode="clip") == batch
            new = inserts[a:b] & ~known[a:b]
            if new.any():
                self._buckets[length] = np.insert(bucket, at[new], batch[new])
        novelty = np.empty(len(keys), bool)
        novelty[order] = ~(known[group] | copied)
        return novelty


class FeedbackEnv:
    """Black-box registration endpoint over one detector and a registry."""

    def __init__(self, detector, registry=None, budget: int = 1_000_000,
                 audit_path=None):
        self.__detector = detector
        self._registered = Registry() if registry is None else registry
        self._budget = int(budget)
        self._count = 0
        self._audit = audit_path
        if audit_path:  # the log exists once the env does
            open(audit_path, "a", encoding="utf-8").close()

    # -- black-box surface ---------------------------------------------------
    @property
    def query_count(self) -> int:
        return self._count

    @property
    def budget(self) -> int:
        return self._budget

    def register(self, fqdn: str) -> np.record:
        return self.register_many([fqdn])[0]

    def register_many(self, fqdns) -> np.recarray:
        """Sequential semantics: item k sees the registry as left by k-1.
        A name is legitimate when its score reaches the detector's
        ``threshold`` as it stands at the call.  Returns the batch's
        ``feedback_records``."""
        fqdns = checked_names(fqdns)
        if self._count + len(fqdns) > self._budget:
            raise QueryBudgetError(
                f"budget {self._budget} exhausted at {self._count} queries")
        scores = self.__detector.score_many(fqdns)
        d = np.asarray(scores) >= self.__detector.threshold
        n = self._registered.register(fqdns, d)
        if self._audit:
            with open(self._audit, "a", encoding="utf-8") as log:
                log.writelines(f"{k}\t{name}\t{a:d}\t{b:d}\t{a and b:d}\n"
                               for k, (name, a, b) in
                               enumerate(zip(fqdns, d.tolist(), n.tolist()),
                                         self._count + 1))
        self._count += len(fqdns)
        return feedback_records(d, n)

    def resolve(self, fqdn: str):
        if fqdn not in self._registered:
            return None
        digest = hashlib.blake2b(fqdn.encode("utf-8", "surrogatepass"),
                                 digest_size=3).digest()
        return f"10.{digest[0]}.{digest[1]}.{digest[2]}"


def fluxing_round(env: FeedbackEnv, candidates: list[str]):
    """One command-side/bot-side fluxing exchange over a shared list.

    The registrar side walks the candidate list until one registers; the bot
    side replays the same list, resolving until it gets an address.  Returns
    (registered name, bot resolution attempts).
    """
    registered = None
    for fqdn in candidates:
        if env.register(fqdn).outcome == 1:
            registered = fqdn
            break
    if registered is None:
        raise FluxingRoundError(f"all {len(candidates)} candidates rejected")
    attempts = 0
    for fqdn in candidates:
        attempts += 1
        if env.resolve(fqdn) is not None:
            break
    return registered, attempts
