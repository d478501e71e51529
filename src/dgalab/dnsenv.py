"""Simulated registration environment.

The only things a generator can do here are ``register`` and ``resolve``.
Registration feedback is the product of two binary factors: the detector's
legitimacy verdict and novelty (the name is not already registered).  The
detector object itself is held in a name-mangled slot and no public member
exposes scores or internals, so training code is black-box by construction.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .domains import validate_domain
from .errors import DataError, FluxingRoundError, QueryBudgetError


def feedback_records(d, n) -> np.recarray:
    """One batch of feedback: a record array, one row per name, with fields
    ``outcome``, ``d_factor`` and ``n_factor``; outcome = d * n."""
    d, n = np.asarray(d, np.int64), np.asarray(n, np.int64)
    return np.rec.fromarrays([d * n, d, n], names="outcome,d_factor,n_factor")


def synthetic_address(fqdn: str) -> str:
    digest = hashlib.blake2b(fqdn.encode("utf-8"), digest_size=3).digest()
    return f"10.{digest[0]}.{digest[1]}.{digest[2]}"


class FeedbackEnv:
    """Black-box registration endpoint over one detector."""

    def __init__(self, detector, seed_corpus=(), threshold=None,
                 budget: int = 1_000_000, audit_path=None):
        self.__detector = detector
        self.__threshold = float(detector.threshold if threshold is None
                                 else threshold)
        self._registered = {d.lower() for d in seed_corpus}
        self._budget = int(budget)
        self._count = 0
        self._audit = open(audit_path, "a", encoding="utf-8") if audit_path else None

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
        Returns the batch's ``feedback_records``."""
        for fqdn in fqdns:
            if not validate_domain(fqdn):
                raise DataError(f"cannot register invalid name {fqdn!r}")
        if self._count + len(fqdns) > self._budget:
            raise QueryBudgetError(
                f"budget {self._budget} exhausted at {self._count} queries")
        scores = self.__detector.score_many(list(fqdns))
        d = (np.asarray(scores) >= self.__threshold).tolist()
        n = []
        for fqdn, legit in zip(fqdns, d):
            self._count += 1
            novel = fqdn not in self._registered
            n.append(novel)
            if legit and novel:
                self._registered.add(fqdn)
            if self._audit:
                self._audit.write(f"{self._count}\t{fqdn}\t{legit:d}\t"
                                  f"{novel:d}\t{legit and novel:d}\n")
        if self._audit:
            self._audit.flush()
        return feedback_records(d, n)

    def resolve(self, fqdn: str):
        return synthetic_address(fqdn) if fqdn in self._registered else None

    def close(self):
        if self._audit:
            self._audit.close()
            self._audit = None


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
