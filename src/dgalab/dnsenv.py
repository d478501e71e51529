"""Simulated registration environment.

The only things a generator can do here are ``register`` and ``resolve``.
Registration feedback is the product of two binary factors: the detector's
legitimacy verdict and novelty (the name is not already registered).  The
detector object itself is held in a name-mangled slot and no public member
exposes scores or internals, so training code is black-box by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .domains import validate_domain
from .errors import DataError, FluxingRoundError, QueryBudgetError


@dataclass(frozen=True)
class DnsFeedback:
    outcome: int
    d_factor: int
    n_factor: int
    query_count: int

    def __post_init__(self):
        assert self.outcome == self.d_factor * self.n_factor


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

    def register(self, fqdn: str) -> DnsFeedback:
        return self.register_many([fqdn])[0]

    def register_many(self, fqdns) -> list[DnsFeedback]:
        """Sequential semantics: item k sees the registry as left by k-1."""
        for fqdn in fqdns:
            if not validate_domain(fqdn):
                raise DataError(f"cannot register invalid name {fqdn!r}")
        if self._count + len(fqdns) > self._budget:
            raise QueryBudgetError(
                f"budget {self._budget} exhausted at {self._count} queries")
        scores = self.__detector.score_many(list(fqdns))
        out = []
        for fqdn, score in zip(fqdns, scores):
            self._count += 1
            d = int(score >= self.__threshold)
            n = int(fqdn not in self._registered)
            outcome = d * n
            if outcome:
                self._registered.add(fqdn)
            fb = DnsFeedback(outcome, d, n, self._count)
            if self._audit:
                self._audit.write(f"{self._count}\t{fqdn}\t{d}\t{n}\t{outcome}\n")
            out.append(fb)
        if self._audit:
            self._audit.flush()
        return out

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
