"""Tokens, seeds, and domain-name assembly/validation.

The token alphabet is fixed to the characters that may legally appear in a
DNS label: lowercase a-z, digits, and the hyphen.  An internal start marker
(index ``n``) exists only as an extra embedding slot and is never emitted.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass

import numpy as np

from .errors import AssemblyError, ContractError, ScoringError, SeedRangeError

LABEL_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789-"
_LABEL = r"(?!-)[a-z0-9-]{1,63}(?<!-)"
_NAME_RE = re.compile(rf"(?:{_LABEL}\.)*{_LABEL}")

EPOCH = _dt.date(1970, 1, 1)

MAX_LABEL = 63
MAX_NAME = 253


@dataclass(frozen=True)
class TokenDict:
    """Ordered emission alphabet plus the reserved start-marker slot."""

    tokens: str = LABEL_CHARS

    def __post_init__(self):
        seen = set(self.tokens)
        if len(seen) != len(self.tokens):
            raise ContractError("tokens must be unique")
        if not seen.issubset(set(LABEL_CHARS)):
            raise ContractError("tokens must be drawn from a-z, 0-9, '-'")
        if len(self.tokens) < 2:
            raise ContractError("need at least 2 tokens")

    @property
    def n(self) -> int:
        return len(self.tokens)

    @property
    def hyphen_index(self) -> int | None:
        i = self.tokens.find("-")
        return None if i < 0 else i

    def detokenize(self, indices) -> str:
        out = []
        for i in indices:
            if not 0 <= int(i) < self.n:
                raise ContractError(f"token index {i} out of range")
            out.append(self.tokens[int(i)])
        return "".join(out)

    def fqdns(self, tokens, tld: str) -> list[str]:
        """``<core>.<tld>`` per row of a (B, T) token-index array, unchecked:
        indices must be below ``n`` and ``check_tld`` must accept the TLD."""
        table = np.frombuffer(self.tokens.encode(), np.uint8)
        cores = table[np.asarray(tokens)]
        suffix = f".{tld}"
        return [core.decode() + suffix
                for core in cores.view(f"S{cores.shape[1]}")[:, 0].tolist()]


DEFAULT_TOKENS = TokenDict()


@dataclass(frozen=True)
class SeedSpace:
    """Calendar range the date seeds are drawn from."""

    start_date: _dt.date = _dt.date(1970, 1, 1)
    end_date: _dt.date = _dt.date(2099, 12, 31)

    def __post_init__(self):
        if self.start_date > self.end_date:
            raise ContractError("start_date must not exceed end_date")
        if self.start_date < EPOCH:
            raise ContractError("seed dates before 1970-01-01 are not supported")

    def __contains__(self, date: _dt.date) -> bool:
        return self.start_date <= date <= self.end_date

    @property
    def days(self) -> int:
        return (self.end_date - self.start_date).days + 1

    def date_at(self, offset: int) -> _dt.date:
        return self.start_date + _dt.timedelta(days=int(offset) % self.days)


def encode_seed(date: _dt.date, dct: TokenDict = DEFAULT_TOKENS,
                space: SeedSpace | None = None) -> tuple[np.ndarray, int]:
    """Encode a calendar date as (one-hot seed vector, derived RNG seed).

    The vector has the dictionary's dimension with a single 1.0 at index
    ``days_since_epoch mod n``; the RNG seed is the raw day count, so equal
    dates always produce identical encodings.
    """
    if space is not None and date not in space:
        raise SeedRangeError(f"{date} outside [{space.start_date}, {space.end_date}]")
    days = (date - EPOCH).days
    if days < 0:
        raise SeedRangeError(f"{date} precedes the 1970-01-01 epoch")
    vec = np.zeros(dct.n)
    vec[days % dct.n] = 1.0
    return vec, days


def validate_domain(s: str) -> bool:
    """True iff ``s`` is a well-formed lowercase domain name.

    Total function: every label 1-63 chars of a-z/0-9/'-' with no hyphen at
    either edge, and at most 253 characters overall.
    """
    return (isinstance(s, str) and len(s) <= MAX_NAME
            and _NAME_RE.fullmatch(s) is not None)


class CheckedNames(list):
    """Checked names; built only by ``checked_names``, ``load_domains``,
    ``train_detector``, ``_epoch_values``, ``_baseline_names``, and from
    ``CheckedNames`` by slicing, ``split_dataset`` and ``run_matrix``."""

    def __getitem__(self, index):
        item = super().__getitem__(index)
        return CheckedNames(item) if isinstance(index, slice) else item


def checked_names(domains) -> CheckedNames:
    """``domains`` as ``CheckedNames``, each name validated once; else
    ``ScoringError`` names the first invalid name."""
    if not isinstance(domains, CheckedNames):
        domains = CheckedNames(domains)
        for domain in domains:
            if not validate_domain(domain):
                raise ScoringError(f"invalid domain {domain!r}")
    return domains


def check_tld(tld: str, length: int = MAX_LABEL) -> str:
    """``tld`` when ``length``-character cores under it are valid names."""
    if not validate_domain(f"{'a' * length}.{tld}"):
        raise AssemblyError(f"TLD {tld!r} with {length}-character cores "
                            "violates RFC limits")
    return tld


def assemble_fqdn(core: str, tld: str = "com") -> str:
    """Join core and TLD into a full name."""
    name = f"{core}.{tld}"
    if not validate_domain(name):
        raise AssemblyError(f"assembled name {name!r} violates RFC limits")
    return name
