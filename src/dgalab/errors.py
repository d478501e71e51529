"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: usage problems -> 1, data problems -> 2,
numeric aborts -> 3.
"""


class DgaLabError(Exception):
    """Base class for all package errors."""


class SeedRangeError(DgaLabError):
    """Seed date falls outside the configured seed space."""


class AssemblyError(DgaLabError):
    """A domain name could not be assembled within RFC limits."""


class ContractError(DgaLabError):
    """Caller violated an operation precondition (dimension mismatch etc.)."""


class NumericError(DgaLabError):
    """A non-finite value appeared where finite math was required."""


class DataError(DgaLabError):
    """Corpus or input-file problem (missing class, malformed line, ...)."""


class ScoringError(DataError):
    """A detector was asked to score an invalid domain string."""


class QueryBudgetError(DgaLabError):
    """The environment's registration-query budget is exhausted."""


class FluxingRoundError(DgaLabError):
    """No candidate in a fluxing round could be registered."""


class UnsupportedDetectorError(DgaLabError):
    """Requested operation needs a capability this detector kind lacks."""
