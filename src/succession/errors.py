"""Exception types shared across the package.

Every condition a caller might want to catch by name gets its own class;
all of them derive from :class:`SuccessionError` so ``except SuccessionError``
catches any model-level failure without touching programming errors.
"""

from __future__ import annotations

__all__ = [
    "SuccessionError",
    "ZeroEvidenceProbability",
    "UGFalsified",
    "DimensionMismatch",
    "InvalidRule",
    "SampleTooLarge",
    "ResourceLimit",
    "TableTooLarge",
]


class SuccessionError(Exception):
    """Base class for every model-level error raised by this package."""


class ZeroEvidenceProbability(SuccessionError):
    """The prior assigns probability exactly zero to the observed evidence.

    Conditioning is undefined in that case; callers asked for a posterior
    or a predictive probability that does not exist.
    """


class UGFalsified(SuccessionError):
    """A universal generalization was assumed alive but the evidence contains
    a counterexample (at least one disconfirming instance)."""


class DimensionMismatch(SuccessionError, ValueError):
    """Two vectors or laws that must share a shape do not."""


class InvalidRule(SuccessionError):
    """A predictive rule returned something that is not a probability
    vector of the expected length (entries must be nonnegative rationals
    summing to exactly one)."""


class SampleTooLarge(SuccessionError, ValueError):
    """More draws were requested from an urn than it holds."""


class ResourceLimit(SuccessionError):
    """An input would need more work or memory than a fixed cap allows; it
    is refused before that work starts."""


class TableTooLarge(ResourceLimit):
    """A dense sequence-law table would exceed the configured size cap."""
