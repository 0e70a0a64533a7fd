"""Exception types raised by the laboratory's numerical routines.

Each error names a specific contract violation so experiment code can tell a
malformed input apart from a genuine numerical failure.
"""

from __future__ import annotations

__all__ = [
    "IdlabError",
    "BracketFailure",
    "DimensionMismatch",
    "NonFiniteDerivative",
    "DegenerateMeans",
    "SingularMatrix",
    "RangeMismatch",
    "RankDeficient",
    "SingularCovariance",
    "UncertifiedTransform",
]


class IdlabError(Exception):
    """Base class for all laboratory errors."""


class BracketFailure(IdlabError):
    """A quantile cannot be found: a mixture quantile is still open after
    its Newton step cap."""


class DimensionMismatch(IdlabError):
    """Array or object dimensions are incompatible."""


class NonFiniteDerivative(IdlabError):
    """A log-det, the log of a map's Jacobian determinant, is not finite."""


class DegenerateMeans(IdlabError):
    """Environment mean vectors coincide where distinct ones are required."""


class SingularMatrix(IdlabError):
    """A matrix that must be well conditioned is numerically singular."""


class RangeMismatch(IdlabError):
    """Two generators do not share their range, so no transform links them."""


class RankDeficient(IdlabError):
    """A design or statistic matrix has lower rank than the fit requires."""


class SingularCovariance(IdlabError):
    """A sample covariance matrix is not positive definite."""


class UncertifiedTransform(IdlabError):
    """A candidate indeterminacy transform failed its invariance re-check."""
