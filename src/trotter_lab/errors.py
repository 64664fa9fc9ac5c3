"""Shared exception and warning types."""

from __future__ import annotations


class TrotterLabError(Exception):
    """Base class for errors raised by this package."""


class ResourceLimitError(TrotterLabError):
    """A construction would exceed a configured size cap."""


class BudgetExceededError(TrotterLabError):
    """A search ran out of its evaluation budget.

    The partial result found so far is attached as ``partial``, None when
    nothing was probed.
    """

    def __init__(self, message: str, *, partial=None):
        super().__init__(message)
        self.partial = partial


class GridResolutionWarning(UserWarning):
    """A continuum parameter was rounded to the sampling grid."""
