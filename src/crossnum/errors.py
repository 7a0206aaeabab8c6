"""Structured errors shared across the package."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An operation would enumerate more lattice points than the guard allows,
    or needs a radius beyond double range.

    Raised before any work is materialised, so callers can retry with a
    larger ``max_enum`` (or the CROSSNUM_MAX_ENUM environment variable)
    without cleaning anything up.  ``requested`` and ``limit`` are set for
    guard refusals.
    """

    def __init__(self, message: str, *, requested: int | None = None,
                 limit: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.limit = limit


class UnsupportedRegimeError(ValueError):
    """A weight-domination query outside the supported parameter regimes."""
