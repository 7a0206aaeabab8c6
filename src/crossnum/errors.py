"""Structured errors shared across the package."""

from __future__ import annotations


class ResourceLimitError(RuntimeError):
    """An operation needs more lattice points or counting work than the
    guard allows, or a radius beyond double range.

    No partial result is returned and the CLI writes no ``--out`` file, so
    callers can retry with a larger ``max_enum`` (or the CROSSNUM_MAX_ENUM
    environment variable) without cleaning anything up.  ``requested`` and
    ``limit`` are set for guard refusals.
    """

    def __init__(self, message: str, *, requested: int | None = None,
                 limit: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.limit = limit


class UnsupportedRegimeError(ValueError):
    """A weight-domination query outside the supported parameter regimes."""
