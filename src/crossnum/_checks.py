"""The package's argument rules and its relative tolerance.

The paper's objects are defined for finite smoothness s > 0, integers
d, n, r >= 1, finite real radii >= 1 and tolerances 0 < eps < 1.  Each
rule below states one of these once: it returns the argument coerced to
the type the package computes with, or raises ``ValueError`` naming the
argument.
"""

from __future__ import annotations

import math
import operator

REL_TOL = 1e-12  # relative slack of every float comparison in the package


def integer(value, name: str, least: int = 1) -> int:
    """``value`` as an int >= ``least``; integral floats such as 2.0 pass."""
    try:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        whole = operator.index(value)
    except TypeError:
        whole = None
    if whole is None or whole < least:
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return whole


def _real(value, name: str, top: float, what: str) -> float:
    # one chained comparison refuses nan, values at or past either end,
    # and (by TypeError) anything that is not a real number
    try:
        if 0.0 < value < top:
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must {what}, got {value!r}")


def positive(value, name: str) -> float:
    """``value`` as a finite float > 0."""
    return _real(value, name, math.inf, "be finite and positive")


def radius(value, name: str) -> float:
    """``value`` as a finite float >= 1, a real radius."""
    try:
        if 1.0 <= value < math.inf:
            return float(value)
    except (TypeError, OverflowError):  # not a real, or an int past double range
        pass
    raise ValueError(f"{name} must be finite and >= 1, got {value!r}")


def unit_interval(value, name: str) -> float:
    """``value`` as a float with 0 < value < 1."""
    return _real(value, name, 1.0, "lie in (0, 1)")
