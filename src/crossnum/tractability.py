"""Information complexity of the embeddings and tractability certificates.

For the sharp weight the complexity n(eps, d) = min{n : a_n <= eps} is
exact: with r* the least integer radius satisfying r*^{-s} <= eps, the
answer is C(r* - 1, d) + 1.  The other weight families are enclosed
between sharp complexities via norm-one comparisons, with an optional
exact resolution by a best-first walk.

The quasi-polynomial certificate checks

    n(eps, d) <= C_t * exp(t * ln(1/eps) * (1 + ln d))

on a grid; a proof-derived uniform pair (t, C_t) valid for every d and
eps is available as the default.
"""

from __future__ import annotations

import math
from typing import Sequence

from ._checks import REL_TOL, integer, positive, unit_interval
from ._record import Record
from .combinatorics import _guard_override, count_cross
from .errors import ResourceLimitError
from .spectra import WeightKind, _best_first


def _first_radius(eps: float, s: float) -> int:
    # least integer r with r^{-s} <= eps; ties within 1e-12 relative of an
    # integer boundary resolve toward inclusion (a_n <= eps)
    try:
        x = float(eps) ** (-1.0 / s)
        nearest = round(x)  # x is inf when 1/s itself overflows
    except OverflowError:
        raise ResourceLimitError(
            f"the radius eps^(-1/s) for eps = {eps}, s = {s} exceeds "
            "double range") from None
    if nearest >= 1 and abs(x - nearest) <= REL_TOL * x:
        return nearest
    return math.ceil(x)


def info_complexity_sharp(eps: float, d: int, s: float) -> int:
    """Exact n(eps, d) = min{n : a_n <= eps} for the sharp weight."""
    eps = unit_interval(eps, "tolerance eps")
    d, s = integer(d, "dimension d"), positive(s, "smoothness s")
    r_star = _first_radius(eps, s)
    if r_star <= 1:
        return 1
    return count_cross(r_star - 1, d) + 1


class ComplexityEnclosure(Record):
    """lower <= n(eps, d) <= upper, with the exact value when resolved."""

    __slots__ = ("lower", "upper", "exact")
    lower: int
    upper: int
    exact: int | None

    def __init__(self, lower: int, upper: int, exact: int | None = None) -> None:
        if lower > upper:
            raise ValueError("enclosure is empty")
        if exact is not None and not lower <= exact <= upper:
            raise ValueError("exact value escapes its enclosure")
        super().__init__(lower, upper, exact)


def info_complexity_bounds(kind: WeightKind, eps: float, d: int, *,
                           exact: bool = False,
                           max_enum: int | None = None) -> ComplexityEnclosure:
    """Enclose n(eps, d) for any weight family between sharp complexities.

    The enclosures come from norm-one comparisons only:

    * plus(s):  [n_sharp(s),  n_sharp(s/2)]
    * star(s):  [n_sharp(s),  n_sharp(1/2)] for s >= 1/2,
                [n_sharp(1/2), n_sharp(s)] for s <= 1/2
                (the star and sharp weights coincide at s = 1/2)
    * intm(m):  [n_sharp(m),  n_sharp(1/2)]

    With ``exact=True`` the value is resolved by walking 1/weight in
    non-increasing order up to the first value <= eps; the walk never
    passes index ``upper``, and it is refused once the vectors it pops, or
    its frontier, exceed the enumeration guard.
    """
    eps, d = unit_interval(eps, "tolerance eps"), integer(d, "dimension d")
    s = kind.s
    with _guard_override(max_enum):  # for the sharp counts and the walk
        if kind.family == "sharp":
            n = info_complexity_sharp(eps, d, s)
            return ComplexityEnclosure(n, n, n)
        if kind.family == "plus":
            lower = info_complexity_sharp(eps, d, s)
            upper = info_complexity_sharp(eps, d, s / 2.0)
        elif kind.family == "star":
            if s >= 0.5:
                lower = info_complexity_sharp(eps, d, s)
                upper = info_complexity_sharp(eps, d, 0.5)
            else:
                lower = info_complexity_sharp(eps, d, 0.5)
                upper = info_complexity_sharp(eps, d, s)
        else:
            lower = info_complexity_sharp(eps, d, float(kind.m))
            upper = info_complexity_sharp(eps, d, 0.5)
        if not exact:
            return ComplexityEnclosure(lower, upper)
        walk = _best_first(kind, d)
        n = 1  # sigma_upper <= eps by the enclosure; ties resolve toward a_n <= eps
        while n < upper:
            value, copies, _ = next(walk)
            if value <= eps * (1.0 + REL_TOL):
                break
            n += copies
    return ComplexityEnclosure(lower, upper, min(n, upper))


def qpt_constants(s: float) -> tuple[float, float]:
    """A uniform certificate pair (t, C_t) for the sharp family.

    Chaining ln C(r, d) <= 2 + max(4, 2 + log2 d) * ln r with
    r* <= 2 eps^{-1/s} and max(4, 2 + log2 d) <= 4 (1 + ln d) absorbs the
    whole d-dependence into ln(1/eps) (1 + ln d) once eps <= 2^{-s}; for
    larger eps the complexity is at most 2 <= e^2.  Coarse but valid for
    every d >= 1 and 0 < eps < 1: t = 8/s, C_t = e^2.
    """
    return 8.0 / positive(s, "smoothness s"), math.exp(2.0)


class QptCertificate(Record):
    """Grid evidence for (or against) one quasi-polynomial pair (t, C_t).

    ``slack`` is the largest value of ln n - ln C_t - t ln(1/eps)(1 + ln d)
    over the grid (negative when the certificate holds everywhere);
    ``per_point_t`` records the minimal exponent that would work at each
    grid point with C_t fixed.
    """

    __slots__ = ("s", "t", "c_t", "grid", "passed", "violations",
                 "worst_point", "slack", "per_point_t")
    s: float
    t: float
    c_t: float
    grid: tuple[tuple[float, int], ...]
    passed: bool
    violations: tuple[tuple[float, int], ...]
    worst_point: tuple[float, int]
    slack: float
    per_point_t: tuple[float, ...]


def qpt_certify(s: float, d_grid: Sequence[int], eps_grid: Sequence[float],
                t: float | None = None,
                c_t: float | None = None) -> QptCertificate:
    """Check n(eps, d) <= C_t exp(t ln(1/eps)(1 + ln d)) over a grid.

    Defaults to the proof-derived uniform pair from :func:`qpt_constants`.
    Comparisons run in log space on the exact complexities, so passing is
    meaningful even when n overflows double precision.
    The whole grid is validated before anything is counted.
    """
    t_default, c_default = qpt_constants(s)
    t = t_default if t is None else positive(t, "exponent t")
    c_t = c_default if c_t is None else positive(c_t, "constant C_t")
    d_grid = [integer(d, "dimension d") for d in d_grid]
    eps_grid = [unit_interval(eps, "tolerance eps") for eps in eps_grid]
    if not d_grid or not eps_grid:
        raise ValueError("certificate grid must be non-empty")
    ln_ct = math.log(c_t)
    grid: list[tuple[float, int]] = []
    violations: list[tuple[float, int]] = []
    per_point_t: list[float] = []
    worst: tuple[float, int] | None = None
    slack = -math.inf
    for d in d_grid:
        for eps in eps_grid:
            n = info_complexity_sharp(eps, d, s)
            scale = math.log(1.0 / eps) * (1.0 + math.log(d))
            margin = math.log(n) - ln_ct - t * scale
            grid.append((eps, d))
            per_point_t.append(max(0.0, (math.log(n) - ln_ct) / scale))
            if margin > slack:
                slack = margin
                worst = (eps, d)
            if margin > 0.0:
                violations.append((eps, d))
    assert worst is not None
    return QptCertificate(float(s), t, c_t, tuple(grid),
                          not violations, tuple(violations), worst, slack,
                          tuple(per_point_t))
