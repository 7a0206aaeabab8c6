"""Closed-form two-sided estimates for the embedding spectra.

Every formula here evaluates a fully explicit function of (n, d, s) that
bounds the exact n-th approximation number of one weight family from
above or below on a stated validity range.  Evaluation is carried out in
log space (counts can exceed double precision) and exponentiated at the
end; validity thresholds that are integer powers are compared exactly.

Out-of-range is a value, not an error: :func:`bound_value` returns None
outside the validity range and raises only for nonsensical arguments.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ._checks import REL_TOL as TOLERANCE
from ._checks import integer, intm_order, positive
from ._record import Record
from .combinatorics import _guard_override, count_cross

if TYPE_CHECKING:
    from .spectra import SpectrumTable

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LN12 = math.log(12.0)
_PI_SQ_THIRD_M1 = math.pi ** 2 / 3.0 - 1.0


class BoundFormula(Enum):
    """The catalogue of explicit bounds; values double as CLI identifiers."""

    ASYMPTOTIC_CONSTANT = "asymptotic-constant"
    SHARP_UPPER_43 = "sharp-upper-43"
    SHARP_LOWER_43 = "sharp-lower-43"
    SHARP_LOWER_REMARK = "sharp-lower-remark"
    TENSOR_TRICK_45 = "tensor-trick-45"
    P_SQUARED = "p-squared"
    PRE_UPPER_46 = "pre-upper-46"
    PRE_LOWER_47 = "pre-lower-47"
    PLUS_UPPER_49 = "plus-upper-49"
    PLUS_LOWER_49 = "plus-lower-49"
    STAR_UPPER_410 = "star-upper-410"
    STAR_LOWER_410 = "star-lower-410"
    INTM_UPPER_413 = "intm-upper-413"
    INTM_LOWER_413 = "intm-lower-413"


def _from_27(d: int) -> int:
    return 27 ** d  # upper bounds of Thms 4.3/4.9/4.10/4.13


@lru_cache(maxsize=1024)
def _past_12e2(d: int) -> int:
    # Lower bounds of Thms 4.3/4.9/4.10/4.13 need n > (12 e^2)^d.  The
    # threshold is irrational, so bisect for the least n passing the
    # comparison ln n > d (ln 12 + 2); no float power can overflow.
    t = d * (_LN12 + 2.0)
    bits = int(t / _LN2) + 2  # 2^(bits-4) < e^t < 2^bits
    # past 1000 bits n is judged by its aligned block of 2^shift candidates,
    # ln(n >> shift) + shift ln 2: one value per block, and non-decreasing
    # from block to block, so the bisection finds the least passing block
    shift = max(0, bits - 1000)
    lo, hi = 1 << (bits - 4 - shift), 1 << (bits - shift)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if math.log(mid) + shift * _LN2 > t:
            hi = mid
        else:
            lo = mid
    return hi << shift


def _pre_cap(d: int) -> int:
    return (d * 4 ** d) // 2


def _from_1(d: int) -> int:
    return 1


class FormulaInfo(Record):
    """What a formula bounds and where it holds.

    At dimension d the formula is valid for ``first(d) <= n``, and also
    ``n <= cap(d)`` when ``cap`` is set; it is valid nowhere for d below
    ``min_d``.
    """

    __slots__ = ("side", "family", "experimental", "first", "cap", "min_d")
    side: str          # "upper" | "lower" | "constant"
    family: str        # weight family whose spectrum the formula bounds
    experimental: bool
    first: Callable[[int], int]
    cap: Callable[[int], int] | None
    min_d: int
    _defaults = (False, _from_1, None, 1)


_INFO = {
    BoundFormula.ASYMPTOTIC_CONSTANT: FormulaInfo("constant", "sharp"),
    BoundFormula.SHARP_UPPER_43: FormulaInfo("upper", "sharp", first=_from_27),
    BoundFormula.SHARP_LOWER_43: FormulaInfo("lower", "sharp", first=_past_12e2),
    # The remark refinement's printed range starts far too early; the
    # implemented range is the one its own construction supports.  Kept out
    # of blanket sweeps.
    BoundFormula.SHARP_LOWER_REMARK: FormulaInfo("lower", "sharp", experimental=True,
                                                 first=lambda d: 144 ** d + 1),
    BoundFormula.TENSOR_TRICK_45: FormulaInfo("upper", "sharp", first=lambda d: 15 ** d),
    BoundFormula.P_SQUARED: FormulaInfo("upper", "sharp"),
    # the preasymptotic pair holds for n <= d 4^d / 2 and d >= 2
    BoundFormula.PRE_UPPER_46: FormulaInfo("upper", "sharp", cap=_pre_cap, min_d=2),
    BoundFormula.PRE_LOWER_47: FormulaInfo("lower", "sharp", first=lambda d: 2,
                                           cap=_pre_cap, min_d=2),
    BoundFormula.PLUS_UPPER_49: FormulaInfo("upper", "plus", first=_from_27),
    BoundFormula.PLUS_LOWER_49: FormulaInfo("lower", "plus", first=_past_12e2),
    BoundFormula.STAR_UPPER_410: FormulaInfo("upper", "star", first=_from_27),
    BoundFormula.STAR_LOWER_410: FormulaInfo("lower", "star", first=_past_12e2),
    BoundFormula.INTM_UPPER_413: FormulaInfo("upper", "intm", first=_from_27),
    BoundFormula.INTM_LOWER_413: FormulaInfo("lower", "intm", first=_past_12e2),
}


def formula_info(formula: BoundFormula) -> FormulaInfo:
    return _INFO[formula]


def _validate_args(formula: BoundFormula, n: int, d: int,
                   s: float) -> tuple[int, int, float]:
    if _INFO[formula].family == "intm":
        s = intm_order(s)
    return (integer(n, "index n"), integer(d, "dimension d"),
            positive(s, "smoothness s"))


def alpha_exponent(n: int, d: int) -> float:
    """The preasymptotic decay exponent alpha(n, d) = 2 + log2(d/log2(n) + 1/2)."""
    n, d = integer(n, "index n", least=2), integer(d, "dimension d")
    log2_n = math.log(n) / _LN2
    return 2.0 + math.log2(d / log2_n + 0.5)


def _exp(x: float, minus_one: bool = False) -> float:
    # e^x (e^x - 1 with minus_one), and inf past double range, as in weight
    try:
        return math.expm1(x) if minus_one else math.exp(x)
    except OverflowError:
        return math.inf


def asymptotic_constant(d: int, s: float) -> float:
    """lim_n a_n * n^s / (ln n)^{(d-1)s} for the sharp weight: (2^d/(d-1)!)^s."""
    d, s = integer(d, "dimension d"), positive(s, "smoothness s")
    return _exp(s * (d * _LN2 - math.lgamma(d)))


def _is_valid(formula: BoundFormula, n: int, d: int) -> bool:
    info = _INFO[formula]
    return (d >= info.min_d and n >= info.first(d)
            and (info.cap is None or n <= info.cap(d)))


def _log_value(formula: BoundFormula, n: int, d: int, s: float) -> float:
    ln_n = math.log(n)
    if formula is BoundFormula.ASYMPTOTIC_CONSTANT:
        return s * (d * _LN2 - math.lgamma(d))
    if formula is BoundFormula.SHARP_UPPER_43:
        return s * (d * _LN3 - math.lgamma(d) + (d - 1) * math.log(ln_n) - ln_n)
    if formula is BoundFormula.SHARP_LOWER_43 or formula is BoundFormula.PLUS_LOWER_49:
        return s * (_LN3 - math.lgamma(d + 1) + d * math.log(2.0 / (2.0 + _LN12))
                    + (d - 1) * math.log(ln_n) - ln_n)
    if formula is BoundFormula.SHARP_LOWER_REMARK:
        return s * (d * math.log(1.5) - math.lgamma(d)
                    + (d - 1) * math.log(ln_n) - ln_n)
    if formula is BoundFormula.TENSOR_TRICK_45:
        return s * d * (_LN2 + 1.0 + math.log(ln_n) - math.log(d)) - s * ln_n
    if formula is BoundFormula.P_SQUARED:
        return (s / 2.0) * (d * math.log(_PI_SQ_THIRD_M1) - ln_n)
    if formula is BoundFormula.PRE_UPPER_46:
        return (s / (2.0 + math.log2(d))) * (2.0 - ln_n)
    if formula is BoundFormula.PRE_LOWER_47:
        return -s * _LN2 - (s / alpha_exponent(n, d)) * ln_n
    if formula is BoundFormula.PLUS_UPPER_49:
        return s * (d * (_LN3 + 0.5 * _LN2) - math.lgamma(d)
                    + (d - 1) * math.log(ln_n) - ln_n)
    if formula is BoundFormula.STAR_UPPER_410:
        if s > 0.5:
            return -0.5 * d * _LN2 + s * (d * math.log(6.0) - math.lgamma(d)
                                          + (d - 1) * math.log(ln_n) - ln_n)
        return _log_value(BoundFormula.SHARP_UPPER_43, n, d, s)
    if formula is BoundFormula.STAR_LOWER_410:
        core = (_LN3 - math.lgamma(d + 1) - d * math.log(2.0 + _LN12)
                + (d - 1) * math.log(ln_n) - ln_n)
        if s > 0.5:
            return s * (core + d * _LN2)
        return -0.5 * d * _LN2 + s * (core + 2.0 * d * _LN2)
    if formula is BoundFormula.INTM_UPPER_413:
        m = float(int(s))
        return -0.5 * d * _LN2 + m * (d * math.log(6.0) - math.lgamma(d)
                                      + (d - 1) * math.log(ln_n) - ln_n)
    if formula is BoundFormula.INTM_LOWER_413:
        m = float(int(s))
        return m * (_LN3 + d * _LN2 - math.lgamma(d + 1)
                    - d * math.log(2.0 + _LN12) + (d - 1) * math.log(ln_n) - ln_n)
    raise AssertionError(formula)


def bound_value(formula: BoundFormula, n: int, d: int, s: float) -> float | None:
    """Evaluate a formula at (n, d, s); None when (n, d) is outside its range."""
    n, d, s = _validate_args(formula, n, d, s)
    if not _is_valid(formula, n, d):
        return None
    return math.exp(_log_value(formula, n, d, s))


class VerificationReport(Record):
    """Outcome of checking one formula against exact spectra on an n grid.

    ``max_slack`` is the most adverse signed relative margin seen over the
    checked points: (exact - bound)/bound for upper bounds and
    (bound - exact)/bound for lower bounds, so anything above TOLERANCE is
    a violation.  ``skipped`` counts grid points outside the validity range.
    """

    __slots__ = ("formula", "d", "s", "checked", "skipped", "violations", "max_slack")
    formula: BoundFormula
    d: int
    s: float
    checked: int
    skipped: int
    violations: tuple[tuple[int, float, float], ...]  # (n, exact, bound)
    max_slack: float

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_bound(formula: BoundFormula, d: int, s: float,
                 n_grid: Iterable[int], *,
                 spectrum: SpectrumTable | None = None,
                 max_enum: int | None = None) -> VerificationReport:
    """Check ``bound_value`` against the exact spectrum on a grid of n.

    Sharp-family formulas compare against the exact breakpoint values
    r^-s in log space, where neither side underflows; plus/star/intm
    formulas compare against a certified enumerated spectrum.  Pass
    ``spectrum`` to share one table across several formulas; otherwise a
    table covering max(n_grid) is computed here.
    """
    # imported here: the CLI's parser reads this module, and the commands
    # that never check a bound do not need the spectra
    from .spectra import WeightKind, exact_an_sharp, rearranged_spectrum

    info = _INFO[formula]
    if info.side == "constant":
        raise ValueError(f"{formula.value} is not a pointwise bound")
    grid = sorted(set(integer(n, "grid index n") for n in n_grid))
    if not grid:
        raise ValueError("empty verification grid")
    _, d, s = _validate_args(formula, grid[0], d, s)

    with _guard_override(max_enum):  # the table and the sharp values count
        if info.family == "sharp":
            spectrum = None  # the exact values are breakpoints, not a table
        else:
            if spectrum is None:
                kind = WeightKind(info.family, s)
                spectrum = rearranged_spectrum(kind, d, grid[-1])
            if spectrum.kind.family != info.family or spectrum.d != d \
                    or abs(spectrum.kind.s - s) > TOLERANCE * max(s, 1.0):
                raise ValueError("spectrum table does not match the formula")
            if len(spectrum) < grid[-1]:
                raise ValueError(
                    f"spectrum table of length {len(spectrum)} cannot cover n = {grid[-1]}")

        checked = skipped = 0
        violations: list[tuple[int, float, float]] = []
        max_slack = -math.inf
        for n in grid:  # bound_value on arguments checked above
            if not _is_valid(formula, n, d):
                skipped += 1
                continue
            log_bound = _log_value(formula, n, d, s)
            bound = math.exp(log_bound)
            if spectrum is None:  # in log space, as 1 / float(r) ** s may be 0.0
                a_n = exact_an_sharp(n, d, s)
                exact = a_n.value()
                excess = _exp(-s * math.log(a_n.r) - log_bound, minus_one=True)
            else:
                exact = spectrum.sigma(n)
                excess = (exact - bound) / bound  # exact / bound - 1
            slack = excess if info.side == "upper" else 0.0 - excess  # never -0.0
            checked += 1
            max_slack = max(max_slack, slack)
            if slack > TOLERANCE:
                violations.append((n, exact, bound))
    return VerificationReport(formula, d, s, checked, skipped,
                              tuple(violations), max_slack)


def limit_ratio_trace(d: int, s: float,
                      r_samples: Sequence[int]) -> list[tuple[int, float]]:
    """Trace of a_n n^s / (ln n)^{(d-1)s} at the breakpoints n = C(r, d).

    Evaluated in log space so the counts may exceed double precision; the
    trace approaches :func:`asymptotic_constant` from below as r grows.
    """
    d, s = integer(d, "dimension d"), positive(s, "smoothness s")
    radii = [integer(r, "trace radius r", least=2) for r in r_samples]
    rows: list[tuple[int, float]] = []
    for r in radii:
        n = count_cross(r, d)
        ln_n = math.log(n)
        ratio = _exp(s * (ln_n - math.log(r) - (d - 1) * math.log(ln_n)))
        rows.append((n, ratio))
    return rows
