import decimal
import math

import pytest

from crossnum import (BoundFormula, alpha_exponent, asymptotic_constant,
                      bound_value, count_cross, exact_an_sharp, formula_info,
                      limit_ratio_trace, rearranged_spectrum, verify_bound)
from crossnum._checks import REL_TOL
from crossnum.bounds import TOLERANCE
from crossnum.spectra import WeightKind

UPPER_SHARP = (BoundFormula.SHARP_UPPER_43, BoundFormula.TENSOR_TRICK_45,
               BoundFormula.P_SQUARED, BoundFormula.PRE_UPPER_46)
LOWER_SHARP = (BoundFormula.SHARP_LOWER_43, BoundFormula.PRE_LOWER_47)


def breakpoint_grid(d, r_max, side):
    """Worst points of the staircase: window right ends for upper bounds,
    left ends for lower bounds."""
    if side == "upper":
        return [count_cross(r, d) for r in range(1, r_max + 1)]
    return [1] + [count_cross(r, d) + 1 for r in range(1, r_max)]


# -- constants and single values --------------------------------------------

def test_asymptotic_constant_examples():
    for s in (0.5, 1.0, 2.0):
        assert asymptotic_constant(1, s) == pytest.approx(2.0 ** s, rel=1e-14)
    assert asymptotic_constant(3, 2.0) == pytest.approx(16.0, rel=1e-13)
    assert asymptotic_constant(2, 1.0) == pytest.approx(4.0, rel=1e-14)


def test_asymptotic_constant_large_d_stays_finite():
    # float(199!) overflows, so naive evaluation of (2^d/(d-1)!)^s breaks
    # long before the constant itself leaves double range
    value = asymptotic_constant(200, 0.01)
    assert 0.0 < value < math.inf
    assert value == pytest.approx(
        math.exp(0.01 * (200 * math.log(2) - math.lgamma(200))), rel=1e-13)


def test_bound_value_pinned_examples():
    tensor = bound_value(BoundFormula.TENSOR_TRICK_45, 15, 1, 1.0)
    assert tensor == pytest.approx(2 * math.e * math.log(15) / 15, rel=1e-13)
    assert tensor < 1.0
    sharp = bound_value(BoundFormula.SHARP_UPPER_43, 729, 2, 1.0)
    assert sharp == pytest.approx(9 * math.log(729) / 729, rel=1e-13)
    assert sharp == pytest.approx(0.0813787, rel=1e-5)


def test_alpha_exponent_pinned_values():
    for d in range(1, 9):
        assert alpha_exponent(4 ** d, d) == 2.0
    for d in (3, 6, 9):
        assert alpha_exponent(2 ** (2 * d // 3), d) == 3.0
    with pytest.raises(ValueError):
        alpha_exponent(1, 3)


def test_bound_value_validity_windows():
    assert bound_value(BoundFormula.SHARP_UPPER_43, 728, 2, 1.0) is None
    assert bound_value(BoundFormula.SHARP_UPPER_43, 729, 2, 1.0) is not None
    assert bound_value(BoundFormula.TENSOR_TRICK_45, 15 ** 3 - 1, 3, 1.0) is None
    assert bound_value(BoundFormula.TENSOR_TRICK_45, 15 ** 3, 3, 1.0) is not None
    # (12 e^2)^2 = 7862.13...: first valid integer is 7863
    assert bound_value(BoundFormula.SHARP_LOWER_43, 7862, 2, 1.0) is None
    assert bound_value(BoundFormula.SHARP_LOWER_43, 7863, 2, 1.0) is not None
    cap = (5 * 4 ** 5) // 2
    assert bound_value(BoundFormula.PRE_UPPER_46, cap, 5, 1.0) is not None
    assert bound_value(BoundFormula.PRE_UPPER_46, cap + 1, 5, 1.0) is None
    assert bound_value(BoundFormula.PRE_UPPER_46, 10, 1, 1.0) is None  # d >= 2
    assert bound_value(BoundFormula.PRE_LOWER_47, 1, 3, 1.0) is None
    assert bound_value(BoundFormula.P_SQUARED, 1, 7, 0.5) is not None
    assert formula_info(BoundFormula.SHARP_LOWER_43).first(2) == 7863
    assert formula_info(BoundFormula.PRE_UPPER_46).cap(5) == cap
    # every range ends where formula_info says, also far past double range
    for formula in BoundFormula:
        info = formula_info(formula)
        if info.side == "constant":
            continue
        for d in (1, 2, 3, 8, 40, 160):
            first = info.first(d)
            if d < info.min_d:
                edges = [first, first + 1] + ([info.cap(d)] if info.cap else [])
                assert all(bound_value(formula, n, d, 1.0) is None for n in edges)
                continue
            if first > 1:
                assert bound_value(formula, first - 1, d, 1.0) is None
            assert bound_value(formula, first, d, 1.0) is not None
            if info.cap is not None:
                assert bound_value(formula, info.cap(d), d, 1.0) is not None
                assert bound_value(formula, info.cap(d) + 1, d, 1.0) is None
    # past 1000 bits the start is bisected over aligned blocks; it stays the
    # first valid index and within 1e-12 of (12 e^2)^d, found independently
    # with 60-digit decimals
    with decimal.localcontext() as context:
        context.prec = 60
        base = decimal.Decimal(12).ln() + 2
        for d in range(148, 401):
            first = formula_info(BoundFormula.PLUS_LOWER_49).first(d)
            assert bound_value(BoundFormula.PLUS_LOWER_49, first - 1, d, 1.0) is None
            assert bound_value(BoundFormula.PLUS_LOWER_49, first, d, 1.0) is not None
            assert abs(decimal.Decimal(first) / (base * d).exp() - 1) < 1e-12
    for formula in (BoundFormula.PRE_UPPER_46, BoundFormula.PRE_LOWER_47):
        # d = 1 is outside the preasymptotic range even below its cap of 2
        assert all(bound_value(formula, n, 1, 1.0) is None for n in (1, 2, 3))


def test_bound_value_argument_errors():
    with pytest.raises(ValueError):
        bound_value(BoundFormula.P_SQUARED, 0, 2, 1.0)
    with pytest.raises(ValueError):
        bound_value(BoundFormula.P_SQUARED, 5, 0, 1.0)
    with pytest.raises(ValueError):
        bound_value(BoundFormula.P_SQUARED, 5, 2, 0.0)
    with pytest.raises(ValueError):
        bound_value(BoundFormula.INTM_UPPER_413, 729, 2, 1.5)


def test_bound_value_log_space_survives_huge_n():
    n = 27 ** 150  # far beyond double precision
    value = bound_value(BoundFormula.SHARP_UPPER_43, n, 150, 1.0)
    assert value is not None and 0.0 < value < math.inf
    smaller = bound_value(BoundFormula.SHARP_UPPER_43, n * 100, 150, 1.0)
    assert smaller < value


def test_formula_lookup_and_info():
    assert BoundFormula("sharp-upper-43") is BoundFormula.SHARP_UPPER_43
    with pytest.raises(ValueError):
        BoundFormula("nope")
    assert formula_info(BoundFormula.PLUS_LOWER_49).side == "lower"
    assert formula_info(BoundFormula.SHARP_LOWER_REMARK).experimental


# -- grid verification scenarios --------------------------------------------

def test_verify_sharp_upper_breakpoints():
    grid = breakpoint_grid(2, 1000, "upper")
    report = verify_bound(BoundFormula.SHARP_UPPER_43, 2, 1.0, grid)
    assert report.passed
    assert report.checked > 900 and report.skipped > 0
    assert report.max_slack <= TOLERANCE


def test_verify_pre_upper_d5():
    grid = breakpoint_grid(5, 2 ** 5, "upper")
    report = verify_bound(BoundFormula.PRE_UPPER_46, 5, 1.0, grid)
    assert report.passed and report.checked > 0


def test_verify_sharp_lower_just_above_threshold():
    d, s = 2, 1.0
    left_ends = [n for n in breakpoint_grid(d, 400, "lower") if n > 7862]
    first_valid = 7863
    report = verify_bound(BoundFormula.SHARP_LOWER_43, d, s,
                          left_ends + [first_valid])
    assert report.passed and report.checked >= len(left_ends)


def test_verify_skips_out_of_range_points():
    report = verify_bound(BoundFormula.SHARP_UPPER_43, 2, 1.0,
                          [10, 729, 1000])
    assert report.skipped == 1 and report.checked == 2


def test_verify_rejects_bad_requests():
    with pytest.raises(ValueError):
        verify_bound(BoundFormula.ASYMPTOTIC_CONSTANT, 2, 1.0, [10])
    with pytest.raises(ValueError):
        verify_bound(BoundFormula.SHARP_UPPER_43, 2, 1.0, [])
    table = rearranged_spectrum(WeightKind.plus(1.0), 2, 100)
    with pytest.raises(ValueError):  # table too short for the grid
        verify_bound(BoundFormula.PLUS_UPPER_49, 2, 1.0, [729, 8000],
                     spectrum=table)
    with pytest.raises(ValueError):  # kind mismatch
        verify_bound(BoundFormula.STAR_UPPER_410, 2, 1.0, [99],
                     spectrum=table)


def test_verify_upper_sweep_sharp_family():
    # reduced sweep; the full named grids run in the acceptance suite
    for d, r_max in ((2, 300), (3, 120)):
        grid = breakpoint_grid(d, r_max, "upper")
        for s in (0.5, 1.0, 2.0):
            for formula in UPPER_SHARP:
                report = verify_bound(formula, d, s, grid)
                assert report.passed, (formula, d, s, report.violations[:2])


def test_verify_lower_sweep_sharp_family():
    for d, r_max in ((1, 500), (2, 300)):
        grid = breakpoint_grid(d, r_max, "lower")
        for s in (0.5, 1.0, 2.0):
            for formula in LOWER_SHARP:
                report = verify_bound(formula, d, s, grid)
                assert report.passed, (formula, d, s, report.violations[:2])


def test_verify_enumerated_families():
    d, n_max = 2, 10 ** 4
    upper_grid = list(range(27 ** d, n_max + 1, 97)) + [n_max]
    lower_grid = list(range(7863, n_max + 1, 97)) + [n_max]
    cases = [
        (BoundFormula.PLUS_UPPER_49, WeightKind.plus(1.0), upper_grid),
        (BoundFormula.PLUS_LOWER_49, WeightKind.plus(1.0), lower_grid),
        (BoundFormula.STAR_UPPER_410, WeightKind.star(0.5), upper_grid),
        (BoundFormula.STAR_LOWER_410, WeightKind.star(0.5), lower_grid),
        (BoundFormula.INTM_UPPER_413, WeightKind.integer_m(2), upper_grid),
        (BoundFormula.INTM_LOWER_413, WeightKind.integer_m(2), lower_grid),
    ]
    tables = {}
    for formula, kind, grid in cases:
        key = kind.label()
        if key not in tables:
            tables[key] = rearranged_spectrum(kind, d, n_max)
        report = verify_bound(formula, d, kind.s, grid, spectrum=tables[key])
        assert report.passed, (formula, report.violations[:2])


# -- regime boundaries and special assertions -------------------------------

def test_star_branches_coincide_at_half():
    # the two branch expressions agree exactly at s = 1/2, so evaluating
    # the s <= 1/2 branch there loses nothing
    for d in (1, 2, 3, 7):
        for n in (27 ** d, 27 ** d + 12345):
            taken = bound_value(BoundFormula.STAR_UPPER_410, n, d, 0.5)
            ln_n = math.log(n)
            high_branch = math.exp(
                -0.5 * d * math.log(2.0)
                + 0.5 * (d * math.log(6.0) - math.lgamma(d)
                         + (d - 1) * math.log(ln_n) - ln_n))
            assert taken == pytest.approx(high_branch, rel=1e-12), (d, n)


def test_pre_upper_nontrivial_exactly_past_e_squared():
    # (e^2/n)^(s/(2+log2 d)) < 1 iff n > e^2 = 7.389...
    for d in (2, 5, 11):
        for s in (1.0, 2.5):
            assert bound_value(BoundFormula.PRE_UPPER_46, 8, d, s) < 1.0
            assert bound_value(BoundFormula.PRE_UPPER_46, 7, d, s) > 1.0


def test_tensor_nontrivial_at_validity_start():
    for d in range(1, 7):
        for s in (1.0, 2.0):
            assert bound_value(BoundFormula.TENSOR_TRICK_45, 15 ** d, d, s) < 1.0


def test_remark_lower_bound_has_violations_in_printed_range():
    # the alternative lower constant (3/2)^d/(d-1)! fails well past the
    # printed start 48^{d/2}; these are the worst offenders found by scan,
    # and they justify the implemented validity n > 144^d
    for d, n in ((2, 6646), (3, 135552)):
        assert 48 ** (d / 2) < n < 144 ** d
        assert bound_value(BoundFormula.SHARP_LOWER_REMARK, n, d, 1.0) is None
        ln_n = math.log(n)
        would_be = math.exp(d * math.log(1.5) - math.lgamma(d)
                            + (d - 1) * math.log(ln_n) - ln_n)
        exact = exact_an_sharp(n, d, 1.0).value()
        assert exact < would_be  # a genuine violation of the printed claim


def test_remark_lower_bound_passes_on_implemented_range():
    for d, r_max in ((1, 800), (2, 2000)):
        grid = [n for n in breakpoint_grid(d, r_max, "lower") if n > 144 ** d]
        grid.append(144 ** d + 1)
        report = verify_bound(BoundFormula.SHARP_LOWER_REMARK, d, 1.0, grid)
        assert report.passed and report.checked > 10


def test_crossover_between_p_squared_and_tensor():
    # the comparison flips where f(n) = n^(1/2d)/ln n crosses e/d; the
    # crossing radius solves c - 2 ln c = 2 in n = e^(c d), which pins it
    # between e^(5.35 d) and e^(5.36 d)
    d = 3

    def sufficient(c):
        n = math.exp(c * d)
        return n ** (1.0 / (2 * d)) / math.log(n) <= math.e / d

    assert sufficient(5.35) and not sufficient(5.36)
    lo, hi = 2.0, 8.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if sufficient(mid):
            lo = mid
        else:
            hi = mid
    assert math.exp(5.35 * d) <= math.exp(lo * d) <= math.exp(5.36 * d)
    # inside the certified stretch the p-squared bound is the better one
    for exponent in range(9, 17):  # n from e^9 up to e^16 < e^(5.35 * 3)
        n = max(15 ** d, int(math.exp(exponent)))
        p_sq = bound_value(BoundFormula.P_SQUARED, n, d, 1.0)
        tensor = bound_value(BoundFormula.TENSOR_TRICK_45, n, d, 1.0)
        assert p_sq <= tensor * (1 + 1e-12), n


# -- traces and exports ------------------------------------------------------

def test_limit_ratio_trace_d1_closed_form():
    rows = limit_ratio_trace(1, 1.0, [2, 10, 10 ** 4])
    for (n, ratio), r in zip(rows, (2, 10, 10 ** 4)):
        assert n == 2 * r - 1
        assert ratio == pytest.approx((2 * r - 1) / r, rel=1e-13)
    assert rows[-1][1] == pytest.approx(2.0, abs=2e-4)


def test_limit_ratio_trace_frozen_d2_values():
    rows = limit_ratio_trace(2, 1.0, [10 ** 4])
    n, ratio = rows[0]
    assert n == 334673
    assert ratio == pytest.approx(2.6308889903367674, rel=1e-12)
    assert ratio == pytest.approx(n / (10 ** 4 * math.log(n)), rel=1e-12)


def test_limit_ratio_trace_monotone_towards_constant():
    for d in (1, 2, 3):
        constant = asymptotic_constant(d, 1.0)
        rows = limit_ratio_trace(d, 1.0, [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5])
        ratios = [ratio for _, ratio in rows]
        assert all(ratio <= constant * 1.05 for ratio in ratios)
        gaps = [abs(constant - ratio) for ratio in ratios]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), (d, ratios)


def test_limit_ratio_trace_validation():
    with pytest.raises(ValueError):
        limit_ratio_trace(2, 1.0, [1])


def test_one_relative_tolerance():
    assert TOLERANCE is REL_TOL == 1e-12
