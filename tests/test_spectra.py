import functools
import itertools
import math
import time

import pytest

from crossnum import (BoundFormula, CrossSpec, ResourceLimitError,
                      UnsupportedRegimeError, WeightKind, alpha_exponent,
                      asymptotic_constant, bound_value, breakpoints_sharp,
                      count_cross, count_cross_bruteforce, count_positive,
                      enumerate_cross, enumerate_dyadic_cross, exact_an_sharp,
                      info_complexity_bounds, info_complexity_sharp,
                      limit_ratio_trace, optimal_truncation, qpt_certify,
                      qpt_constants, rearranged_spectrum, sharp_table,
                      tractability, verify_weight_domination, volume_exact,
                      weight)
from crossnum import spectra
from crossnum.spectra import ApproxNumber, SpectrumTable


# -- weights ----------------------------------------------------------------

def test_weight_is_one_at_origin():
    for kind in (WeightKind.sharp(1.5), WeightKind.plus(0.7),
                 WeightKind.star(0.3), WeightKind.integer_m(2)):
        assert weight(kind, (0, 0, 0)) == 1.0


def test_weight_sharp_values():
    assert weight(WeightKind.sharp(2), (1, -2)) == pytest.approx(36.0, rel=1e-15)
    assert weight(WeightKind.sharp(0.5), (3,)) == pytest.approx(2.0, rel=1e-15)


def test_weight_integer_m_squares_to_power_sum():
    # v_m(1)^2 = m + 1 at a unit frequency; the headline relation
    for m in (1, 2, 3, 5):
        for d in (1, 2, 4):
            e1 = (1,) + (0,) * (d - 1)
            assert weight(WeightKind.integer_m(m), e1) ** 2 == \
                pytest.approx(m + 1, rel=1e-14)
    assert weight(WeightKind.integer_m(2), (3,)) ** 2 == \
        pytest.approx(1 + 9 + 81, rel=1e-14)


def _intm_weight_by_sum(m, k):
    # the power sum term by term, as the weight once formed it
    total = 1.0
    try:
        for kj in k:
            total *= math.sqrt(sum((kj * kj) ** a for a in range(m + 1)))
    except OverflowError:
        return math.inf
    return total


@pytest.mark.parametrize("m", [1, 2, 5, 37, 341, 342, 511, 512, 1100])
def test_weight_integer_m_is_the_power_sum_bit_for_bit(m):
    # the closed form reaches math.sqrt as the same integer, and a weight
    # past double range is inf on both sides of the early return
    for level in range(-40, 41):
        assert weight(WeightKind.integer_m(m), (level, 1)) == \
            _intm_weight_by_sum(m, (level, 1)), level


def test_intm_square_is_the_power_sum():
    for m in (1, 2, 5):
        for level in range(-299, 300):
            assert spectra._intm_square(level, m) == \
                sum(level ** (2 * a) for a in range(m + 1)), (m, level)


def test_weight_integer_m_of_huge_order_is_quick():
    started = time.perf_counter()
    kind = WeightKind.integer_m(100_000)
    assert weight(kind, (0, 1)) == math.sqrt(100_001)
    assert weight(kind, (2, 0)) == weight(kind, (-300, 7)) == math.inf
    assert time.perf_counter() - started < 1.0


def test_weight_families_coincide_where_they_should():
    # intm(1) == plus(1) == star(1), and star(1/2) == sharp(1/2), pointwise
    grid = [(k1, k2) for k1 in range(-6, 7) for k2 in range(-6, 7)]
    for k in grid:
        w_plus = weight(WeightKind.plus(1), k)
        assert weight(WeightKind.integer_m(1), k) == pytest.approx(w_plus, rel=1e-14)
        assert weight(WeightKind.star(1), k) == pytest.approx(w_plus, rel=1e-14)
        assert weight(WeightKind.star(0.5), k) == \
            pytest.approx(weight(WeightKind.sharp(0.5), k), rel=1e-14)


def test_weight_smoothness_scaling():
    # sharp and plus scale as w_s = w_1^s; star does not (semigroup failure)
    for k in ((2,), (1, 3), (-2, 0, 5)):
        for s in (0.5, 1.7, 3.0):
            assert weight(WeightKind.sharp(s), k) == \
                pytest.approx(weight(WeightKind.sharp(1), k) ** s, rel=1e-13)
            assert weight(WeightKind.plus(s), k) == \
                pytest.approx(weight(WeightKind.plus(1), k) ** s, rel=1e-13)
    # at k = 2: squaring the s = 1/2 star weight gives 3, not sqrt(5)
    squared = weight(WeightKind.star(0.5), (2,)) ** 2
    assert squared == pytest.approx(3.0, rel=1e-14)
    assert weight(WeightKind.star(1), (2,)) == pytest.approx(math.sqrt(5), rel=1e-14)
    assert squared != pytest.approx(weight(WeightKind.star(1), (2,)), rel=1e-3)


def test_weight_kind_validation():
    with pytest.raises(ValueError):
        WeightKind("flat", 1.0)
    with pytest.raises(ValueError):
        WeightKind.sharp(0.0)
    with pytest.raises(ValueError):
        WeightKind("intm", 1.5)
    with pytest.raises(ValueError):
        WeightKind.integer_m(0)
    assert WeightKind.integer_m(3).m == 3
    with pytest.raises(AttributeError):
        _ = WeightKind.plus(1).m



_LEMMA_KINDS = ([WeightKind(family, s) for family in ("sharp", "plus", "star")
                 for s in (0.1, 0.5, 1.0, 5.0)]
                + [WeightKind.integer_m(m) for m in (1, 2, 3)])


@pytest.mark.parametrize("kind", _LEMMA_KINDS, ids=WeightKind.label)
@pytest.mark.parametrize("d, box", [(1, 200), (2, 20), (3, 6)])
def test_weight_monotone_and_sign_symmetric(kind, d, box):
    # the lemma behind the best-first walk: raising any |k_j| by one never
    # lowers the weight, compared in floats the way the walk compares
    # (-1/weight), and a sign flip leaves the weight unchanged bit for bit
    for k in itertools.product(range(-box, box + 1), repeat=d):
        w = weight(kind, k)
        assert w == weight(kind, tuple(abs(kj) for kj in k)), k
        for j in range(d):
            if k[j] < 0:
                continue
            up = k[:j] + (k[j] + 1,) + k[j + 1:]
            w_up = weight(kind, up)
            assert w_up >= w and -1.0 / w_up >= -1.0 / w, (k, j)


# first radius whose r^s leaves the float arithmetic for log space: bit
# length times s past 1000, or (s = 0.5) float(r) overflowing near 2^1024
_LOG_SPACE_SWITCH = [(0.5, 2 ** 1024 - 2 ** 970), (1.0, 2 ** 1000),
                     (1.5, 2 ** 666), (3.0, 2 ** 333), (7.0, 2 ** 142)]


@pytest.mark.parametrize("s, switch", _LOG_SPACE_SWITCH,
                         ids=[f"s={s}" for s, _ in _LOG_SPACE_SWITCH])
def test_weight_monotone_across_log_space_switch(s, switch):
    # the same lemma for sharp weights and a_n = r^-s on both sides of the
    # switch, and past it at powers of two; below it the values are the
    # float arithmetic float(r) ** s bit for bit
    kind = WeightKind.sharp(s)
    bits = switch.bit_length()
    edges = [switch] + [1 << b for b in range(bits - 2, bits + 400, 7)]
    radii = sorted({r for edge in edges for r in range(edge - 40, edge + 40)})
    weights = [weight(kind, (r - 1,)) for r in radii]
    values = [ApproxNumber(r, s).value() for r in radii]
    for r, w, a in zip(radii, weights, values):
        if r < switch:
            assert w == float(r) ** s and a == 1.0 / float(r) ** s, r
    for i in range(len(radii) - 1):
        assert weights[i] <= weights[i + 1], radii[i]
        assert values[i] >= values[i + 1], radii[i]
    # two coordinates: raising either one never lowers the weight
    for a in (1, 2, 6):
        b = switch // (1 + a)
        for k2 in range(b - 20, b + 20):
            w = weight(kind, (a, k2))
            assert w <= weight(kind, (a, k2 + 1))
            assert w <= weight(kind, (a + 1, k2))
    assert ApproxNumber(2 ** 1000, 1.0).value() <= \
        ApproxNumber(2 ** 1000 - 1, 1.0).value()

# -- exact sharp spectrum ---------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_exact_an_sharp_staircase_head(d, s):
    # a_1 = 1; then 2d values at 2^-s; then 2d at 3^-s; then up to 4^-s
    assert exact_an_sharp(1, d, s).value() == 1.0
    for n in range(2, 2 * d + 2):
        assert exact_an_sharp(n, d, s).r == 2
    for n in range(2 * d + 2, 4 * d + 2):
        assert exact_an_sharp(n, d, s).r == 3
    last = 2 * d * d + 4 * d + 1  # C(4, d) = 1 + 2d + 2d + 2d + 2d(d-1)
    assert count_cross(4, d) == last
    for n in (4 * d + 2, last):
        assert exact_an_sharp(n, d, s).r == 4
    assert exact_an_sharp(last + 1, d, s).r == 5


def test_exact_an_sharp_windows_match_counts():
    d, s = 3, 1.0
    for r in (1, 2, 5, 17, 60):
        low, high = count_cross(r - 1, d) if r > 1 else 0, count_cross(r, d)
        assert exact_an_sharp(low + 1, d, s).r == r
        assert exact_an_sharp(high, d, s).r == r
        assert exact_an_sharp(high + 1, d, s).r == r + 1


def test_exact_an_sharp_values_are_log_space():
    step = exact_an_sharp(10 ** 6, 2, 2.5)
    assert step.value() == pytest.approx(float(step.r) ** -2.5, rel=1e-13)
    with pytest.raises(ValueError):
        exact_an_sharp(0, 2, 1.0)
    with pytest.raises(ValueError):
        exact_an_sharp(5, 2, -1.0)


def test_sharp_tables_check_the_guard_up_front():
    # the request is refused before any count or table entry is made
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        sharp_table(3, 1.0, 3 * 10 ** 8)
    assert info.value.requested == 3 * 10 ** 8
    with pytest.raises(ResourceLimitError) as info:
        breakpoints_sharp(3, 1.0, 10 ** 9)
    assert info.value.requested == 10 ** 9
    assert time.perf_counter() - started < 1.0


def test_breakpoints_sharp_structure():
    d, s = 2, 1.0
    staircase = breakpoints_sharp(d, s, 30)
    assert [b.r for b in staircase] == list(range(1, 31))
    assert [b.cumulative for b in staircase] == \
        [count_cross(r, d) for r in range(1, 31)]
    values = [b.value.value() for b in staircase]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sharp_table_matches_pointwise_queries():
    d, s = 2, 1.0
    table = sharp_table(d, s, 500)
    assert table.certification == "exact"
    assert len(table) == 500
    for n in (1, 2, 17, 69, 100, 499, 500):
        step = exact_an_sharp(n, d, s)
        assert table.sigma(n) == step.value()
        assert table.bases[n - 1] == step.r


# -- enumerated spectra -----------------------------------------------------

def test_rearranged_spectrum_sharp_cross_check():
    for d, s in ((1, 1.0), (2, 0.5), (3, 2.0)):
        table = rearranged_spectrum(WeightKind.sharp(s), d, 200)
        exact = sharp_table(d, s, 200)
        assert table.certification == "enumerated-certified"
        assert table.values == pytest.approx(exact.values, rel=1e-13)


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
def test_rearranged_spectrum_plus_head(s):
    # sigma_1 = 1, then 2d entries at 2^{-s/2} (the axis neighbours)
    d = 3
    table = rearranged_spectrum(WeightKind.plus(s), d, 2 * d + 2)
    assert table.sigma(1) == 1.0
    for n in range(2, 2 * d + 2):
        assert table.sigma(n) == pytest.approx(2.0 ** (-s / 2), rel=1e-14)
    assert table.sigma(2 * d + 2) < 2.0 ** (-s / 2) * (1 - 1e-9)


@functools.lru_cache(maxsize=None)
def _box_values(kind, d, box):
    # every 1/w over the box |k|_inf <= box, largest first, each paired
    # with its prod(1 + |k_j|)
    points = sorted(((1.0 / weight(kind, k), math.prod(1 + abs(kj) for kj in k))
                     for k in itertools.product(range(-box, box + 1), repeat=d)),
                    reverse=True)
    return [value for value, _ in points], [product for _, product in points]


def _outside_box(kind, d, box):
    # weights are monotone in each |k_j| with every factor >= 1, so no point
    # outside the box |k|_inf <= box has 1/w above this value
    return 1.0 / weight(kind, (box + 1,) + (0,) * (d - 1))


_BOX_CASES = ((2, 40, 50), (2, 40, 400), (3, 20, 300), (3, 20, 900))
_BOX_KINDS = (WeightKind.plus(1.0), WeightKind.star(0.7), WeightKind.integer_m(2))


def test_rearranged_spectrum_box_oracle():
    # independent oracle: collect 1/w over a box large enough to contain
    # every candidate, then compare the top slice value by value
    for d, box, n_max in _BOX_CASES:
        for kind in _BOX_KINDS:
            table = rearranged_spectrum(kind, d, n_max)
            values, products = _box_values(kind, d, box)
            assert _outside_box(kind, d, box) < values[n_max - 1]
            assert list(table.values) == values[:n_max], (kind.label(), d, n_max)
            # radius invariant: every box point above sigma_{n_max} lies in
            # N(radius, d), and N(radius, d) holds n_max points
            above = [p for v, p in zip(values, products) if v > table.values[-1]]
            assert max(above, default=1) <= table.radius, (kind.label(), d)
            assert count_cross(table.radius, d) >= n_max, (kind.label(), d)


# (d, box, tolerances); the box holds every value above each tolerance
_EXACT_CASES = ((2, 40, (0.4, 0.2, 0.12)), (3, 20, (0.4, 0.2, 0.12)),
                (4, 6, (0.4, 0.3, 0.25)), (5, 4, (0.4, 0.35)))


def test_exact_complexity_matches_box_oracle():
    for d, box, tolerances in _EXACT_CASES:
        for kind in _BOX_KINDS:
            values, _ = _box_values(kind, d, box)
            for eps in tolerances:
                assert _outside_box(kind, d, box) <= eps
                enc = info_complexity_bounds(kind, eps, d, exact=True)
                first = next(n for n, value in enumerate(values, start=1)
                             if value <= eps * (1.0 + 1e-12))
                assert enc.exact == first, (kind.label(), d, eps)


def test_rearranged_spectrum_monotone_and_certified():
    table = rearranged_spectrum(WeightKind.star(0.5), 2, 300)
    assert table.certification == "enumerated-certified"
    assert table.radius is not None
    assert all(a >= b for a, b in zip(table.values, table.values[1:]))


def test_rearranged_spectrum_guard():
    with pytest.raises(ResourceLimitError):
        rearranged_spectrum(WeightKind.plus(1.0), 2, 5000, max_enum=2000)


def test_spectrum_table_validation():
    kind = WeightKind.sharp(1.0)
    with pytest.raises(ValueError):
        SpectrumTable((0.9, 0.5), kind, 1, "exact")  # sigma_1 != 1
    with pytest.raises(ValueError):
        SpectrumTable((1.0, 0.5, 0.7), kind, 1, "exact")  # not sorted
    table = SpectrumTable((1.0, 0.5), kind, 1, "exact")
    with pytest.raises(IndexError):
        table.sigma(3)
    with pytest.raises(IndexError):
        table.sigma(0)


def test_approx_number_value():
    a = ApproxNumber(7, 1.5)
    assert a.value() == pytest.approx(7.0 ** -1.5, rel=1e-14)
    with pytest.raises(ValueError):
        ApproxNumber(0, 1.0)


# -- weight domination ------------------------------------------------------

def test_domination_high_smoothness_triangle():
    for s in (1.0, 2.5):
        for pair in (("sharp", "plus"), ("plus", "star"), ("sharp", "star")):
            report = verify_weight_domination(
                (WeightKind(pair[0], s), WeightKind(pair[1], s)), 2, 8)
            assert report.passed and report.counterexample is None, (pair, s)
            assert report.factor == 1.0


def test_domination_mid_smoothness_triangle():
    for s in (0.5, 0.75, 1.0):
        for pair in (("sharp", "star"), ("star", "plus"), ("sharp", "plus")):
            report = verify_weight_domination(
                (WeightKind(pair[0], s), WeightKind(pair[1], s)), 2, 8)
            assert report.passed, (pair, s)


def test_domination_low_smoothness_triangle():
    for s in (0.2, 0.5):
        for pair in (("star", "sharp"), ("sharp", "plus"), ("star", "plus")):
            report = verify_weight_domination(
                (WeightKind(pair[0], s), WeightKind(pair[1], s)), 3, 4)
            assert report.passed, (pair, s)


def test_domination_same_family_monotone():
    report = verify_weight_domination(
        (WeightKind.plus(2.0), WeightKind.plus(0.5)), 2, 10)
    assert report.passed
    assert report.regime == "same-family-monotone"
    with pytest.raises(UnsupportedRegimeError):
        verify_weight_domination(
            (WeightKind.plus(0.5), WeightKind.plus(2.0)), 2, 10)


def test_domination_plus_to_half_sharp():
    report = verify_weight_domination(
        (WeightKind.plus(1.4), WeightKind.sharp(0.7)), 2, 12)
    assert report.passed
    assert report.regime == "plus-to-half-sharp"


def test_domination_integer_m_chain():
    # intm(m) -> star(m) and plus(m) -> intm(m) at norm one,
    # intm(m) -> plus(m) with the aggregate factor (2^m/(m+1))^{d/2}
    for m in (1, 2, 3):
        one = verify_weight_domination(
            (WeightKind.integer_m(m), WeightKind.star(m)), 2, 8)
        assert one.passed and one.factor == 1.0
        two = verify_weight_domination(
            (WeightKind.plus(m), WeightKind.integer_m(m)), 2, 8)
        assert two.passed and two.factor == 1.0
        three = verify_weight_domination(
            (WeightKind.integer_m(m), WeightKind.plus(m)), 2, 8)
        assert three.passed
        assert three.factor == pytest.approx((2.0 ** m / (m + 1)) ** 1.0, rel=1e-14)
        assert three.regime == "intm-to-plus-bounded"


def test_domination_unsupported_pairs():
    with pytest.raises(UnsupportedRegimeError):
        verify_weight_domination(
            (WeightKind.plus(1.0), WeightKind.sharp(1.0)), 2, 5)
    with pytest.raises(UnsupportedRegimeError):
        verify_weight_domination(
            (WeightKind.sharp(1.0), WeightKind.star(0.6)), 2, 5)
    with pytest.raises(UnsupportedRegimeError):
        verify_weight_domination(
            (WeightKind.star(2.0), WeightKind.sharp(2.0)), 2, 5)  # high regime


def test_domination_boundary_smoothness_overlap():
    # s = 1/2 belongs to both the mid and low orderings; both directions
    # between sharp and star are norm-one there because the weights coincide
    forward = verify_weight_domination(
        (WeightKind.sharp(0.5), WeightKind.star(0.5)), 2, 6)
    backward = verify_weight_domination(
        (WeightKind.star(0.5), WeightKind.sharp(0.5)), 2, 6)
    assert forward.passed and backward.passed


def test_domination_counts_all_points():
    report = verify_weight_domination(
        (WeightKind.sharp(1.0), WeightKind.plus(1.0)), 2, 3)
    assert report.checked == 7 ** 2


def test_domination_failure_order_is_lexicographic():
    # s just below 1 still selects the high ordering (within 1e-12), where
    # plus(s) -> star(s) fails by a hair; checked and counterexample are
    # those of the lexicographic scan over the box
    s = 1.0 - 1e-12
    report = verify_weight_domination(
        (WeightKind.plus(s), WeightKind.star(s)), 3, 3)
    assert report.regime == "equal-smoothness-high"
    assert not report.passed
    assert report.checked == 115 and report.counterexample == (-1, -1, -1)
    s = 1.0 - 0.9e-12
    report = verify_weight_domination(
        (WeightKind.plus(s), WeightKind.star(s)), 4, 3)
    assert not report.passed
    assert report.checked == 115 and report.counterexample == (-3, -1, -1, -1)


# -- values past double range -------------------------------------------------

def test_weight_past_double_range_is_infinite():
    assert weight(WeightKind.plus(200.0), (50,)) == math.inf
    assert weight(WeightKind.star(200.0), (50,)) == math.inf
    assert weight(WeightKind.integer_m(200), (6,)) == math.inf
    assert weight(WeightKind.plus(1e300), (1,)) == math.inf
    assert weight(WeightKind.sharp(200.0), (100,)) == math.inf
    # below the overflow the factors are untouched
    assert weight(WeightKind.plus(200.0), (1,)) == 2.0 ** 100
    # a product past double range with s < 1000/1024 has a finite weight
    huge = weight(WeightKind.sharp(0.5), (2 ** 1100 - 1,))
    assert huge == pytest.approx(2.0 ** 550, rel=1e-12)


def test_sharp_values_where_float_radius_overflows():
    # float(r) overflows from 2^1024 - 2^970 on; below that the value is
    # still the enumeration arithmetic 1 / float(r) ** s, bit for bit
    below = 2 ** 1024 - 2 ** 971
    assert ApproxNumber(below, 0.5).value() == 1.0 / float(below) ** 0.5
    assert weight(WeightKind.sharp(0.5), (below - 1,)) == float(below) ** 0.5
    for r in (2 ** 1024 - 1, 2 ** 1024, 2 ** 1100):
        value = ApproxNumber(r, 0.5).value()
        assert math.isclose(value, 2.0 ** (-0.5 * math.log2(r)), rel_tol=1e-12)
        assert weight(WeightKind.sharp(0.5), (r - 1,)) == \
            pytest.approx(1.0 / value, rel=1e-12)
    step = exact_an_sharp(2 ** 1100, 1, 0.5)
    assert step.r == 2 ** 1099 + 1
    assert 0.0 < step.value() < 1e-160


@pytest.mark.parametrize("kind", [WeightKind.plus(200.0), WeightKind.star(200.0),
                                  WeightKind.integer_m(200), WeightKind.sharp(200.0),
                                  WeightKind.plus(1e300)])
def test_walk_past_double_range_stays_ordered(kind):
    table = rearranged_spectrum(kind, 1, 100)
    assert table.values[0] == 1.0 and table.values[-1] == 0.0
    assert all(math.isfinite(v) for v in table.values)


# -- argument rules -----------------------------------------------------------

def _s_entries():
    return {
        "WeightKind.sharp": lambda s: WeightKind.sharp(s),
        "WeightKind plus": lambda s: WeightKind("plus", s),
        "WeightKind.star": lambda s: WeightKind.star(s),
        "ApproxNumber": lambda s: ApproxNumber(3, s),
        "exact_an_sharp": lambda s: exact_an_sharp(5, 2, s),
        "sharp_table": lambda s: sharp_table(2, s, 5),
        "breakpoints_sharp": lambda s: breakpoints_sharp(2, s, 3),
        "bound_value": lambda s: bound_value(BoundFormula.P_SQUARED, 5, 2, s),
        "asymptotic_constant": lambda s: asymptotic_constant(2, s),
        "limit_ratio_trace": lambda s: limit_ratio_trace(2, s, [5]),
        "info_complexity_sharp": lambda s: info_complexity_sharp(0.5, 2, s),
        "qpt_constants": lambda s: qpt_constants(s),
        "qpt_certify s": lambda s: qpt_certify(s, [2], [0.5]),
        "qpt_certify t": lambda s: qpt_certify(1.0, [2], [0.5], t=s),
        "qpt_certify c_t": lambda s: qpt_certify(1.0, [2], [0.5], c_t=s),
    }


def _integer_entries():
    sharp, plus = WeightKind.sharp(1.0), WeightKind.plus(1.0)
    return {
        "count_cross r": lambda x: count_cross(x, 3),
        "count_cross d": lambda x: count_cross(7, x),
        "CrossSpec": lambda x: CrossSpec(x, x),
        "count_cross_bruteforce": lambda x: count_cross_bruteforce(9, x),
        "count_positive": lambda x: count_positive(9, x),
        "enumerate_cross": lambda x: list(enumerate_cross(4, x)),
        "enumerate_dyadic_cross": lambda x: sorted(enumerate_dyadic_cross(x, x)),
        "volume_exact": lambda x: volume_exact(5.0, x),
        "ApproxNumber r": lambda x: ApproxNumber(x, 1.5),
        "WeightKind.integer_m": lambda x: WeightKind.integer_m(x),
        "exact_an_sharp n": lambda x: exact_an_sharp(x, 2, 1.0),
        "exact_an_sharp d": lambda x: exact_an_sharp(9, x, 1.0),
        "sharp_table d": lambda x: sharp_table(x, 1.0, 7),
        "sharp_table n_max": lambda x: sharp_table(3, 1.0, x),
        "breakpoints_sharp": lambda x: breakpoints_sharp(x, 1.0, x),
        "rearranged_spectrum d": lambda x: rearranged_spectrum(plus, x, 7),
        "rearranged_spectrum n_max": lambda x: rearranged_spectrum(plus, 3, x),
        "verify_weight_domination": lambda x: verify_weight_domination(
            (sharp, plus), x, x),
        "bound_value": lambda x: bound_value(BoundFormula.PRE_LOWER_47, x, x, 1.0),
        "alpha_exponent": lambda x: alpha_exponent(x, x),
        "asymptotic_constant": lambda x: asymptotic_constant(x, 1.0),
        "limit_ratio_trace": lambda x: limit_ratio_trace(x, 1.0, [x, 10]),
        "info_complexity_sharp": lambda x: info_complexity_sharp(0.1, x, 1.0),
        "info_complexity_bounds": lambda x: info_complexity_bounds(
            plus, 0.3, x, exact=True),
        "qpt_certify": lambda x: qpt_certify(1.0, [x], [0.5]),
        "optimal_truncation n": lambda x: optimal_truncation(x, 3, 1.0),
        "optimal_truncation d": lambda x: optimal_truncation(7, x, 1.0),
    }


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf, 0.0, -1.0, "1"])
def test_smoothness_rules_refuse_non_finite(bad):
    for name, call in _s_entries().items():
        with pytest.raises(ValueError):
            call(bad)
            pytest.fail(f"{name} accepted {bad!r}")


def test_integer_rules_refuse_fractions_and_coerce_integral_floats():
    for name, call in _integer_entries().items():
        for bad in (2.5, math.nan, math.inf, "2"):
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"{name} accepted {bad!r}")
        assert repr(call(2.0)) == repr(call(2)), name


def test_tolerance_rules_refuse_outside_unit_interval():
    for bad in (0.0, 1.0, 1.5, -0.5, math.nan, math.inf, "0.5"):
        for call in (lambda e: info_complexity_sharp(e, 2, 1.0),
                     lambda e: info_complexity_bounds(WeightKind.plus(1.0), e, 2),
                     lambda e: qpt_certify(1.0, [2], [0.5, e])):
            with pytest.raises(ValueError):
                call(bad)


def test_qpt_certify_validates_whole_grid_before_counting(monkeypatch):
    calls = []
    real = tractability.info_complexity_sharp
    monkeypatch.setattr(tractability, "info_complexity_sharp",
                        lambda *a: calls.append(a) or real(*a))
    for d_grid, eps_grid in (([2, 3, 2.5], [0.5]), ([2, 3], [0.5, 0.25, 2.0]),
                             ([2, 0], [0.5])):
        with pytest.raises(ValueError):
            qpt_certify(1.0, d_grid, eps_grid)
    assert calls == []
