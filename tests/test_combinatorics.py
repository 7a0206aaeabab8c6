import math
import random
from fractions import Fraction

import pytest

from crossnum import (CrossSpec, GeneralizedWeightSeq, ResourceLimitError,
                      count_cross, count_cross_bruteforce, count_generalized,
                      count_positive, enumerate_cross, enumerate_dyadic_cross,
                      enumeration_guard, volume_bounds, volume_exact)
from crossnum.combinatorics import GUARD_ENV_VAR, _count_cross


# -- exact counts -----------------------------------------------------------

@pytest.mark.parametrize("r, d, expected", [
    (1, 7, 1),
    (2, 3, 7),
    (3, 1, 5),
    (3, 2, 9),
    (4, 2, 17),
    (4, 4, 49),
    (10, 2, 69),
])
def test_count_cross_known_values(r, d, expected):
    assert count_cross(r, d) == expected


@pytest.mark.parametrize("r, ell, expected", [
    (3, 1, 2),
    (4, 2, 1),
    (1, 3, 0),
    (10, 2, 8),
])
def test_count_positive_known_values(r, ell, expected):
    assert count_positive(r, ell) == expected


def test_count_cross_monotone_in_both_arguments():
    for d in (1, 2, 3, 5):
        values = [count_cross(r, d) for r in range(1, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))
    for r in (1, 7, 31):
        values = [count_cross(r, d) for d in range(1, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_count_cross_agrees_with_bruteforce_sweep():
    # the closed identity against the direct enumerator on a dense grid
    for d in (1, 2, 3):
        for r in range(1, 60):
            assert count_cross(r, d) == count_cross_bruteforce(r, d), (r, d)


def test_count_cross_agrees_with_bruteforce_sampled():
    rng = random.Random(20260819)
    for _ in range(25):
        d = rng.randint(1, 4)
        r = rng.randint(60, 300 if d < 4 else 120)
        assert count_cross(r, d) == count_cross_bruteforce(r, d), (r, d)


def test_count_cross_memo_cold_and_warm_match_bruteforce():
    # the memo of C(r, d) must serve the same counts it computed, and it
    # must stay bounded so a long-lived process cannot grow it without limit
    assert _count_cross.cache_info().maxsize is not None
    grid = [(r, d) for d in (1, 2, 3) for r in range(1, 40)]
    expected = {(r, d): count_cross_bruteforce(r, d) for r, d in grid}
    _count_cross.cache_clear()
    cold = {(r, d): count_cross(r, d) for r, d in grid}
    assert _count_cross.cache_info().hits == 0
    warm = {(r, d): count_cross(r, d) for r, d in grid}
    assert _count_cross.cache_info().hits == len(grid)
    assert cold == expected
    assert warm == expected


def test_count_cross_d1_closed_form():
    for r in range(1, 200):
        assert count_cross(r, 1) == 2 * r - 1


def test_count_cross_large_radius_fast():
    # far beyond the enumerable range; exactness carried by the recursion
    assert count_cross(10 ** 6, 2) == 51880137


def test_count_cross_dimension_slice_lower_bound():
    # at r = 2^d the count already dominates 3^d + d 4^d - (4/3) d 3^d
    for d in range(2, 11):
        floor_term = 3 ** d + d * 4 ** d - (4 * d * 3 ** d) // 3
        assert count_cross(2 ** d, d) >= floor_term, d


def test_count_validation():
    with pytest.raises(ValueError):
        count_cross(0, 3)
    with pytest.raises(ValueError):
        count_cross(5, 0)
    with pytest.raises(ValueError):
        count_positive(5, 0)
    assert count_positive(0, 2) == 0


def test_bruteforce_guard_refuses_early():
    with pytest.raises(ResourceLimitError) as info:
        count_cross_bruteforce(10 ** 6, 3, max_enum=10 ** 6)
    assert info.value.limit == 10 ** 6
    assert info.value.requested > 10 ** 6


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv(GUARD_ENV_VAR, "123")
    assert enumeration_guard() == 123
    assert enumeration_guard(77) == 77  # explicit argument wins
    monkeypatch.setenv(GUARD_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        enumeration_guard()


# -- enumeration ------------------------------------------------------------

def test_enumerate_cross_order_and_membership():
    r, d = 12, 3
    points = list(enumerate_cross(r, d))
    assert len(points) == count_cross(r, d)
    assert len(set(points)) == len(points)
    keyed = [(math.prod(1 + abs(k) for k in p), p) for p in points]
    assert keyed == sorted(keyed)
    assert all(key[0] <= r for key in keyed)


def test_enumerate_cross_prefix_property():
    # prefixes of the stream are exactly the smaller crosses
    d = 2
    stream = list(enumerate_cross(9, d))
    for r in range(1, 10):
        assert set(stream[:count_cross(r, d)]) == set(enumerate_cross(r, d))


def test_enumerate_cross_first_shells():
    points = list(enumerate_cross(2, 3))
    assert points[0] == (0, 0, 0)
    assert points[1:] == [(-1, 0, 0), (0, -1, 0), (0, 0, -1),
                          (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_dyadic_cross_small():
    # m = 0: the single box |k_j| <= 1
    assert enumerate_dyadic_cross(0, 2) == {
        (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)}
    # m = 1, d = 1: just |k| <= 2
    assert enumerate_dyadic_cross(1, 1) == {(k,) for k in range(-2, 3)}


def test_enumerate_dyadic_cross_union_structure():
    m, d = 3, 2
    points = enumerate_dyadic_cross(m, d)
    expected = set()
    for u1 in range(m + 1):
        u2 = m - u1
        for k1 in range(-(1 << u1), (1 << u1) + 1):
            for k2 in range(-(1 << u2), (1 << u2) + 1):
                expected.add((k1, k2))
    assert points == expected


def test_enumerate_dyadic_cross_guard():
    with pytest.raises(ResourceLimitError):
        enumerate_dyadic_cross(30, 4, max_enum=1000)


def test_dyadic_cross_nested_in_cross():
    # every dyadic point satisfies prod (1 + |k_j|) <= prod (2^{u_j} + 1)
    # <= 3 * 2^m for d = 2, so H(m, 2) sits inside N(3 * 2^m, 2)
    m = 3
    cross = set(enumerate_cross(3 * 2 ** m, 2))
    assert enumerate_dyadic_cross(m, 2) <= cross


# -- volumes ----------------------------------------------------------------

def test_volume_exact_known_values():
    assert volume_exact(10, 2) == pytest.approx(14.025850929940459, rel=1e-15)
    assert volume_exact(50, 3) == pytest.approx(235.99694960356928, rel=1e-14)
    assert volume_exact(100, 4) == pytest.approx(928.8802703379108, rel=1e-14)


def test_volume_exact_base_cases():
    assert volume_exact(1, 5) == 0.0
    for r in (1.5, 2, 10, 123.25):
        assert volume_exact(r, 1) == pytest.approx(r - 1, rel=1e-15)
    with pytest.raises(ValueError):
        volume_exact(0.5, 2)
    with pytest.raises(ValueError):
        volume_exact(10, 0)


@pytest.mark.parametrize("volume", [volume_exact, volume_bounds])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.999, 0,
                                 10 ** 400, "2"])
def test_volume_radius_must_be_finite_and_at_least_one(volume, bad):
    with pytest.raises(ValueError, match="radius r"):
        volume(bad, 2)
    assert volume(1, 2) == volume(1.0, 2)


def test_volume_recursion_against_quadrature():
    # v_{l+1}(r) = r * int_1^r v_l(s)/s^2 ds, checked level by level with
    # adaptive quadrature; this validates every step of the derivation
    quad = pytest.importorskip("scipy.integrate").quad
    for r in (2.0, 10.0, 100.0, 1000.0, 10000.0):
        for ell in range(1, 7):
            integral, err = quad(
                lambda u, ell=ell: volume_exact(u, ell) / (u * u), 1.0, r,
                epsabs=1e-14, epsrel=1e-12, limit=400)
            closed = volume_exact(r, ell + 1)
            assert closed == pytest.approx(r * integral, rel=1e-9), (r, ell)


def test_volume_bounds_sandwich_exact():
    assert volume_bounds(10, 2) == pytest.approx(
        (13.02585092994046, 23.02585092994046), rel=1e-15)
    for r in (1.5, 2, 10, 100, 1e4):
        for ell in range(1, 8):
            low, high = volume_bounds(r, ell)
            value = volume_exact(r, ell)
            assert low <= value <= high, (r, ell)


def test_volume_sandwiches_positive_count():
    # 2^ell v_ell(r / 2^ell) <= A(r, ell) <= v_ell(r) whenever r >= 2^ell
    for r in (2, 10, 100, 1000, 10000):
        for ell in range(1, 7):
            if r < 2 ** ell:
                continue
            count = count_positive(r, ell)
            assert count <= volume_exact(float(r), ell) + 1e-9, (r, ell)
            scaled = r / 2 ** ell
            if scaled >= 1:
                lower = 2 ** ell * volume_exact(scaled, ell)
                assert lower <= count + 1e-9, (r, ell)


# -- generalized counts -----------------------------------------------------

def test_count_generalized_reproduces_cross_counts():
    # b_l = 1/(1 + |l|) with threshold 1/r is the cross in disguise;
    # Fractions make every tie exact
    seq = GeneralizedWeightSeq(lambda level: Fraction(1, 1 + abs(level)),
                               envelope=1.0)
    for d in (1, 2, 3):
        for r in (1, 2, 5, 12):
            assert count_generalized(seq, Fraction(1, r), d) == count_cross(r, d)


def test_count_generalized_includes_boundary_ties():
    # b_l = (1 + l^2)^{-1/2}, eps = 1/2, d = 2: the origin, four axis
    # neighbours and four diagonal points whose product is exactly 1/2
    sympy = pytest.importorskip("sympy")
    seq = GeneralizedWeightSeq(
        lambda level: 1 / sympy.sqrt(1 + sympy.Integer(level) ** 2),
        envelope=2.0)
    assert count_generalized(seq, sympy.Rational(1, 2), 2) == 9


def test_count_generalized_float_path_matches_exact_path():
    seq_float = GeneralizedWeightSeq(lambda level: (1 + level * level) ** -0.5,
                                     envelope=2.0)
    sympy = pytest.importorskip("sympy")
    seq_exact = GeneralizedWeightSeq(
        lambda level: 1 / sympy.sqrt(1 + sympy.Integer(level) ** 2),
        envelope=2.0)
    # thresholds chosen away from exact product values: the two paths agree
    for eps in (0.3, 0.11, 0.07):
        assert count_generalized(seq_float, eps, 2) == \
            count_generalized(seq_exact, sympy.Float(eps), 2)


def test_count_generalized_monotone_in_eps():
    seq = GeneralizedWeightSeq(lambda level: 1.0 / (1 + abs(level)) ** 1.5,
                               envelope=1.0)
    counts = [count_generalized(seq, eps, 2)
              for eps in (0.5, 0.2, 0.1, 0.05, 0.02)]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_generalized_envelope_estimation():
    # no envelope passed: the scan finds sup (1+|l|) b_l for this sequence
    seq = GeneralizedWeightSeq(lambda level: 1.0 / (1 + abs(level)))
    assert seq.resolved_envelope() == pytest.approx(1.0)
    assert count_generalized(seq, 1.0 / 7, 2) == count_cross(7, 2)


def test_count_generalized_validation():
    seq = GeneralizedWeightSeq(lambda level: 1.0 / (1 + abs(level)))
    with pytest.raises(ValueError):
        count_generalized(seq, 0.0, 2)
    with pytest.raises(ValueError):
        count_generalized(seq, 1.5, 2)
    with pytest.raises(ValueError):
        GeneralizedWeightSeq(lambda level: 0.5)  # b_0 != 1
    with pytest.raises(ValueError):
        GeneralizedWeightSeq(lambda level: 1.0 if level >= 0 else 0.5)


def test_count_generalized_guard():
    seq = GeneralizedWeightSeq(lambda level: 1.0 / (1 + abs(level)),
                               envelope=1.0)
    with pytest.raises(ResourceLimitError):
        count_generalized(seq, 1e-6, 2, max_enum=10 ** 4)


# -- specs and exports ------------------------------------------------------

def test_cross_spec_validation_and_helpers():
    spec = CrossSpec(4, 2)
    assert spec.count() == 17
    assert len(list(spec.points())) == 17
    with pytest.raises(ValueError):
        CrossSpec(0, 2)
    with pytest.raises(ValueError):
        CrossSpec(3, -1)
