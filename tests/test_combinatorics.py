import inspect
import math
import random
import sys
import threading
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from crossnum import (BoundFormula, CoefficientModel, CrossSpec,
                      GeneralizedWeightSeq, ResourceLimitError, WeightKind,
                      count_cross, count_cross_bruteforce, count_generalized,
                      count_positive, enumerate_cross, enumerate_dyadic_cross,
                      enumeration_guard, info_complexity_bounds,
                      optimal_truncation, rearranged_spectrum, truncation_error,
                      verify_bound, verify_weight_domination, volume_bounds,
                      volume_exact)
from crossnum import combinatorics
from crossnum.combinatorics import (ENUM_GUARD_DEFAULT, GUARD_ENV_VAR, _count_cross,
                                    _guard_override)


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


# -- level vectors against the divisor recursion ------------------------------

@lru_cache(maxsize=None)
def _recursive_positive_count(r, ell):
    # The former A(r, ell) of combinatorics, kept as a differential oracle:
    # a sum over the first factor u = 1 + k_1 <= r >> (ell - 1), with
    # consecutive u of the same quotient r // u folded into one block.
    if r < (1 << ell):
        return 0
    if ell == 1:
        return r - 1
    cap = r >> (ell - 1)
    total = 0
    u = 2
    while u <= cap:
        q = r // u
        u_hi = min(cap, r // q)
        total += (u_hi - u + 1) * _recursive_positive_count(q, ell - 1)
        u = u_hi + 1
    return total


def _split_edges(k):
    # radii where the table size T changes (r^2 passes 8^k) or the number
    # of large quotients r // (T + 1) does
    r = math.isqrt(8 ** k)
    edges = {r - 1, r, r + 1}
    size = combinatorics._table_size(r + 1)
    for m in (1, 2, 3):
        edges |= {m * (size + 1) - 1, m * (size + 1), m * (size + 1) + 1}
    return [e for e in edges if 8 <= e <= 1 << 18]


_EDGES = sorted({(1 << k) + e for k in range(3, 19) for e in (-1, 0, 1)}
                | {e for k in range(2, 13) for e in _split_edges(k)}
                | {4095, 4096, 4097})
LEVELS = settings(max_examples=120, deadline=None, database=None, derandomize=True)


@LEVELS
@given(st.one_of(st.sampled_from(_EDGES), st.integers(8, 1 << 18)),
       st.booleans(), st.booleans())
@example(10 ** 6, True, True)
@example((1 << 20) + 1, False, True)
def test_level_vector_matches_recursion(forget, r, cold, shallow_first):
    # every depth 1..floor(log2 r), asked shallow first (the kept vector is
    # then extended to full depth) or deepest first, on cold or warm caches
    if cold:
        forget()
    full = r.bit_length() - 1
    expected = [_recursive_positive_count(r, ell) for ell in range(1, full + 1)]
    order = range(1, full + 1) if shallow_first else range(full, 0, -1)
    for ell in order:
        assert count_positive(r, ell) == expected[ell - 1], (r, ell)
    assert combinatorics._levels[r][:full] == tuple(expected)
    for depth in range(2, full + 1):
        assert combinatorics._level_vector(r, depth) == tuple(expected[:depth])


def _entries_visited(r, depth):
    # The entries the loops of _level_vector visit at depth >= 3, read off
    # their ranges, as (sieve, sums).  The sieve: S_1, then per level its
    # differences and prefix sums and one entry per (u, k) with u k <= T.
    # The sums: level 1 at the large quotients (with none, the tables'
    # levels are read at r), then per level, at each m, the factors
    # u <= u0 read from the level below, the single factors up to isqrt(q)
    # and the blocks.
    size = combinatorics._table_size(r)
    levels = combinatorics._table_levels(size, depth)
    sieve = size + 1
    for ell in range(2, levels + 1):
        lowest = 1 << (ell - 1)
        sieve += 3 * size + 3 + sum(size // u - lowest + 1
                                    for u in range(2, size // lowest + 1))
    large = r // (size + 1)
    sums = large or levels
    for ell in range(2 if large else levels + 1, depth + 1):
        lowest = 1 << (ell - 1)
        top = max(1, min(large, r >> ell)) if ell < depth else 1
        for m in range(1, top + 1):
            q, u0 = r // m, large // m
            sums += u0
            if ell - 2 < levels:
                s = math.isqrt(q)
                sums += max(0, min(s, q >> (ell - 1)) - max(u0, 1))
                far = q // (s + 1)
                sums += max(0, far - lowest + 2)
    return sieve, sums


def test_counting_estimate_bounds_the_work():
    # the guard's estimate bounds the entries the loops visit, the sieve's
    # and the sums' share each; depth 2 visits isqrt(r) - 1 quotients
    grid = [(r, depth) for r in (8, 100, 3000, 4096, 4097, 10 ** 4, 65537,
                                 3 * 10 ** 5, 10 ** 6, 10 ** 7)
            for depth in range(3, min(r.bit_length(), 12))]
    for r, depth in grid:
        size = combinatorics._table_size(r)
        sieve, sums = _entries_visited(r, depth)
        sieve_bound = combinatorics._sieve_work(size, combinatorics._table_levels(size, depth))
        sums_bound = combinatorics._sums_work(r, size, depth)
        assert 0 < sieve <= sieve_bound and 0 < sums <= sums_bound, (r, depth)
        assert combinatorics._counting_work(r, depth) == sieve_bound + sums_bound
    for r in (8, 100, 10 ** 7):
        assert combinatorics._counting_work(r, 2) >= math.isqrt(r) - 1


def test_counting_guard_refuses_before_work(monkeypatch, forget):
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    started = time.perf_counter()
    with pytest.raises(ResourceLimitError) as info:
        count_cross(10 ** 12, 3)
    assert info.value.limit == ENUM_GUARD_DEFAULT < info.value.requested
    with pytest.raises(ResourceLimitError):
        count_positive(2 ** 1000, 2)
    assert time.perf_counter() - started < 5.0
    monkeypatch.setenv(GUARD_ENV_VAR, "1000")
    forget()
    with pytest.raises(ResourceLimitError) as info:
        count_cross(10 ** 5, 3)
    assert info.value.limit == 1000 < info.value.requested
    # depth 1 is a closed form and never held against the guard
    monkeypatch.setenv(GUARD_ENV_VAR, "1")
    assert count_cross(2 ** 1100, 1) == 2 ** 1101 - 1
    assert count_cross(3, 9) == 1 + 2 * 9 * 2


def test_guard_override_reaches_counting(monkeypatch, forget):
    # a caller's max_enum lowers or lifts the guard on counting work as it
    # does on enumeration, and wins over the environment
    expected = 1 + sum((1 << ell) * math.comb(3, ell) * _recursive_positive_count(10 ** 5, ell)
                       for ell in range(1, 4))
    monkeypatch.setenv(GUARD_ENV_VAR, "10")
    forget()
    with pytest.raises(ResourceLimitError):
        count_cross(10 ** 5, 3)
    with _guard_override(10 ** 7):
        assert enumeration_guard() == 10 ** 7 and enumeration_guard(77) == 77
        assert count_cross(10 ** 5, 3) == expected
    assert enumeration_guard() == 10
    monkeypatch.delenv(GUARD_ENV_VAR)
    forget()
    with _guard_override(50), pytest.raises(ResourceLimitError) as info:
        count_cross(10 ** 5, 3)
    assert info.value.limit == 50
    # library calls pass their max_enum on to the counts they make
    operator = optimal_truncation(5000, 3, 1.0)
    for call in (lambda: info_complexity_bounds(WeightKind.plus(2.0), 1e-3, 3, max_enum=50),
                 lambda: verify_bound(BoundFormula("p-squared"), 3, 1.0, [5000], max_enum=50),
                 lambda: optimal_truncation(5000, 3, 1.0, max_enum=50),
                 lambda: truncation_error(CoefficientModel(lambda k: 1.0, 1.0, 1.0),
                                          operator, 3 * operator.r, max_enum=50)):
        forget()  # a kept staircase step would answer without counting
        with pytest.raises(ResourceLimitError, match="counting A") as info:
            call()
        assert info.value.limit == 50
    assert info_complexity_bounds(WeightKind.plus(2.0), 1e-3, 3).lower > 1


@lru_cache(maxsize=None)
def _operator():
    return optimal_truncation(5000, 3, 1.0)


_SEQ = GeneralizedWeightSeq(lambda level: 1.0 / (1 + abs(level)), envelope=1.0)
_MODEL = CoefficientModel(lambda k: 1.0, 1.0, 1.0)

# (function, call, limit): each call is refused at that limit, by its own
# check, by the best-first walk or by a count
_REFUSALS = [
    (count_cross_bruteforce, lambda **kw: count_cross_bruteforce(100, 3, **kw), 1000),
    (enumerate_dyadic_cross, lambda **kw: enumerate_dyadic_cross(30, 4, **kw), 1000),
    (count_generalized, lambda **kw: count_generalized(_SEQ, 1e-6, 2, **kw), 10 ** 4),
    (rearranged_spectrum,
     lambda **kw: rearranged_spectrum(WeightKind.plus(1.0), 2, 5000, **kw), 2000),
    (verify_weight_domination,
     lambda **kw: verify_weight_domination((WeightKind.sharp(2.0), WeightKind.sharp(1.0)),
                                           3, 10, **kw), 1000),
    (info_complexity_bounds,
     lambda **kw: info_complexity_bounds(WeightKind.plus(1.0), 0.01, 2, exact=True, **kw), 100),
    (info_complexity_bounds,
     lambda **kw: info_complexity_bounds(WeightKind.plus(2.0), 1e-3, 3, **kw), 50),
    (verify_bound,
     lambda **kw: verify_bound(BoundFormula("plus-upper-49"), 1, 1.0, [100], **kw), 50),
    (verify_bound,
     lambda **kw: verify_bound(BoundFormula("p-squared"), 3, 1.0, [5000], **kw), 50),
    (optimal_truncation, lambda **kw: optimal_truncation(10 ** 6, 2, 1.0, **kw), 100),
    (optimal_truncation, lambda **kw: optimal_truncation(5000, 3, 1.0, **kw), 50),
    (truncation_error, lambda **kw: truncation_error(_MODEL, _operator(), 10 ** 5, **kw), 1000),
    (truncation_error,
     lambda **kw: truncation_error(_MODEL, _operator(), 3 * _operator().r, **kw), 50),
]


@pytest.mark.parametrize("function, call, limit", _REFUSALS,
                         ids=[f"{case[0].__name__}-{case[2]}" for case in _REFUSALS])
def test_max_enum_equals_an_enclosing_block(function, call, limit, monkeypatch, forget):
    # passing max_enum = L and calling inside _guard_override(L) refuse alike:
    # same message, requested and limit; the environment reaches no check
    _operator()
    monkeypatch.setenv(GUARD_ENV_VAR, "7")
    refusals = []
    for route in ("keyword", "block"):
        forget()  # a kept count or staircase step would answer unguarded
        with pytest.raises(ResourceLimitError) as info:
            if route == "keyword":
                call(max_enum=limit)
            else:
                with _guard_override(limit):
                    call()
        refusals.append((str(info.value), info.value.requested, info.value.limit))
    assert refusals[0] == refusals[1] and refusals[0][2] == limit


def test_every_max_enum_parameter_is_covered():
    # each public callable that takes max_enum is among the nine above
    import crossnum

    takers = set()
    for name in crossnum.__all__:
        obj = getattr(crossnum, name)
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        if "max_enum" in parameters:
            takers.add(obj)
    assert takers == {function for function, _, _ in _REFUSALS}
    assert len(takers) == 9


def test_counting_caches_stay_bounded(forget):
    # each radius uses the tables of its own size T; the two sizes used
    # last are kept, so 10^5 + 1, of the size of 10^5, keeps that one
    forget()
    for r in (10 ** 5, 10 ** 6, 10 ** 5 + 1, 10 ** 7):
        count_cross(r, 3)
        assert len(combinatorics._tables) <= 2
    size = combinatorics._table_size
    assert size(10 ** 5) == size(10 ** 5 + 1) != size(10 ** 6)
    assert list(combinatorics._tables) == [size(10 ** 5), size(10 ** 7)]
    for r in range(10 ** 4, 10 ** 4 + 600):
        count_cross(r, 4)
    assert len(combinatorics._levels) == 256


def test_level_caches_under_thread_switching(forget):
    # more threads than cores share the tables and the kept vectors, asking
    # radii on both sides of the table floor at growing depths
    forget()
    radii = [r for r in range(3000, 9000, 97)]
    expected = {(r, d): 1 + sum((1 << ell) * math.comb(d, ell) * _recursive_positive_count(r, ell)
                                for ell in range(1, min(d, r.bit_length() - 1) + 1))
                for r in radii for d in (3, 5, 8)}
    errors = []

    def walk(offset):
        try:
            for d in (3, 5, 8):
                for r in radii[offset::3]:
                    if count_cross(r, d) != expected[r, d]:
                        errors.append((r, d))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=walk, args=(i % 3,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(combinatorics._levels) <= 256 and len(combinatorics._tables) <= 2


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


def test_trailing_zeros_end_the_recursion():
    # with only zeros left to place, the recursions stop at once, so a
    # dimension far past the recursion limit still ends
    assert list(enumerate_cross(1, 3000)) == [(0,) * 3000]
    assert count_cross_bruteforce(1, 5000) == 1
    with pytest.raises(ResourceLimitError):  # 3^5000 points in its one box
        enumerate_dyadic_cross(0, 5000)
    operator = optimal_truncation(3, 2000, 1.0)
    assert operator.rank == 1 and operator.indices == ((0,) * 2000,)


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
