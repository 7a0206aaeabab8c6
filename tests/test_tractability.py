import json
import math
import random
import time

import pytest

from crossnum import (ComplexityEnclosure, QptCertificate, ResourceLimitError,
                      WeightKind, count_cross, exact_an_sharp,
                      info_complexity_bounds, info_complexity_sharp,
                      qpt_certify, qpt_constants)
from crossnum.cli import _certificate_record
from crossnum.spectra import rearranged_spectrum


# -- exact sharp complexity ---------------------------------------------------

def test_known_complexities():
    assert info_complexity_sharp(0.5, 1, 1.0) == 2
    assert info_complexity_sharp(0.5, 7, 1.0) == 2  # C(1, d) = 1 for every d
    assert info_complexity_sharp(0.3333334, 2, 1.0) == 6
    assert info_complexity_sharp(0.34, 2, 1.0) == 6
    assert info_complexity_sharp(0.3333332, 2, 1.0) == 10  # next window


def test_boundary_tie_policy():
    # 1/3 in floating point lands within the relative tie tolerance of the
    # exact breakpoint 3^{-1}, so the boundary resolves to the cheaper side
    assert info_complexity_sharp(1.0 / 3.0, 2, 1.0) == 6
    assert info_complexity_sharp(0.25, 4, 1.0) == count_cross(3, 4) + 1
    # eps within 1e-12 of 1 counts as reachable by the constant alone
    assert info_complexity_sharp(1.0 - 1e-13, 3, 1.0) == 1


def test_complexity_matches_spectrum():
    rng = random.Random(41)
    for _ in range(60):
        d = rng.randint(1, 3)
        s = rng.choice([0.5, 1.0, 2.0])
        eps = rng.uniform(0.01, 0.9)
        if abs(eps ** (-1.0 / s) - round(eps ** (-1.0 / s))) < 1e-9:
            continue  # stay clear of breakpoint ties
        n = info_complexity_sharp(eps, d, s)
        assert exact_an_sharp(n, d, s).value() <= eps
        if n > 1:
            assert exact_an_sharp(n - 1, d, s).value() > eps


def test_complexity_monotonicity():
    eps_grid = [0.7, 0.5, 0.3, 0.1, 0.03, 0.01]
    for d in (1, 2, 4):
        values = [info_complexity_sharp(eps, d, 1.0) for eps in eps_grid]
        assert values == sorted(values)
    for eps in (0.4, 0.09):
        values = [info_complexity_sharp(eps, d, 1.0) for d in range(1, 8)]
        assert values == sorted(values)


def test_complexity_validation():
    with pytest.raises(ValueError):
        info_complexity_sharp(0.0, 2, 1.0)
    with pytest.raises(ValueError):
        info_complexity_sharp(1.0, 2, 1.0)
    with pytest.raises(ValueError):
        info_complexity_sharp(0.5, 0, 1.0)
    with pytest.raises(ValueError):
        info_complexity_sharp(0.5, 2, -1.0)


def test_complexity_radius_beyond_double_range_is_resource_limit():
    # eps^(-1/s) = 1e3000 overflows a double: refused, not a traceback
    with pytest.raises(ResourceLimitError):
        info_complexity_sharp(1e-300, 2, 0.1)


def test_complexity_huge_radius_is_exact_integer():
    n = info_complexity_sharp(1e-3, 3, 0.5)  # r* = 10^6
    assert n == count_cross(10 ** 6 - 1, 3) + 1
    assert n > 10 ** 8  # far past anything an enumerated spectrum reaches


# -- enclosures ---------------------------------------------------------------

def test_enclosure_validation():
    with pytest.raises(ValueError):
        ComplexityEnclosure(5, 4)
    with pytest.raises(ValueError):
        ComplexityEnclosure(2, 8, exact=9)


def test_sharp_enclosure_collapses():
    enc = info_complexity_bounds(WeightKind.sharp(1.0), 0.2, 2)
    assert enc.lower == enc.upper == enc.exact == info_complexity_sharp(0.2, 2, 1.0)


def test_enclosure_endpoints_follow_sharp():
    eps, d = 0.15, 2
    n_of = lambda s: info_complexity_sharp(eps, d, s)
    enc = info_complexity_bounds(WeightKind.plus(1.0), eps, d)
    assert (enc.lower, enc.upper) == (n_of(1.0), n_of(0.5))
    enc = info_complexity_bounds(WeightKind.star(2.0), eps, d)
    assert (enc.lower, enc.upper) == (n_of(2.0), n_of(0.5))
    enc = info_complexity_bounds(WeightKind.star(0.3), eps, d)
    assert (enc.lower, enc.upper) == (n_of(0.5), n_of(0.3))
    enc = info_complexity_bounds(WeightKind.integer_m(2), eps, d)
    assert (enc.lower, enc.upper) == (n_of(2.0), n_of(0.5))


def test_exact_resolution_within_enclosure():
    for kind in (WeightKind.plus(1.0), WeightKind.star(0.7),
                 WeightKind.integer_m(2)):
        for eps in (0.4, 0.2, 0.09):
            enc = info_complexity_bounds(kind, eps, 2, exact=True)
            assert enc.exact is not None
            assert enc.lower <= enc.exact <= enc.upper
            table = rearranged_spectrum(kind, 2, enc.upper)
            assert table.sigma(enc.exact) <= eps * (1.0 + 1e-12)
            if enc.exact > 1:
                assert table.sigma(enc.exact - 1) > eps


def test_families_coincide_at_smoothness_one():
    # plus(1), star(1) and the m = 1 polynomial weight are the same weight,
    # so their exact complexities agree point for point
    for eps in (0.5, 0.25, 0.11):
        results = [
            info_complexity_bounds(kind, eps, 2, exact=True)
            for kind in (WeightKind.plus(1.0), WeightKind.star(1.0),
                         WeightKind.integer_m(1))
        ]
        assert len({(e.lower, e.upper, e.exact) for e in results}) == 1


def test_exact_resolution_guard():
    # the walk pops more than 100 vectors before any value reaches eps
    with pytest.raises(ResourceLimitError):
        info_complexity_bounds(WeightKind.plus(1.0), 0.01, 2, exact=True,
                               max_enum=100)


def test_exact_resolution_is_not_held_to_the_enclosure_upper_end():
    # the upper end (686,598,654) exceeds the default guard, the walk's
    # work does not
    enc = info_complexity_bounds(WeightKind.plus(1.0), 1e-3, 3, exact=True)
    assert (enc.lower, enc.exact, enc.upper) == (155958, 249968, 686598654)


@pytest.mark.parametrize("d", [4, 6, 12])
def test_exact_resolution_refuses_over_guard_walk(d):
    began = time.perf_counter()
    with pytest.raises(ResourceLimitError) as refusal:
        info_complexity_bounds(WeightKind.plus(1.0), 1e-3, d, exact=True,
                               max_enum=10_000)
    assert time.perf_counter() - began < 5.0
    assert refusal.value.limit == 10_000 < refusal.value.requested


# -- quasi-polynomial certificates --------------------------------------------

def test_qpt_constants_shape():
    t, c_t = qpt_constants(1.0)
    assert t == 8.0 and c_t == pytest.approx(math.exp(2.0), rel=1e-15)
    assert qpt_constants(4.0)[0] == 2.0
    with pytest.raises(ValueError):
        qpt_constants(0.0)


DEFAULT_D_GRID = (1, 2, 4, 8, 16, 32, 64)
DEFAULT_EPS_GRID = (0.5, 0.25, 0.1, 0.01, 0.001)


def test_qpt_default_pair_passes():
    cert = qpt_certify(1.0, DEFAULT_D_GRID, DEFAULT_EPS_GRID)
    assert isinstance(cert, QptCertificate)
    assert cert.passed and not cert.violations
    assert cert.slack < 0.0
    assert cert.worst_point in cert.grid
    assert max(cert.per_point_t) < cert.t


def test_qpt_weak_pair_fails():
    cert = qpt_certify(1.0, DEFAULT_D_GRID, DEFAULT_EPS_GRID, t=0.01, c_t=1.0)
    assert not cert.passed
    assert cert.violations and cert.worst_point in cert.violations
    assert cert.slack > 0.0


def test_qpt_per_point_exponent_is_minimal():
    cert = qpt_certify(1.0, (2, 8), (0.3, 0.05))
    ln_ct = math.log(cert.c_t)
    for (eps, d), t_min in zip(cert.grid, cert.per_point_t):
        n = info_complexity_sharp(eps, d, cert.s)
        scale = math.log(1.0 / eps) * (1.0 + math.log(d))
        assert math.log(n) - ln_ct - t_min * scale <= 1e-12
        if t_min > 0.0:
            loosened = 0.999 * t_min
            assert math.log(n) - ln_ct - loosened * scale > 0.0


def test_qpt_validation():
    with pytest.raises(ValueError):
        qpt_certify(1.0, (), (0.5,))
    with pytest.raises(ValueError):
        qpt_certify(1.0, (2,), (0.5,), t=-1.0, c_t=2.0)
    with pytest.raises(ValueError):
        qpt_certify(1.0, (0,), (0.5,))


def test_weak_growth_profile_frozen():
    # ln n(1/d, d) / (2d) first rises then falls; the turn is the footprint
    # of the preasymptotic regime giving way to the curse-free tail
    profile = {}
    for d in (2, 4, 8, 16, 32):
        n = info_complexity_sharp(1.0 / d, d, 1.0)
        profile[d] = math.log(n) / (2.0 * d)
    assert profile[2] == pytest.approx(0.173, abs=1e-3)
    assert profile[4] == pytest.approx(0.361, abs=1e-3)
    assert profile[8] == pytest.approx(0.380, abs=1e-3)
    assert profile[16] == pytest.approx(0.318, abs=1e-3)
    assert profile[32] == pytest.approx(0.238, abs=1e-3)
    assert profile[8] > profile[16] > profile[32]


# -- records --------------------------------------------------------------------

def test_certificate_record_round_trip():
    cert = qpt_certify(2.0, (1, 4), (0.5, 0.1))
    record = json.loads(json.dumps(_certificate_record(cert)))
    assert record["s"] == 2.0 and record["t"] == 4.0
    assert record["C_t"] == pytest.approx(math.exp(2.0))
    assert record["pass"] is True and record["violations"] == []
    assert record["worst_point"] == list(cert.worst_point)
    assert len(record["grid"]) == len(record["per_point_t"]) == 4
