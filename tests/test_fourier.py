import math
from fractions import Fraction

import pytest

from crossnum import (CoefficientModel, ResourceLimitError, count_cross,
                      enumerate_cross, exact_an_sharp, optimal_truncation,
                      truncation_error, worst_case_witness)
from crossnum.fourier import TruncationOperator, _tail_bound


def product_weight(k):
    p = 1
    for kj in k:
        p *= 1 + abs(kj)
    return p


def saturating_model(rate=1.0):
    return CoefficientModel(lambda k: product_weight(k) ** -rate, 1.0, rate)


# -- operator structure -------------------------------------------------------

@pytest.mark.parametrize("n,d,s", [(2, 1, 1.0), (5, 1, 2.0), (7, 2, 1.0),
                                   (50, 2, 0.75), (11, 5, 2.0), (200, 3, 1.0)])
def test_optimal_truncation_structure(n, d, s):
    op = optimal_truncation(n, d, s)
    assert op.rank == len(op.indices) == count_cross(op.r - 1, d) if op.r > 1 else op.rank == 0
    assert op.rank < n <= count_cross(op.r, d)
    assert op.indices == tuple(enumerate_cross(op.r - 1, d))
    assert all(product_weight(k) <= op.r - 1 for k in op.indices)


def test_rank_one_less_than_window_start():
    # n at a window's left end leaves no slack: rank == n - 1
    d, s = 2, 1.0
    for r in (2, 3, 5, 9):
        n = count_cross(r - 1, d) + 1
        op = optimal_truncation(n, d, s)
        assert op.r == r and op.rank == n - 1


def test_trivial_operator():
    op = optimal_truncation(1, 3, 1.0)
    assert op.r == 1 and op.rank == 0 and op.indices == ()
    witness, error = worst_case_witness(op)
    assert witness == (0, 0, 0) and error == 1.0


def test_operator_validation():
    with pytest.raises(ValueError):
        TruncationOperator(((0, 0),), 2, 2, 1.0, 2)
    with pytest.raises(ValueError):
        TruncationOperator((), 0, 2, 1.0, 0)
    with pytest.raises(ValueError):
        optimal_truncation(0, 2, 1.0)


def test_truncation_guard():
    with pytest.raises(ResourceLimitError) as info:
        optimal_truncation(10 ** 6, 2, 1.0, max_enum=100)
    assert info.value.limit == 100 and info.value.requested > 100


# -- worst-case witness -------------------------------------------------------

@pytest.mark.parametrize("n,d,s", [(2, 2, 1.0), (9, 2, 1.0), (30, 3, 0.5),
                                   (1000, 2, 2.0)])
def test_witness_matches_exact_spectrum(n, d, s):
    op = optimal_truncation(n, d, s)
    witness, error = worst_case_witness(op)
    assert witness == (op.r - 1,) + (0,) * (d - 1)
    assert product_weight(witness) == op.r  # just outside the kept cross
    assert error == exact_an_sharp(n, d, s).value()


def test_witness_energy_is_attained_by_point_model():
    # a single coefficient sitting on the witness mode, exactly saturating
    # the decay envelope, reproduces the worst-case error as its L2 error
    op = optimal_truncation(2, 2, 1.0)
    witness, worst = worst_case_witness(op)
    model = CoefficientModel(
        lambda k: worst if k == witness else 0.0, 1.0, 1.0)
    model_error, certified = truncation_error(model, op, tail_radius=8)
    assert model_error == worst == 0.5
    assert certified > model_error


# -- Parseval accounting ------------------------------------------------------

def test_model_error_d1_closed_form():
    # d = 1: excluded modes inside radius R are r <= 1 + |k| <= R, so the
    # residual energy of the saturating unit model is 2 sum_{u=r}^{R} u^{-2}
    model = saturating_model()
    for n, R in ((5, 40), (9, 100)):
        op = optimal_truncation(n, 1, 1.0)
        model_error, _ = truncation_error(model, op, tail_radius=R)
        expected = 2 * sum(Fraction(1, u * u) for u in range(op.r, R + 1))
        assert model_error == pytest.approx(math.sqrt(float(expected)), rel=1e-12)


def test_error_brackets_shrink_towards_full_residual():
    model = saturating_model()
    op = optimal_truncation(50, 2, 1.0)
    # full-plane energy of the model factorizes over coordinates
    one_dim = math.pi ** 2 / 3.0 - 1.0
    kept = math.fsum(product_weight(k) ** -2.0 for k in op.indices)
    residual_inf = math.sqrt(one_dim ** 2 - kept)
    lower_gaps, upper_gaps = [], []
    for radius in (op.r, 2 * op.r, 8 * op.r, 64 * op.r):
        model_error, certified = truncation_error(model, op, radius)
        assert model_error <= residual_inf <= certified
        lower_gaps.append(residual_inf - model_error)
        upper_gaps.append(certified - residual_inf)
    assert all(a > b for a, b in zip(lower_gaps, lower_gaps[1:]))
    assert all(a > b for a, b in zip(upper_gaps, upper_gaps[1:]))
    assert upper_gaps[-1] < 0.1


def test_truncation_error_validation():
    op = optimal_truncation(7, 2, 1.0)
    with pytest.raises(ValueError):
        truncation_error(saturating_model(), op, tail_radius=op.r - 1)
    with pytest.raises(ResourceLimitError):
        truncation_error(saturating_model(), op, 10 ** 5, max_enum=1000)


def test_model_validation():
    with pytest.raises(ValueError):
        CoefficientModel(lambda k: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CoefficientModel(lambda k: 0.0, 1.0, 0.5)


def test_tail_divergence_detected():
    # barely summable decay makes the shell terms flatline; the accounting
    # must refuse rather than return a truncated (invalid) tail
    model = CoefficientModel(lambda k: 0.0, 1.0, 0.5000001)
    op = optimal_truncation(3, 1, 1.0)
    with pytest.raises(ValueError, match="did not converge"):
        truncation_error(model, op, tail_radius=5)


def test_complex_coefficients_accepted():
    model = CoefficientModel(lambda k: 1j * product_weight(k) ** -1.0, 1.0, 1.0)
    op = optimal_truncation(5, 1, 1.0)
    real = saturating_model()
    assert truncation_error(model, op, 50) == truncation_error(real, op, 50)


@pytest.mark.parametrize("n,d,factor", [(30, 2, 3), (400, 2, 2), (60, 3, 3),
                                        (500, 3, 2), (100, 4, 2), (700, 4, 1)])
def test_truncation_error_matches_set_reference(n, d, factor):
    # the kept modes are the first op.rank points of the enumeration; a
    # reference that skips them by set membership gives the same bits
    op = optimal_truncation(n, d, 1.0)
    assert op.r > 1 and op.indices == tuple(enumerate_cross(op.r - 1, d))
    model = saturating_model(0.9)
    tail_radius = op.r * factor
    kept = frozenset(op.indices)
    residual = math.fsum(abs(model.evaluator(k)) ** 2
                         for k in enumerate_cross(tail_radius, d) if k not in kept)
    tail = _tail_bound(model, d, tail_radius)
    assert truncation_error(model, op, tail_radius) == \
        (math.sqrt(residual), math.sqrt(residual + tail))
