"""Rank-optimal Fourier truncation and Parseval error accounting.

The best rank-m approximation of the embedding keeps exactly the modes of
largest reciprocal weight; for the sharp weight those are the symmetric
crosses.  The worst-case error of the truncation over the unit ball is
attained by the single cheapest excluded mode, and for a concrete
coefficient model the squared L2 error splits, by Parseval, into an
exactly enumerated part plus a certified tail.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

from ._checks import integer, positive
from .combinatorics import (IndexVector, _check_guard, _guard_override,
                            count_cross, enumerate_cross, volume_bounds)
from .spectra import ApproxNumber, exact_an_sharp


@dataclass(frozen=True)
class TruncationOperator:
    """Projection onto the Fourier modes of a symmetric cross.

    ``indices`` is N(r - 1, d) in enumeration order, so it is the first
    ``rank`` points of ``enumerate_cross(R, d)`` for every R >= r - 1;
    ``rank`` equals ``len(indices)`` and is strictly below the n the
    operator was built for.
    """

    indices: tuple[IndexVector, ...]
    rank: int
    d: int
    s: float
    r: int

    def __post_init__(self) -> None:
        if self.rank != len(self.indices):
            raise ValueError("rank must equal the number of kept modes")
        object.__setattr__(self, "r", integer(self.r, "radius r"))


def optimal_truncation(n: int, d: int, s: float, *,
                       max_enum: int | None = None) -> TruncationOperator:
    """The rank-optimal truncation for the n-th approximation number.

    Keeps the modes with product weight at most r - 1, where r is the
    breakpoint radius of a_n; the resulting rank C(r-1, d) is < n.
    """
    d = integer(d, "dimension d")
    with _guard_override(max_enum):
        step = exact_an_sharp(n, d, s)  # validates n and s
        r = step.r
        rank = count_cross(r - 1, d) if r > 1 else 0
        _check_guard(rank, f"truncation operator keeps {rank} modes")
    indices = tuple(enumerate_cross(r - 1, d)) if r > 1 else ()
    op = TruncationOperator(indices, rank, d, step.s, r)
    assert op.rank < n
    return op


def worst_case_witness(op: TruncationOperator) -> tuple[IndexVector, float]:
    """The cheapest excluded mode and its exact worst-case error.

    The witness frequency (r - 1, 0, ..., 0) lies just outside the kept
    cross; a unit-norm function concentrated there is approximated no
    better than r^{-s}, which matches the exact spectrum value at the
    first index the operator cannot reach.
    """
    witness = (op.r - 1,) + (0,) * (op.d - 1)
    error = ApproxNumber(op.r, op.s).value()
    achieved = exact_an_sharp(op.rank + 1, op.d, op.s).value()
    assert error == achieved  # witnessed error is the exact spectrum value
    return witness, error


@dataclass(frozen=True)
class CoefficientModel:
    """Fourier coefficients with a certified decay envelope.

    ``evaluator`` returns c_k (any value accepted by ``abs``);
    the certificate is |c_k| <= decay_scale * (prod (1 + |k_j|))^{-decay_rate}.
    Square-summability of the tail accounting needs decay_rate > 1/2.
    """

    evaluator: Callable[[IndexVector], complex]
    decay_scale: float
    decay_rate: float

    def __post_init__(self) -> None:
        positive(self.decay_scale, "decay scale")
        if not self.decay_rate > 0.5:
            raise ValueError(
                f"decay rate must exceed 1/2 for a summable tail, got {self.decay_rate}")


def _count_ceiling(x: float, d: int) -> float:
    # Continuous ceiling on the cross count at real radius x >= 1, from the
    # volume upper bound per support size, times supports and signs.
    total = 1.0
    for ell in range(1, d + 1):
        total += math.comb(d, ell) * 2.0 ** ell * volume_bounds(x, ell)[1]
    return total


_TAIL_REL_CUTOFF = 1e-18
_TAIL_MAX_SHELLS = 100_000


def _tail_bound(model: CoefficientModel, d: int, radius: int) -> float:
    # Everything outside N(radius, d) in dyadic product shells
    # [2^j (radius+1), 2^{j+1} (radius+1)): at most the count ceiling at the
    # outer edge, each term at most (inner edge)^{-2t}.
    two_t = 2.0 * model.decay_rate
    scale_sq = model.decay_scale ** 2
    total = 0.0
    for j in range(_TAIL_MAX_SHELLS):
        inner = float(radius + 1) * 2.0 ** j
        outer = inner * 2.0
        term = scale_sq * _count_ceiling(outer, d) * inner ** (-two_t)
        if not math.isfinite(term):
            break  # shell arithmetic left double range before settling
        total += term
        if j > 0 and term <= total * _TAIL_REL_CUTOFF:
            return total
    raise ValueError(
        f"certified tail did not converge; decay rate {model.decay_rate} "
        "is too close to 1/2")


def truncation_error(model: CoefficientModel, op: TruncationOperator,
                     tail_radius: int, *,
                     max_enum: int | None = None) -> tuple[float, float]:
    """L2 error of the truncation for one coefficient model, by Parseval.

    Returns ``(model_error, certified_bound)``: the square root of the
    enumerated residual energy inside N(tail_radius, d), and the same with
    the certified decay tail added.  ``tail_radius`` must reach the
    operator's own radius, so the enumerated part covers every excluded
    mode the operator is responsible for.
    """
    tail_radius = integer(tail_radius, "tail radius")
    if tail_radius < op.r:
        raise ValueError(
            f"tail radius {tail_radius} must reach the operator radius {op.r}")
    with _guard_override(max_enum):
        total = count_cross(tail_radius, op.d)
        _check_guard(total, f"error accounting needs the {total} points "
                            f"of N({tail_radius},{op.d})")
    # the stream is sorted by product, so its first op.rank points are the
    # kept modes N(r - 1, d); fsum rounds exactly, whatever the order
    excluded = itertools.islice(enumerate_cross(tail_radius, op.d), op.rank, None)
    residual = math.fsum(abs(model.evaluator(k)) ** 2 for k in excluded)
    tail = _tail_bound(model, op.d, tail_radius)
    return math.sqrt(residual), math.sqrt(residual + tail)
