"""Rank-optimal Fourier truncation and Parseval error accounting.

The best rank-m approximation of the embedding keeps exactly the modes of
largest reciprocal weight; for the sharp weight those are the symmetric
crosses.  The worst-case error of the truncation over the unit ball is
attained by the single cheapest excluded mode, and for a concrete
coefficient model the squared L2 error splits, by Parseval, into an
exactly enumerated part plus a certified tail.
"""

from __future__ import annotations

import math
from typing import Callable

from ._checks import integer, positive
from ._record import Record
from .combinatorics import (IndexVector, _count_ceiling, _guard_override, _shells,
                            enumerate_cross)
from .errors import ResourceLimitError
from .spectra import ApproxNumber, exact_an_sharp


class TruncationOperator(Record):
    """Projection onto the Fourier modes of a symmetric cross.

    ``indices`` is N(r - 1, d) in enumeration order, so it is the first
    ``rank`` points of ``enumerate_cross(R, d)`` for every R >= r - 1;
    ``rank`` equals ``len(indices)`` and is strictly below the n the
    operator was built for.
    """

    __slots__ = ("indices", "rank", "d", "s", "r")
    indices: tuple[IndexVector, ...]
    rank: int
    d: int
    s: float
    r: int

    def __init__(self, indices: tuple[IndexVector, ...], rank: int, d: int,
                 s: float, r: int) -> None:
        if rank != len(indices):
            raise ValueError("rank must equal the number of kept modes")
        super().__init__(indices, rank, d, s, integer(r, "radius r"))


def optimal_truncation(n: int, d: int, s: float, *,
                       max_enum: int | None = None) -> TruncationOperator:
    """The rank-optimal truncation for the n-th approximation number.

    Keeps the modes with product weight at most r - 1, where r is the
    breakpoint radius of a_n; the resulting rank C(r-1, d) is < n.
    """
    d = integer(d, "dimension d")
    with _guard_override(max_enum):
        step = exact_an_sharp(n, d, s)  # validates n and s
        indices = tuple(enumerate_cross(step.r - 1, d)) if step.r > 1 else ()
    op = TruncationOperator(indices, len(indices), d, step.s, step.r)
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


class CoefficientModel(Record):
    """Fourier coefficients with a certified decay envelope.

    ``evaluator`` returns c_k (any value accepted by ``abs``);
    the certificate is |c_k| <= decay_scale * (prod (1 + |k_j|))^{-decay_rate}.
    Square-summability of the tail accounting needs decay_rate > 1/2.
    """

    __slots__ = ("evaluator", "decay_scale", "decay_rate")
    evaluator: Callable[[IndexVector], complex]
    decay_scale: float
    decay_rate: float

    def __init__(self, evaluator: Callable[[IndexVector], complex],
                 decay_scale: float, decay_rate: float) -> None:
        positive(decay_scale, "decay scale")
        if not decay_rate > 0.5:
            raise ValueError(
                f"decay rate must exceed 1/2 for a summable tail, got {decay_rate}")
        super().__init__(evaluator, decay_scale, decay_rate)


_TAIL_REL_CUTOFF = 1e-18
_TAIL_MAX_SHELLS = 100_000


def _tail_bound(model: CoefficientModel, d: int, radius: int) -> float:
    # Everything outside N(radius, d) in dyadic product shells
    # [2^j (radius+1), 2^{j+1} (radius+1)): at most the count ceiling at the
    # outer edge, each term at most (inner edge)^{-2t}.  Terms still growing
    # at the end of double range mean shell counts in dimension d outgrowing
    # the decay; falling terms that never settle, a decay too close to 1/2.
    two_t = 2.0 * model.decay_rate
    scale_sq = model.decay_scale ** 2
    total, last, growing = 0.0, 0.0, True
    for j in range(_TAIL_MAX_SHELLS):
        inner = float(radius + 1) * 2.0 ** j
        term = scale_sq * _count_ceiling(2.0 * inner, d) * inner ** (-two_t)
        if not math.isfinite(term):
            break  # shell arithmetic left double range before settling
        total += term
        if j > 0 and term <= total * _TAIL_REL_CUTOFF:
            return total
        growing, last = term > last, term
    if growing:
        raise ResourceLimitError(
            f"tail shell up to {2.0 * inner:g} leaves double range in d = {d} while "
            f"the tail terms still grow at decay rate {model.decay_rate}")
    raise ValueError(
        f"certified tail did not converge; decay rate {model.decay_rate} "
        "is too close to 1/2")


def truncation_error(model: CoefficientModel, op: TruncationOperator,
                     tail_radius: int, *,
                     max_enum: int | None = None) -> tuple[float, float]:
    """L2 error of the truncation for one coefficient model, by Parseval.

    Returns ``(model_error, certified_bound)``: the square root of the
    residual energy inside N(tail_radius, d), and the same with the
    certified decay tail added.  ``tail_radius`` must reach the operator's
    own radius.  Only the excluded modes are enumerated, the shells
    r..tail_radius, and their points are held against the guard.
    """
    tail_radius = integer(tail_radius, "tail radius")
    if tail_radius < op.r:
        raise ValueError(
            f"tail radius {tail_radius} must reach the operator radius {op.r}")
    with _guard_override(max_enum):
        shells = _shells(op.r, tail_radius, op.d)
    # fsum rounds exactly, whatever the order
    residual = math.fsum(abs(model.evaluator(k)) ** 2
                         for _, points in shells for k in points)
    tail = _tail_bound(model, op.d, tail_radius)
    return math.sqrt(residual), math.sqrt(residual + tail)
