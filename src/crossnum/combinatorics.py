"""Exact counting, enumeration and volume estimates for hyperbolic crosses.

The sets handled here live on the integer lattice:

* the symmetric cross  ``N(r, d) = {k in Z^d : prod_j (1 + |k_j|) <= r}``,
* its strictly positive part ``M(r, l) = {k in N^l, k_j >= 1 :
  prod_j (1 + k_j) <= r}`` with cardinality ``A(r, l)``,
* dyadic crosses ``H(m, d)``: unions of the boxes ``|k_j| <= 2^{u_j}``
  over all exponent splits ``u_1 + ... + u_d = m``,
* the continuous companion ``{x in [1, r]^l : prod x_j <= r}`` whose
  volume ``v_l(r)`` sandwiches ``A(r, l)``.

Counting the symmetric cross reduces to the positive parts by choosing
the support of k and the signs on it:

    C(r, d) = 1 + sum_{l=1}^{min(d, floor(log2 r))} 2^l binom(d, l) A(r, l)

and A itself satisfies a first-coordinate recursion whose arguments are
floor divisions of r, so grouping equal quotients into blocks keeps the
memoised call tree small.  An independent depth-first enumerator over
Z^d is kept alongside as an oracle for this identity.

All counts are exact arbitrary-precision integers.  Enumeration order is
deterministic: points come out sorted by ``(prod_j (1 + |k_j|), k)``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from ._checks import integer, positive, radius
from .errors import ResourceLimitError

IndexVector = tuple[int, ...]

ENUM_GUARD_DEFAULT = 10 ** 8
GUARD_ENV_VAR = "CROSSNUM_MAX_ENUM"


def enumeration_guard(override: int | None = None) -> int:
    """Maximum number of lattice points a single call may materialise.

    Precedence: explicit ``override``, then the CROSSNUM_MAX_ENUM
    environment variable, then the built-in default of 10^8.
    """
    if override is not None:
        return integer(override, "enumeration guard max_enum")
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw:
        try:
            raw = int(raw)
        except ValueError:
            pass  # refused below, by the same rule as the override
        return integer(raw, GUARD_ENV_VAR)
    return ENUM_GUARD_DEFAULT


def _check_guard(requested: int, max_enum: int | None, what: str) -> None:
    # The one place a request is held against the guard; ``what`` names
    # the request, the message appends the limit.
    limit = enumeration_guard(max_enum)
    if requested > limit:
        raise ResourceLimitError(f"{what}, guard is {limit}",
                                 requested=requested, limit=limit)


@dataclass(frozen=True)
class CrossSpec:
    """A validated (radius, dimension) pair describing N(r, d)."""

    r: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", integer(self.r, "radius r"))
        object.__setattr__(self, "d", integer(self.d, "dimension d"))

    def count(self) -> int:
        return _count_cross(self.r, self.d)

    def points(self) -> Iterator[IndexVector]:
        return enumerate_cross(self.r, self.d)


@lru_cache(maxsize=None)
def _positive_count(r: int, ell: int) -> int:
    # A(r, ell); arguments repeat heavily under floor division, hence the cache.
    if r < (1 << ell):
        return 0
    if ell == 1:
        return r - 1
    # Sum over the first factor u = 1 + k_1.  The remaining ell - 1 factors
    # need at least 2^{ell-1}, so u <= r >> (ell - 1); consecutive u with the
    # same quotient r // u are folded into one block.
    cap = r >> (ell - 1)
    total = 0
    u = 2
    while u <= cap:
        q = r // u
        u_hi = min(cap, r // q)
        total += (u_hi - u + 1) * _positive_count(q, ell - 1)
        u = u_hi + 1
    return total


def count_positive(r: int, ell: int) -> int:
    """Exact A(r, ell) = #{k in N^ell, k_j >= 1 : prod (1 + k_j) <= r}."""
    return _positive_count(integer(r, "radius r", least=0),
                           integer(ell, "length ell"))


@lru_cache(maxsize=1 << 16)
def _count_cross(r: int, d: int) -> int:
    # C(r, d) for an already validated pair of ints.  Staircase lookups probe
    # the same radii for neighbouring n, hence the (bounded) memo.
    total = 1
    for ell in range(1, min(d, r.bit_length() - 1) + 1):  # floor(log2 r)
        total += (1 << ell) * math.comb(d, ell) * _positive_count(r, ell)
    return total


def count_cross(r: int, d: int) -> int:
    """Exact C(r, d) = #N(r, d) via the support-and-signs identity."""
    return CrossSpec(r, d).count()


def _count_estimate(r: int, d: int) -> int:
    # Coarse ceiling on C(r, d): the bounding box and a crude product bound.
    return min((2 * r - 1) ** d, 3 ** d * r * r)


def count_cross_bruteforce(r: int, d: int, *, max_enum: int | None = None) -> int:
    """Count N(r, d) by direct depth-first enumeration over Z^d.

    Independent oracle for :func:`count_cross`: no binomials, no
    positive-part recursion; every point is visited exactly once, pruning
    on the partial product.  Refuses to start if a coarse estimate of the
    work exceeds the enumeration guard.
    """
    spec = CrossSpec(r, d)
    estimate = _count_estimate(spec.r, spec.d)
    _check_guard(estimate, max_enum, f"brute-force count of N({spec.r},{spec.d}) "
                                     f"could visit about {estimate} points")

    def visit(budget: int, dims: int) -> int:
        if dims == 0:
            return 1
        total = 0
        for k in range(-(budget - 1), budget):
            total += visit(budget // (1 + abs(k)), dims - 1)
        return total

    return visit(spec.r, spec.d)


@lru_cache(maxsize=1 << 16)
def _divisors(n: int) -> tuple[int, ...]:
    small = []
    large = []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return tuple(small + large[::-1])


def _shell_points(product: int, d: int) -> list[IndexVector]:
    # All k in Z^d with prod (1 + |k_j|) == product, in ascending tuple order.
    points: list[IndexVector] = []
    prefix: list[int] = []

    def extend(remaining: int, dims_left: int) -> None:
        if dims_left == 1:
            if remaining == 1:
                points.append(tuple(prefix) + (0,))
            else:
                points.append(tuple(prefix) + (-(remaining - 1),))
                points.append(tuple(prefix) + (remaining - 1,))
            return
        for u in _divisors(remaining):
            rest = remaining // u
            if u == 1:
                prefix.append(0)
                extend(rest, dims_left - 1)
                prefix.pop()
            else:
                for k in (-(u - 1), u - 1):
                    prefix.append(k)
                    extend(rest, dims_left - 1)
                    prefix.pop()

    extend(product, d)
    points.sort()
    return points


def enumerate_cross(r: int, d: int) -> Iterator[IndexVector]:
    """Yield every k in N(r, d) exactly once, sorted by (prod(1+|k_j|), k).

    The order is total and deterministic, so prefixes of the stream are
    exactly the optimal index sets of growing rank (ties broken by the
    lexicographic order on k).
    """
    spec = CrossSpec(r, d)
    for product in range(1, spec.r + 1):
        yield from _shell_points(product, spec.d)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    # Non-negative integer splits of `total` into `parts` ordered slots.
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_dyadic_cross(m: int, d: int, *,
                           max_enum: int | None = None) -> set[IndexVector]:
    """Materialise the dyadic cross H(m, d) as a deduplicated point set.

    H(m, d) is the union over exponent splits u (non-negative integers with
    sum m) of the boxes {k : |k_j| <= 2^{u_j}}.  The boxes overlap, so the
    guard is checked against the sum of box sizes before any box is built.
    """
    m, d = integer(m, "level m", least=0), integer(d, "dimension d")
    guard = enumeration_guard(max_enum)
    n_splits = math.comb(m + d - 1, d - 1)
    _check_guard(n_splits, guard, f"dyadic cross H({m},{d}) has {n_splits} boxes")
    estimate = 0
    for split in _compositions(m, d):
        box = 1
        for u in split:
            box *= (1 << (u + 1)) + 1
        estimate += box
        if estimate > guard:  # stop summing as soon as the answer is known
            break
    _check_guard(estimate, guard, f"dyadic cross H({m},{d}) enumeration could "
                                  f"touch about {estimate}+ points")
    points: set[IndexVector] = set()
    for split in _compositions(m, d):
        points.update(itertools.product(
            *(range(-(1 << u), (1 << u) + 1) for u in split)))
    return points


def volume_exact(r: float, ell: int) -> float:
    """Volume of {x in [1, r]^ell : prod x_j <= r}, in closed form.

    Iterating the slice recursion v_{l+1}(r) = r * int_1^r v_l(s)/s^2 ds
    from v_1(r) = r - 1 gives

        v_ell(r) = (-1)^ell + r * sum_{j=0}^{ell-1} (-1)^{ell-1-j} (ln r)^j / j!

    with exact rational coefficients; evaluation is double precision via a
    Horner scheme in ln r.  The tests validate every recursion level
    against adaptive quadrature.
    """
    ell, r = integer(ell, "length ell"), radius(r, "radius r")
    if r == 1:
        return 0.0
    log_r = math.log(r)
    acc = 1.0 / math.factorial(ell - 1)  # leading coefficient, j = ell - 1
    sign = -1.0
    for j in range(ell - 2, -1, -1):
        acc = acc * log_r + sign / math.factorial(j)
        sign = -sign
    return r * acc + (-1.0) ** ell


def volume_bounds(r: float, ell: int) -> tuple[float, float]:
    """Two-sided estimate for :func:`volume_exact` without the alternating sum.

    With f_l(r) = r (ln r)^{l-1} / (l-1)!:  f_ell - f_{ell-1} <= v_ell <= f_ell
    (lower bound 0 for ell = 1).
    """
    ell, r = integer(ell, "length ell"), radius(r, "radius r")
    log_r = math.log(r)
    upper = r * log_r ** (ell - 1) / math.factorial(ell - 1)
    if ell == 1:
        return 0.0, upper
    lower = upper - r * log_r ** (ell - 2) / math.factorial(ell - 2)
    return lower, upper


@dataclass(frozen=True)
class GeneralizedWeightSeq:
    """A symmetric per-coordinate sequence 1 = b_0 >= b_l > 0 with b_l -> 0.

    ``evaluator`` may return any numeric type that supports multiplication
    and comparison (float, Fraction, sympy expressions, ...); exact inputs
    then give exact boundary handling.  ``envelope`` certifies
    sup_l (1 + |l|) b_l and controls how far the bounded enumeration must
    reach; when omitted it is estimated by scanning small and geometrically
    spaced l, which is fine for monotone sequences but not certified — pass
    the exact value when you have one.
    """

    evaluator: Callable[[int], object]
    envelope: float | None = None

    def __post_init__(self) -> None:
        if float(self.evaluator(0)) != 1.0:
            raise ValueError(f"b_0 must equal 1, got {self.evaluator(0)!r}")
        for probe in (1, 2, 5):
            left, right = self.evaluator(-probe), self.evaluator(probe)
            if float(left) != float(right):
                raise ValueError(f"sequence must be symmetric; b_{-probe} != b_{probe}")
            if not 0.0 < float(right) <= 1.0:
                raise ValueError(f"need 0 < b_l <= 1, got b_{probe} = {right!r}")
        if self.envelope is not None:
            positive(self.envelope, "envelope")

    def resolved_envelope(self) -> float:
        if self.envelope is not None:
            return float(self.envelope)
        best = 1.0  # the l = 0 term
        for level in range(1, 1025):
            best = max(best, (1 + level) * float(self.evaluator(level)))
        for exponent in range(11, 41):
            level = 1 << exponent
            best = max(best, (1 + level) * float(self.evaluator(level)))
        return best


def count_generalized(seq: GeneralizedWeightSeq, eps, d: int, *,
                      max_enum: int | None = None) -> int:
    """Count {k in Z^d : prod_j b_{k_j} >= eps} by bounded enumeration.

    Boundary ties (product exactly eps) are included.  Products are formed
    with the evaluator's own arithmetic, so exact number types give exact
    tie decisions.  The enumeration radius R is certified: outside N(R, d)
    the product is at most envelope^d / (R + 1) < eps.
    """
    d = integer(d, "dimension d")
    eps_f = float(eps)
    if not 0.0 < eps_f <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {eps!r}")
    env = seq.resolved_envelope()
    ceiling = env ** d
    radius = max(1, math.ceil(ceiling / eps_f))
    # small float headroom; the loop is the actual certificate
    while ceiling * (1.0 + 1e-9) >= eps_f * (radius + 1):
        radius *= 2
    total = count_cross(radius, d)
    _check_guard(total, max_enum,
                 f"generalized count needs the {total} points of N({radius},{d})")
    count = 0
    for k in enumerate_cross(radius, d):
        product = None
        for kj in k:
            value = seq.evaluator(kj)
            product = value if product is None else product * value
        if product >= eps:
            count += 1
    return count
