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

and A satisfies A(r, l) = sum_{u >= 2} A(r // u, l - 1), whose arguments
are again floor quotients r // m.  One call computes the whole level
vector (A(r, 1), ..., A(r, L)) over that quotient set: small quotients
from prefix tables built by a divisor sieve and shared between the calls
of one table size, large ones summed level by level, split at their
square roots into single factors and blocks of equal quotient.  A bounded
cache keeps the vectors of recent radii, so C(r, d) for every d is a
short sum with binomials.
Before counting, the work is estimated from (r, L) and held against the
enumeration guard.  An independent depth-first enumerator over Z^d is
kept alongside as an oracle for this identity.

All counts are exact arbitrary-precision integers.  Enumeration order is
deterministic: points come out sorted by ``(prod_j (1 + |k_j|), k)``.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from array import array
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
from math import isqrt
from operator import add, mul, sub
from typing import Callable, Iterator

from ._checks import integer, positive, radius
from .errors import ResourceLimitError

IndexVector = tuple[int, ...]

ENUM_GUARD_DEFAULT = 10 ** 8
GUARD_ENV_VAR = "CROSSNUM_MAX_ENUM"


_override: ContextVar[int | None] = ContextVar("max_enum", default=None)


def enumeration_guard(override: int | None = None) -> int:
    """Maximum number of lattice points a single call may materialise,
    and of table and sum entries a count may visit.

    Precedence: explicit ``override``, then the limit of an enclosing
    :func:`_guard_override` block, then the CROSSNUM_MAX_ENUM environment
    variable, then the built-in default of 10^8.
    """
    if override is None:
        override = _override.get()
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


@contextmanager
def _guard_override(max_enum: int | None) -> Iterator[None]:
    """Hold every guard check in the block against ``max_enum``; ``None``
    leaves the guard as it was.

    This is the one route by which a limit reaches a check: each public
    function that takes ``max_enum`` enters this block once, around the
    work it guards, and the CLI enters it for ``--max-enum``.  A generator
    reads the limit when it runs, so it must be drained inside the block.
    The limit holds in the current thread (or asyncio task) only.
    """
    if max_enum is None:
        yield
        return
    token = _override.set(integer(max_enum, "enumeration guard max_enum"))
    try:
        yield
    finally:
        _override.reset(token)


def _check_guard(requested: int, what: str) -> None:
    # The one place a request is held against the guard in force; ``what``
    # names the request, the message appends the limit.
    limit = enumeration_guard()
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


_RADII_CAP = 256     # radii whose level vector is kept
_TABLE_SIZES = 2     # table sizes T whose small-quotient tables are kept
_FULL_TABLE = 1 << 12  # radii up to this are read straight from the tables
_levels: dict[int, tuple[int, ...]] = {}    # r -> (A(r, 1), ..., A(r, k))
_tables: dict[int, list[array]] = {}        # T -> [S_1, S_2, ...], S_l[n] = A(n, l)
_counting_lock = threading.Lock()  # guards table growth and both caches' caps


def _table_size(r: int) -> int:
    # The least power of two T >= r^(2/3), so 8^k >= r^2; T >= sqrt(r) too.
    # Radii up to 2^12 take the least power of two T >= r instead: no level
    # then needs the large-quotient sums, and the radii of one power of two
    # share their tables, as the many nearby radii of a sweep or of a run
    # of lookups do.
    return max(1 << ((r * r - 1).bit_length() + 2) // 3,
               min(1 << (r - 1).bit_length(), _FULL_TABLE))


def _table_levels(size: int, depth: int) -> int:
    # Levels 1..depth-1 are read from the tables; A(n, l) = 0 for all n <= T
    # once 2^l > T, so those levels need no table.
    return min(depth - 1, size.bit_length() - 1)


def _sieve_work(size: int, count: int) -> int:
    # Entries visited building the tables S_1..S_count on 0..T: T + 1 for
    # S_1; the sieve of S_l visits sum_{u=2}^{n} T // u <= T ln n <
    # T bitlen(n) entries, n = T >> (l - 1), and its differences and
    # prefix sums 3T + 3 more.
    return sum(size + 1 if ell == 1 else
               size * ((size >> (ell - 1)).bit_length() + 3) + 3
               for ell in range(1, count + 1))


def _sums_work(r: int, size: int, depth: int) -> int:
    # Entries visited by the sums at the large quotients r // m > T, m <= M
    # = r // (T + 1): M for level 1 and, per deeper level, at most
    # 2 isqrt(r // m) + 1 at each m, where sum_{m <= M} 2 sqrt(r / m) <=
    # 4 sqrt(r M); each level is summed at m = 1 even when M = 0.
    large = max(1, r // (size + 1))
    return large + (depth - 1) * (4 * isqrt(r * large) + large + 4)


def _counting_work(r: int, depth: int) -> int:
    """Upper bound on the entries visited computing A(r, 1..depth).

    Deterministic in (r, depth): the small tables are charged as if built
    afresh.
    """
    if depth <= 1:
        return 0
    if depth == 2:
        return isqrt(r)
    size = _table_size(r)
    return _sieve_work(size, _table_levels(size, depth)) + _sums_work(r, size, depth)


def _next_table(tables: list[array], size: int) -> array:
    # S_l on 0..T for l = len(tables) + 1, from S_{l-1} by a divisor sieve:
    # a_l(u k) += a_{l-1}(k) for every factor u >= 2.  int64 holds it:
    # A(n, l) < n^2 < 2^63 for n <= T < 2^31, and an array refuses a larger
    # value, it never wraps.
    if not tables:
        return array("q", [0]) + array("q", range(size))
    ell = len(tables) + 1
    prev = tables[-1]
    step = [0]                          # a_{l-1}(n) = S_{l-1}(n) - S_{l-1}(n-1)
    step += map(sub, islice(prev, 1, None), prev)
    lowest = 1 << (ell - 1)             # least k with a_{l-1}(k) > 0
    counts = [0] * (size + 1)
    for u in range(2, size // lowest + 1):
        hi = size // u
        view = slice(u * lowest, u * hi + 1, u)
        counts[view] = map(add, counts[view], step[lowest:hi + 1])
    return array("q", accumulate(counts))


def _small_tables(r: int, depth: int) -> tuple[list[array], int]:
    # The tables S_1, S_2, ... on 0..T, T = _table_size(r), grown one level
    # at a time and shared by the calls of the same T; the last two sizes
    # used are kept.
    size = _table_size(r)
    count = _table_levels(size, depth)
    with _counting_lock:
        tables = _tables.pop(size, [])
        _tables[size] = tables
        if len(_tables) > _TABLE_SIZES:
            del _tables[next(iter(_tables))]
        while len(tables) < count:
            tables.append(_next_table(tables, size))
        return tables[:count], size


def _level_vector(r: int, depth: int) -> tuple[int, ...]:
    """(A(r, 1), ..., A(r, depth)) for 2 <= depth <= log2 r.

    A(q, l) = sum_{u >= 2} A(q // u, l - 1), and every q // u is again a
    floor quotient r // m.  Depth 2 is the hyperbola split of the pairs
    u, v >= 2 at isqrt(r).  Deeper, quotients n <= T come from the tables
    S_l(n) = A(n, l); the large quotients r // m > T, that is m <= M =
    r // (T + 1), are summed level by level: the factors u with r // (m u)
    still large read the level below at m u, the others split at isqrt(q)
    into single factors and blocks of equal quotient.  The last level is
    needed at m = 1 only.
    """
    s = isqrt(r)
    if depth == 2:
        pairs = 2 * (sum(map(r.__floordiv__, range(2, s + 1))) - (s - 1)) - (s - 1) ** 2
        return r - 1, pairs
    tables, size = _small_tables(r, depth)
    large = r // (size + 1)
    prev = [0] + [r // m - 1 for m in range(1, large + 1)]  # A(r // m, 1)
    # with no large quotient, every level but the last is in the tables
    levels = [r - 1] if large else [table[r] for table in tables]
    for ell in range(len(levels) + 1, depth + 1):
        table = tables[ell - 2] if ell - 2 < len(tables) else None
        lowest = 1 << (ell - 1)  # least v with A(v, l - 1) > 0
        top = max(1, min(large, r >> ell)) if ell < depth else 1
        cur = [0]
        for m in range(1, top + 1):
            q = r // m
            u0 = large // m      # q // u > T exactly for u <= u0
            total = sum(prev[2 * m:m * u0 + 1:m])
            if table is not None:
                s = isqrt(q)
                cap = min(s, q >> (ell - 1))
                total += sum(map(table.__getitem__,
                                 map(q.__floordiv__, range(max(u0, 1) + 1, cap + 1))))
                # u > s: #{u > s : q // u = v} = q // v - q // (v + 1) for
                # v < far, and q // far - s for v = far
                far = q // (s + 1)
                if far >= lowest:
                    ends = list(map(q.__floordiv__, range(lowest, far + 1)))
                    ends.append(s)
                    total += sum(map(mul, table[lowest:far + 1],
                                     map(sub, ends, islice(ends, 1, None))))
            cur.append(total)
        prev = cur
        levels.append(cur[1])
    return tuple(levels)


def _positive_levels(r: int, depth: int) -> tuple[int, ...]:
    # (A(r, 1), ..., A(r, k)) with k >= depth, for 2 <= depth <= log2 r.  A
    # deeper depth at a kept radius computes every depth at once when the
    # guard allows it, since callers ask one radius at many dimensions.
    known = _levels.get(r)
    if known is not None:
        if len(known) >= depth:
            return known
        full = r.bit_length() - 1
        if _counting_work(r, full) <= enumeration_guard():
            depth = full
    work = _counting_work(r, depth)
    if work > (1 << 64):  # keep a refusal readable past any realistic guard
        where, entries = f"a {r.bit_length()}-bit r", f"2^{work.bit_length()}"
    else:
        where, entries = f"r = {r}", str(work)
    _check_guard(work, f"counting A(r, l) for l <= {depth} at {where} "
                       f"visits up to {entries} entries")
    levels = _level_vector(r, depth)
    with _counting_lock:
        if r not in _levels and len(_levels) >= _RADII_CAP:
            del _levels[next(iter(_levels))]
        _levels[r] = levels
    return levels


def count_positive(r: int, ell: int) -> int:
    """Exact A(r, ell) = #{k in N^ell, k_j >= 1 : prod (1 + k_j) <= r}."""
    r = integer(r, "radius r", least=0)
    ell = integer(ell, "length ell")
    if r.bit_length() <= ell:  # r < 2^ell
        return 0
    return r - 1 if ell == 1 else _positive_levels(r, ell)[ell - 1]


@lru_cache(maxsize=1 << 16)
def _count_cross(r: int, d: int) -> int:
    # C(r, d) for an already validated pair of ints.  Staircase lookups probe
    # the same radii for neighbouring n, hence the (bounded) memo.
    depth = min(d, r.bit_length() - 1)  # A(r, l) = 0 once 2^l > r
    if depth <= 1:
        return 1 + 2 * d * (r - 1) if depth else 1
    total = 1
    for ell, count in enumerate(_positive_levels(r, depth)[:depth], 1):
        total += (1 << ell) * math.comb(d, ell) * count
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
    with _guard_override(max_enum):
        _check_guard(estimate, f"brute-force count of N({spec.r},{spec.d}) "
                               f"could visit about {estimate} points")

    def visit(budget: int, dims: int) -> int:
        if dims == 0 or budget == 1:  # only zeros are left to place
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
        if remaining == 1:  # only zeros are left to place
            points.append(tuple(prefix) + (0,) * dims_left)
            return
        if dims_left == 1:
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
    if parts == 1 or total == 0:  # one slot left, or only zeros to place
        yield (0,) * (parts - 1) + (total,)
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
    n_splits = math.comb(m + d - 1, d - 1)
    with _guard_override(max_enum):
        _check_guard(n_splits, f"dyadic cross H({m},{d}) has {n_splits} boxes")
        guard = enumeration_guard()
        estimate = 0
        for split in _compositions(m, d):
            box = 1
            for u in split:
                box *= (1 << (u + 1)) + 1
            estimate += box
            if estimate > guard:  # stop summing as soon as the answer is known
                break
        _check_guard(estimate, f"dyadic cross H({m},{d}) enumeration could "
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
    with _guard_override(max_enum):
        total = count_cross(radius, d)
        _check_guard(total, f"generalized count needs the {total} points "
                            f"of N({radius},{d})")
    count = 0
    for k in enumerate_cross(radius, d):
        product = None
        for kj in k:
            value = seq.evaluator(kj)
            product = value if product is None else product * value
        if product >= eps:
            count += 1
    return count
