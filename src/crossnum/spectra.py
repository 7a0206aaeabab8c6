"""Weights for the four norm variants and exact spectra of the embeddings.

Each norm is induced by a multiplicative weight on frequency vectors: the
norm of f is the l2 norm of (w(k) c_k(f))_k over k in Z^d.  The embedding
into L2 is then unitarily a diagonal operator with entries 1/w(k), so its
approximation numbers are the non-increasing rearrangement of 1/w.

Variants (s > 0 real, m >= 1 integer; 0^0 = 1 throughout):

    sharp   w(k) = prod_j (1 + |k_j|)^s
    plus    w(k) = prod_j (1 + k_j^2)^{s/2}
    star    w(k) = prod_j (1 + |k_j|^{2s})^{1/2}
    intm    w(k) = prod_j v_m(k_j),   v_m(l)^2 = sum_{a=0}^{m} l^{2a}

The sharp spectrum is piecewise constant with exactly known breakpoints:
a_n = r^{-s} precisely when C(r-1, d) < n <= C(r, d).  The other variants
come from a best-first walk over the non-negative orthant: every weight is
symmetric and nondecreasing in each |k_j|, so a heap of the walk's frontier
yields 1/w in non-increasing order, and the first n values are the table.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
import threading
from typing import Iterator, Sequence

from ._checks import FAMILIES, REL_TOL, integer, intm_order, positive
from ._record import Record, setfield
from .combinatorics import (IndexVector, _check_guard, _count_cross,
                            _guard_override, enumeration_guard)
from .errors import UnsupportedRegimeError


class WeightKind(Record):
    """One of the four weight families together with its smoothness."""

    __slots__ = ("family", "s")
    family: str
    s: float

    def __init__(self, family: str, s: float) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown weight family {family!r}")
        super().__init__(family, intm_order(s) if family == "intm"
                         else positive(s, "smoothness s"))

    @classmethod
    def sharp(cls, s: float) -> "WeightKind":
        return cls("sharp", s)

    @classmethod
    def plus(cls, s: float) -> "WeightKind":
        return cls("plus", s)

    @classmethod
    def star(cls, s: float) -> "WeightKind":
        return cls("star", s)

    @classmethod
    def integer_m(cls, m: int) -> "WeightKind":
        return cls("intm", m)

    @property
    def m(self) -> int:
        if self.family != "intm":
            raise AttributeError("m is only defined for integer-m weights")
        return int(self.s)

    def label(self) -> str:
        if self.family == "intm":
            return f"intm({self.m})"
        return f"{self.family}({self.s:g})"


def _power(r: int, s: float) -> float:
    """r^s for an int r >= 1 and s > 0: non-decreasing in r, inf past double range.

    Wherever float(r) is finite it is float(r) ** s, the best-first walk's
    arithmetic bit for bit, monotone as float(r) and pow are monotone
    roundings.  Where float(r) overflows (r >= 2^1024 - 2^970, where r^s is
    still finite for s < 1) it is 2 ** (s log2 r): math.log2 of an int is
    exact at powers of two and every later step rounds monotonically.  That
    branch is clamped at float_max ** s, the power of the radii that float(r)
    rounds to float_max, so r^s never falls at the boundary either.
    """
    try:
        try:
            base = float(r)
        except OverflowError:
            return max(2.0 ** (s * math.log2(r)), sys.float_info.max ** s)
        return base ** s
    except OverflowError:
        return math.inf


def _intm_square(level: int, m: int) -> int:
    # v_m(l)^2 = sum_{a=0}^{m} l^(2a), in closed form for |l| >= 2
    base = level * level
    if base <= 1:
        return 1 + m * base
    return (base ** (m + 1) - 1) // (base - 1)


def weight(kind: WeightKind, k: Sequence[int]) -> float:
    """w_kind(k).  Multiplicative over coordinates; equals 1 at k = 0.

    A weight past double range is ``math.inf``, so its 1/w is 0.0.
    """
    total = 1.0
    try:
        if kind.family == "sharp":
            # exact integer product first: every index vector on one shell
            # then gets the bit-identical weight, which exact_an_sharp mirrors
            product = 1
            for kj in k:
                product *= 1 + abs(kj)
            return _power(product, kind.s)
        if kind.family == "plus":
            for kj in k:
                total *= float(1 + kj * kj) ** (kind.s / 2.0)
        elif kind.family == "star":
            for kj in k:
                total *= math.sqrt(1.0 + float(abs(kj)) ** (2.0 * kind.s))
        else:
            m = kind.m
            for kj in k:
                # v_m(l)^2 >= l^(2m) >= 2^1024 here, past float range, where
                # math.sqrt would raise the OverflowError below
                if m * ((kj * kj).bit_length() - 1) >= 1024:
                    return math.inf
                total *= math.sqrt(_intm_square(kj, m))
    except OverflowError:  # every factor is >= 1, so the product overflows too
        return math.inf
    return total


class ApproxNumber(Record):
    """An exact spectrum value r^{-s}, kept symbolic as the pair (r, s)."""

    __slots__ = ("r", "s")
    r: int
    s: float

    def __init__(self, r: int, s: float) -> None:
        # the common case is tested inline: staircase lookups build one per call
        if not (type(r) is int and r >= 1):
            r = integer(r, "radius r")
        if not (type(s) is float and 0.0 < s < math.inf):
            s = positive(s, "smoothness s")
        setfield(self, "r", r)
        setfield(self, "s", s)

    def value(self) -> float:
        # the walk's own 1.0 / weight, so a_n = r^-s is 0.0 past double range
        return 1.0 / _power(self.r, self.s)


class Breakpoint(Record):
    """One step of the sharp spectrum: a_n = value for C(r-1,d) < n <= cumulative."""

    __slots__ = ("r", "cumulative", "value")
    r: int
    cumulative: int
    value: ApproxNumber


def breakpoints_sharp(d: int, s: float, r_max: int) -> list[Breakpoint]:
    """The sharp staircase for radii 1..r_max, with exact cumulative counts."""
    d, s = integer(d, "dimension d"), positive(s, "smoothness s")
    r_max = integer(r_max, "r_max")
    _check_guard(r_max, f"sharp staircase for {r_max} radii")
    return [Breakpoint(r, _count_cross(r, d), ApproxNumber(r, s))
            for r in range(1, r_max + 1)]


_CURSOR_CAP = 64  # dimensions whose last staircase step is kept
_cursor: dict[int, tuple[int, int, int]] = {}  # d -> (r, C(r-1, d), C(r, d))
_cursor_lock = threading.Lock()  # makes the check of the cap and the store one step


def exact_an_sharp(n: int, d: int, s: float) -> ApproxNumber:
    """The exact n-th approximation number for the sharp weight.

    Returns r^{-s} (symbolically) for the unique radius r with
    C(r-1, d) < n <= C(r, d).  The radius depends on (n, d) only, so a
    cursor keeps the last step found for each d as (r, C(r-1, d), C(r, d)).
    A lookup inside that step needs no count.  One within a step width
    above it gallops up from the step, doubling the stride; any other
    gallops from r = 0 through powers of two.  Either way the bracket is
    then bisected on the exact counts.  Every kept step is a true fact
    about the counts, so a stale step, or one another caller left, only
    changes where the search starts, never its answer.  The cursor holds
    at most 64 dimensions and is cleared when a new one would exceed that;
    the counts come from a bounded memo of C(r, d), whose misses take the
    level vector of their radius from :mod:`combinatorics`.  The arguments are
    validated once, and the probes skip the checks of :func:`count_cross`.
    """
    # the common case is tested inline; the rules coerce or refuse the rest
    if not (type(n) is type(d) is int and n >= 1 and d >= 1):
        n, d = integer(n, "index n"), integer(d, "dimension d")
    if not (type(s) is float and 0.0 < s < math.inf):
        s = positive(s, "smoothness s")
    r, below, top = _cursor.get(d, (1, 0, 1))  # C(0, d) = 0, C(1, d) = 1
    if below < n <= top:
        return ApproxNumber(r, s)
    # gallop to a bracket with C(lo, d) < n <= C(hi, d): from the step when
    # n is within one step width above it, else from r = 0 through powers
    # of two, whose counts far-apart lookups find in the memo of C(r, d)
    stride = 1
    origin, lo, c_lo = (r, r, top) if top < n <= 2 * top - below else (0, 0, 0)
    while (c_hi := _count_cross(origin + stride, d)) < n:
        lo, c_lo, stride = origin + stride, c_hi, stride << 1
    hi = origin + stride
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (count := _count_cross(mid, d)) < n:
            lo, c_lo = mid, count
        else:
            hi, c_hi = mid, count
    with _cursor_lock:
        if d not in _cursor and len(_cursor) >= _CURSOR_CAP:
            _cursor.clear()
        _cursor[d] = (hi, c_lo, c_hi)
    return ApproxNumber(hi, s)


class SpectrumTable(Record):
    """sigma_1 >= sigma_2 >= ... >= sigma_n for one weight kind.

    ``certification`` is "exact" for tables assembled from breakpoints and
    "enumerated-certified" for tables produced by the best-first walk;
    ``radius`` is then the largest prod(1 + |k_j|) among the vectors that
    fill the table.  ``bases`` carries the per-entry radius for exact sharp
    tables.
    """

    __slots__ = ("values", "kind", "d", "certification", "radius", "bases")
    values: tuple[float, ...]
    kind: WeightKind
    d: int
    certification: str
    radius: int | None
    bases: tuple[int, ...] | None

    def __init__(self, values: tuple[float, ...], kind: WeightKind, d: int,
                 certification: str, radius: int | None = None,
                 bases: tuple[int, ...] | None = None) -> None:
        if not values:
            raise ValueError("a spectrum table needs at least one entry")
        if values[0] != 1.0:
            raise ValueError(f"sigma_1 must be 1, got {values[0]}")
        for a, b in zip(values, values[1:]):
            if b > a:
                raise ValueError("spectrum values must be non-increasing")
        super().__init__(values, kind, d, certification, radius, bases)

    def __len__(self) -> int:
        return len(self.values)

    def sigma(self, n: int) -> float:
        """1-based lookup of sigma_n."""
        if not 1 <= n <= len(self.values):
            raise IndexError(f"n = {n} outside table of length {len(self.values)}")
        return self.values[n - 1]


def sharp_table(d: int, s: float, n_max: int) -> SpectrumTable:
    """Exact sharp spectrum sigma_1..sigma_{n_max} from the breakpoint staircase."""
    n_max, d = integer(n_max, "table length n_max"), integer(d, "dimension d")
    s = positive(s, "smoothness s")
    _check_guard(n_max, f"sharp table for {n_max} values")
    values: list[float] = []
    bases: list[int] = []
    r = 0
    while len(values) < n_max:  # each radius adds a value: C(r, d) > C(r - 1, d)
        r += 1
        width = min(_count_cross(r, d), n_max) - len(values)
        entry = ApproxNumber(r, s).value()
        values.extend([entry] * width)
        bases.extend([r] * width)
    return SpectrumTable(tuple(values), WeightKind.sharp(s), d, "exact",
                         radius=None, bases=tuple(bases))


def _best_first(kind: WeightKind, d: int) -> Iterator[tuple[float, int, IndexVector]]:
    # (1/weight, 2^nnz(k), k) over k in N_0^d with 1/weight non-increasing:
    # weights are symmetric and nondecreasing in each |k_j|, in floats too,
    # so no child k + e_j (j at or past the last nonzero coordinate of k)
    # outranks its unique parent k.  The guard in force when the walk runs
    # bounds the vectors popped and the frontier held, the walk's work.
    guard = enumeration_guard()
    heap = [(-1.0, (0,) * d, 0)]  # (-1/weight, k, first j to increment)
    for _ in range(guard):
        key, k, first = heapq.heappop(heap)
        yield -key, 1 << (d - k.count(0)), k
        for j in range(first, d):
            child = k[:j] + (k[j] + 1,) + k[j + 1:]
            heapq.heappush(heap, (-1.0 / weight(kind, child), child, j))
        if len(heap) > guard:
            _check_guard(len(heap), f"best-first frontier holds {len(heap)} vectors")
    _check_guard(guard + 1, f"best-first walk would pop {guard + 1} vectors")


def rearranged_spectrum(kind: WeightKind, d: int, n_max: int, *,
                        max_enum: int | None = None) -> SpectrumTable:
    """sigma_1..sigma_{n_max}: the n_max largest values of 1/weight over Z^d.

    The first n_max values of a best-first walk that yields 1/weight in
    non-increasing order.  ``radius`` is the largest prod(1 + |k_j|) among
    the vectors that fill the table, so every k with 1/weight(k) above
    sigma_{n_max} lies in N(radius, d).  For sharp it reproduces
    :func:`sharp_table` and exists as a cross-check.
    """
    n_max, d = integer(n_max, "table length n_max"), integer(d, "dimension d")
    values: list[float] = []
    radius = 1
    with _guard_override(max_enum):  # the walk reads the guard as it runs
        _check_guard(n_max, f"best-first walk for {n_max} values")
        for value, copies, k in _best_first(kind, d):
            values.extend([value] * min(copies, n_max - len(values)))
            radius = max(radius, math.prod(1 + kj for kj in k))
            if len(values) == n_max:
                return SpectrumTable(tuple(values), kind, d,
                                     "enumerated-certified", radius=radius)


class DominationReport(Record):
    """Result of a pointwise weight-domination check on a sample box."""

    __slots__ = ("source", "target", "d", "regime", "passed", "checked",
                 "counterexample", "factor")
    source: WeightKind
    target: WeightKind
    d: int
    regime: str
    passed: bool
    checked: int
    counterexample: IndexVector | None
    factor: float  # norm bound certified; 1 for norm-one embeddings
    _defaults = (1.0,)


# weight orderings within one smoothness value: earlier = larger weight
_SAME_S_ORDERS = (
    ("high", lambda s: s >= 1.0 - REL_TOL, ("sharp", "plus", "star")),
    ("mid", lambda s: 0.5 - REL_TOL <= s <= 1.0 + REL_TOL, ("sharp", "star", "plus")),
    ("low", lambda s: s <= 0.5 + REL_TOL, ("star", "sharp", "plus")),
)


def _integer_chain_violation(m: int, radius: int) -> int | None:
    # 1 + l^{2m} <= v_m(l)^2 <= (1 + l^2)^m <= (2^m / (m+1)) v_m(l)^2,
    # checked in exact integer arithmetic; returns the offending l if any.
    for level in range(radius + 1):
        base = level * level
        v_sq = _intm_square(level, m)
        if 1 + base ** m > v_sq:
            return level
        mid = (1 + base) ** m
        if v_sq > mid:
            return level
        if (m + 1) * mid > (1 << m) * v_sq:
            return level
    return None


def verify_weight_domination(pair: tuple[WeightKind, WeightKind], d: int,
                             sample_radius: int, *,
                             max_enum: int | None = None) -> DominationReport:
    """Check the pointwise inequality behind a norm-one embedding source -> target.

    The embedding has norm one iff weight(target, k) <= weight(source, k)
    for every k; the check runs over the box |k|_inf <= sample_radius with
    relative tolerance 1e-12.  Supported regimes:

    * same family with s_source >= s_target;
    * sharp/plus/star at equal s, following the ordering valid for that s
      (s >= 1; 1/2 <= s <= 1; s <= 1/2), compositions included;
    * plus(s) -> sharp(s/2);
    * intm(m) -> star(m) and plus(m) -> intm(m), norm one;
    * intm(m) -> plus(m), norm (2^m/(m+1))^{d/2}; the per-coordinate
      integer chain behind that factor is checked exactly alongside.

    Anything else raises :class:`UnsupportedRegimeError`.
    """
    source, target = pair
    d = integer(d, "dimension d")
    sample_radius = integer(sample_radius, "sample radius")
    s, t = source.s, target.s
    same_s = abs(s - t) <= REL_TOL * max(s, t)
    factor = 1.0
    regime = None
    if source.family == target.family:
        if s + REL_TOL * max(s, t) >= t:
            regime = "same-family-monotone"
        else:
            raise UnsupportedRegimeError(
                f"{source.label()} does not dominate {target.label()}: "
                "same family needs s_source >= s_target")
    elif same_s and "intm" in (source.family, target.family):
        m_side = source if source.family == "intm" else target
        m = m_side.m
        if source.family == "intm" and target.family == "star":
            regime = "intm-to-star"
        elif source.family == "plus" and target.family == "intm":
            regime = "plus-to-intm"
        elif source.family == "intm" and target.family == "plus":
            regime = "intm-to-plus-bounded"
            try:  # ldexp is 2.0 ** m / (m + 1) bit for bit, without forming 2.0 ** m
                factor = math.ldexp(1.0 / (m + 1), m) ** (d / 2.0)
            except OverflowError:  # a factor past double range is inf, as in weight
                factor = math.inf
        else:
            raise UnsupportedRegimeError(
                f"no supported comparison {source.label()} -> {target.label()}")
    elif same_s:
        for name, applies, order in _SAME_S_ORDERS:
            if applies(s) and order.index(source.family) < order.index(target.family):
                regime = f"equal-smoothness-{name}"
                break
        if regime is None:
            raise UnsupportedRegimeError(
                f"{source.label()} -> {target.label()} is outside the proven "
                f"orderings at s = {s:g}")
    elif (source.family, target.family) == ("plus", "sharp") and \
            abs(t - s / 2.0) <= REL_TOL * s:
        regime = "plus-to-half-sharp"
    else:
        raise UnsupportedRegimeError(
            f"no supported comparison {source.label()} -> {target.label()}")

    box = (2 * sample_radius + 1) ** d
    with _guard_override(max_enum):
        _check_guard(box, f"domination check box has {box} points")
    if regime == "intm-to-plus-bounded":
        # exact, and it costs sample_radius big-int powers of order m, so
        # it runs only once the box has passed the guard
        bad = _integer_chain_violation(source.m, sample_radius)
        if bad is not None:
            return DominationReport(source, target, d, regime, False,
                                    sample_radius + 1, (bad,), factor)

    checked = 0
    counterexample = None
    side = range(-sample_radius, sample_radius + 1)
    for k in itertools.product(side, repeat=d):  # lexicographic order
        checked += 1
        if weight(target, k) > factor * weight(source, k) * (1.0 + REL_TOL):
            counterexample = k
            break
    return DominationReport(source, target, d, regime, counterexample is None,
                            checked, counterexample, factor)
