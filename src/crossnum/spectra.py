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
from dataclasses import dataclass
from typing import Iterator, Sequence

from ._checks import REL_TOL, integer, positive
from .combinatorics import (IndexVector, _check_guard, _count_cross,
                            _guard_override, enumeration_guard)
from .errors import UnsupportedRegimeError

_FAMILIES = ("sharp", "plus", "star", "intm")


@dataclass(frozen=True)
class WeightKind:
    """One of the four weight families together with its smoothness."""

    family: str
    s: float

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        s = (float(integer(self.s, "integer-m order m")) if self.family == "intm"
             else positive(self.s, "smoothness s"))
        object.__setattr__(self, "s", s)

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


def _below_switch(s: float) -> float:
    # r^s at the last radius r below the switch (1.0 if there is none)
    if 1024 * s <= 1000.0:  # float(r) overflows first, past 2^1024 - 2^970 - 1
        return sys.float_info.max ** s
    bits = int(1000.0 / s)  # then the largest b with b * s <= 1000.0
    while bits * s > 1000.0:
        bits -= 1
    while (bits + 1) * s <= 1000.0:
        bits += 1
    return float(max(1, (1 << bits) - 1)) ** s


def _power(r: int, s: float, reciprocal: bool = False) -> float:
    """r^s, or r^-s with ``reciprocal``, for an integer r >= 1 and s > 0.

    Non-decreasing in r (non-increasing with ``reciprocal``) by
    construction.  Below the switch (bit length of r times s at most 1000,
    float(r) finite) it is float(r) ** s, the arithmetic of the best-first
    walk, bit for bit.  Beyond it, r^s is 2 ** (s log2 r): math.log2 of an
    int is exact at powers of two and every later step is a monotone
    rounding, so it never falls as r grows.  That branch is clamped at the
    power of the last radius below the switch, so r^s never falls as r
    crosses the switch either.  r^s past double range is inf, r^-s 0.0.
    """
    if r.bit_length() * s <= 1000.0:
        try:
            power = float(r) ** s
            return 1.0 / power if reciprocal else power
        except OverflowError:  # float(r) itself, for s < 1000/1024
            pass
    last = _below_switch(s)
    exponent = s * math.log2(r)
    if reciprocal:
        return min(2.0 ** -exponent, 1.0 / last)
    try:
        return max(2.0 ** exponent, last)
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


@dataclass(frozen=True)
class ApproxNumber:
    """An exact spectrum value r^{-s}, kept symbolic as the pair (r, s)."""

    r: int
    s: float

    def __post_init__(self) -> None:
        # the common case is tested inline: staircase lookups build one per call
        if not (type(self.r) is int and self.r >= 1):
            object.__setattr__(self, "r", integer(self.r, "radius r"))
        if not (type(self.s) is float and 0.0 < self.s < math.inf):
            object.__setattr__(self, "s", positive(self.s, "smoothness s"))

    def value(self) -> float:
        # the enumeration's arithmetic, 1 / float(r) ** s, below the switch
        return _power(self.r, self.s, reciprocal=True)


@dataclass(frozen=True)
class Breakpoint:
    """One step of the sharp spectrum: a_n = value for C(r-1,d) < n <= cumulative."""

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


@dataclass(frozen=True)
class SpectrumTable:
    """sigma_1 >= sigma_2 >= ... >= sigma_n for one weight kind.

    ``certification`` is "exact" for tables assembled from breakpoints and
    "enumerated-certified" for tables produced by the best-first walk;
    ``radius`` is then the largest prod(1 + |k_j|) among the vectors that
    fill the table.  ``bases`` carries the per-entry radius for exact sharp
    tables.
    """

    values: tuple[float, ...]
    kind: WeightKind
    d: int
    certification: str
    radius: int | None = None
    bases: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a spectrum table needs at least one entry")
        if self.values[0] != 1.0:
            raise ValueError(f"sigma_1 must be 1, got {self.values[0]}")
        for a, b in zip(self.values, self.values[1:]):
            if b > a:
                raise ValueError("spectrum values must be non-increasing")

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


@dataclass(frozen=True)
class DominationReport:
    """Result of a pointwise weight-domination check on a sample box."""

    source: WeightKind
    target: WeightKind
    d: int
    regime: str
    passed: bool
    checked: int
    counterexample: IndexVector | None
    factor: float = 1.0  # norm bound certified; 1 for norm-one embeddings


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
            factor = (2.0 ** m / (m + 1)) ** (d / 2.0)
            bad = _integer_chain_violation(m, sample_radius)
            if bad is not None:
                return DominationReport(source, target, d, regime, False,
                                        sample_radius + 1, (bad,), factor)
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
